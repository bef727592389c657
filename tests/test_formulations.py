"""Block assemblies: trace data, regularizer blocks, the three systems.

The null-contrast configuration (k1 = k2, nu = 1) is the main physical
oracle here: the scattered field vanishes identically, and the classical
system is solved exactly by the incident traces.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tscat2d import analytic
from tscat2d.formulations import (
    IncidentWave,
    TransmissionConfig,
    assemble,
    combined_source_blocks,
    combined_source_blocks_explicit,
    incident_traces,
    operator_sets,
    smoothed_regularizer,
)
from tscat2d.geometry import grid, make_circle, make_kite
from tscat2d.operators import boundary_operator_set
from tscat2d.solver import gmres, lu_solve, norm2_estimate
from tscat2d.postprocess import far_field
from conftest import band_limited_density


def test_config_validation():
    kite = make_kite()
    with pytest.raises(ValueError, match="k1"):
        TransmissionConfig(curve=kite, k1=-1.0, k2=2.0, nu=1.0)
    with pytest.raises(ValueError, match="nu"):
        TransmissionConfig(curve=kite, k1=1.0, k2=2.0, nu=0.0)
    with pytest.raises(ValueError, match="kappa"):
        TransmissionConfig(curve=kite, k1=1.0, k2=2.0, nu=1.0, kappa=2.0 + 0.0j)
    with pytest.raises(ValueError, match="kappa"):
        TransmissionConfig(curve=kite, k1=1.0, k2=2.0, nu=1.0, kappa=complex(np.nan, 1.0))
    with pytest.raises(ValueError, match="n_nodes"):
        TransmissionConfig(curve=kite, k1=1.0, k2=2.0, nu=1.0, n_nodes=33)
    # types: a string, a bool or a float grid size is rejected, not coerced
    with pytest.raises(ValueError, match="k1"):
        TransmissionConfig(curve=kite, k1="8", k2=2.0, nu=1.0)
    with pytest.raises(ValueError, match="k1"):
        TransmissionConfig(curve=kite, k1=True, k2=2.0, nu=1.0)
    with pytest.raises(ValueError, match="n_nodes"):
        TransmissionConfig(curve=kite, k1=1.0, k2=2.0, nu=1.0, n_nodes=64.0)
    with pytest.raises(ValueError, match="kappa"):
        TransmissionConfig(curve=kite, k1=1.0, k2=2.0, nu=1.0, kappa="1+1j")


def test_default_kappa():
    cfg = TransmissionConfig(curve=make_kite(), k1=6.0, k2=2.0, nu=1.0)
    assert cfg.kappa == 6.0 + 3.0j


def test_incident_traces_values():
    circle = make_circle(1.0)
    g = grid(64)
    wave = IncidentWave(angle=0.0, k1=3.0)
    f, gg = incident_traces(wave, circle, g)
    pos = circle.x(g.nodes)
    assert np.allclose(f, np.exp(3j * pos[:, 0]))
    # g vanishes where the direction is tangent to the boundary (d.n = 0)
    top = np.argmin(np.abs(g.nodes - np.pi / 2))
    assert abs(gg[top]) < 1e-12


def test_incident_field_satisfies_helmholtz():
    # five-point stencil on the plane-wave formula
    wave = IncidentWave(angle=0.6, k1=4.0)
    h = 5e-4
    pts = np.array([[0.3, -0.2], [1.1, 0.8]])
    for p in pts:
        def u(q):
            return np.exp(1j * wave.k1 * (q @ wave.direction))
        lap = (
            u(p + [h, 0]) + u(p - [h, 0]) + u(p + [0, h]) + u(p - [0, h]) - 4 * u(p)
        ) / h**2
        assert abs(lap + wave.k1**2 * u(p)) <= 1e-6 * wave.k1**2


def test_regularizer_blocks_unit_contrast(op_cache):
    ok = op_cache("circle", 32, 2 + 1j)
    r11, r12, r21, r22 = smoothed_regularizer(ok.s, ok.n, 1.0)
    assert np.allclose(r11 * np.eye(32), 0.5 * np.eye(32))
    assert np.allclose(r22 * np.eye(32), 0.5 * np.eye(32))
    assert r12.shape == (32, 32) and r21.shape == (32, 32)


def test_regularizer_single_layer_block_symbol(op_cache):
    g = grid(128)
    ok = op_cache("circle", 128, 4 + 2j)
    _, r12, _, _ = smoothed_regularizer(ok.s, ok.n, 2.0)
    e = np.exp(8j * g.nodes)
    ref = -(2.0 / 3.0) * analytic.circle_operator_symbol("S", 1.0, 4 + 2j, 8)
    assert np.abs(r12 @ e - ref * e).max() <= 1e-9


def test_rhs_is_negative_incident_trace():
    circle = make_circle(1.0)
    cfg = TransmissionConfig(curve=circle, k1=2.0, k2=4.0, nu=1.5, n_nodes=32)
    g = grid(32)
    wave = IncidentWave(angle=0.0, k1=2.0)
    system = assemble(cfg, g, wave, "gcsie")
    f, _ = incident_traces(wave, circle, g)
    assert np.allclose(system.rhs[:32], -f)


def test_null_contrast_zero_far_field_all_formulations():
    kite = make_kite()
    cfg = TransmissionConfig(curve=kite, k1=3.0, k2=3.0, nu=1.0, n_nodes=128)
    g = grid(128)
    wave = IncidentWave(angle=0.0, k1=3.0)
    th = np.linspace(0, 2 * np.pi, 60, endpoint=False)
    for form in ("gcsie", "gcsie-explicit", "classical"):
        system = assemble(cfg, g, wave, form)
        rep = lu_solve(system.matrix, system.rhs)
        ff = far_field(system.split(rep.x), cfg, g, wave, th, formulation=form)
        assert np.abs(ff.values).max() <= 1e-8, form


def test_classical_null_contrast_solution_is_incident_trace():
    # with k1 = k2 and nu = 1 the interior Cauchy data equals the incident
    # traces; the system must reproduce them
    circle = make_circle(1.0)
    cfg = TransmissionConfig(curve=circle, k1=3.0, k2=3.0, nu=1.0, n_nodes=128)
    g = grid(128)
    wave = IncidentWave(angle=0.3, k1=3.0)
    system = assemble(cfg, g, wave, "classical")
    f, gg = incident_traces(wave, circle, g)
    exact = np.concatenate([f, gg])
    residual = np.linalg.norm(system.matrix @ exact - system.rhs) / np.linalg.norm(system.rhs)
    assert residual <= 1e-9


def test_classical_diagonal_scaling():
    kite = make_kite()
    nu = 3.0
    cfg = TransmissionConfig(curve=kite, k1=2.0, k2=4.0, nu=nu, n_nodes=64)
    g = grid(64)
    ops = {complex(k): boundary_operator_set(kite, g, k) for k in (2.0, 4.0)}
    system = assemble(cfg, g, IncidentWave(0.0, 2.0), "classical", ops=ops)
    # the identity coefficient of the psi block is (1 + nu)/2 exactly
    off = system.d22 - (nu * ops[2.0 + 0j].kt - ops[4.0 + 0j].kt)
    assert np.allclose(off, 0.5 * (1 + nu) * np.eye(64))


def test_explicit_collapse_at_equal_wavenumbers():
    # nu = 1, k1 = k2 = kappa: the S-difference terms vanish and
    # D12 = -2 K S as an exact matrix identity
    kite = make_kite()
    g = grid(64)
    ops = boundary_operator_set(kite, g, 3.0)
    d12 = combined_source_blocks_explicit(ops, ops, ops, 1.0)[:64, 64:]
    target = -2.0 * (ops.k @ ops.s)
    assert np.abs(d12 - target).max() <= 1e-12


def test_composed_equals_explicit_on_resolved_content():
    # analytically identical; the discrete disagreement acting on fixed
    # band-limited data is pure quadrature error and drops >= 100x per
    # grid doubling
    kite = make_kite()
    wave = IncidentWave(0.0, 4.0)
    action = {}
    for n in (64, 128):
        cfg = TransmissionConfig(curve=kite, k1=4.0, k2=6.0, nu=2.0, kappa=4 + 2j, n_nodes=n)
        g = grid(n)
        ops = {complex(k): boundary_operator_set(kite, g, k) for k in (4.0, 6.0, 4 + 2j)}
        s1 = assemble(cfg, g, wave, "gcsie", ops=ops)
        s2 = assemble(cfg, g, wave, "gcsie-explicit", ops=ops)
        diff = s1.matrix - s2.matrix
        phi = band_limited_density(n, 16, seed=7)
        x = np.concatenate([phi, phi])
        action[n] = np.abs(diff @ x).max() / np.abs(x).max()
    assert action[64] / action[128] >= 1e2


def test_second_kind_block_symbol_decay():
    # per-mode symbols of D - I decay with orders (-2, -3, -1, -2)
    ns = np.arange(16, 65)
    mags = {ij: [] for ij in ((0, 0), (0, 1), (1, 0), (1, 1))}
    for n in ns:
        m = analytic.combined_source_symbol_matrix(1.0, 4.0, 8.0, 2.0, 4 + 2j, n) - np.eye(2)
        for ij in mags:
            mags[ij].append(abs(m[ij]))
    targets = {(0, 0): -2.0, (0, 1): -3.0, (1, 0): -1.0, (1, 1): -2.0}
    for ij, target in targets.items():
        slope = analytic.smoothing_order(list(zip(ns, mags[ij])))
        assert slope <= target + 0.3, f"block {ij}: slope {slope}"


def test_exact_regularizer_gives_identity_symbol():
    for n in range(0, 33):
        m = analytic.combined_source_symbol_matrix(
            1.0, 4.0, 8.0, 2.0, 4 + 2j, n, regularizer="exact"
        )
        assert np.abs(m - np.eye(2)).max() <= 1e-10


@pytest.mark.parametrize("formulation", ["gcsie", "gcsie-explicit"])
def test_assembled_blocks_match_symbol_matrix(formulation, op_cache):
    # the block algebra shared with the circle symbols, checked against
    # the discretised operators acting on single Fourier modes
    cfg = TransmissionConfig(
        curve=make_circle(1.0), k1=4.0, k2=8.0, nu=2.0, kappa=4 + 2j, n_nodes=128
    )
    g = grid(128)
    ops = {complex(k): op_cache("circle", 128, k) for k in (4.0, 8.0, 4 + 2j)}
    system = assemble(cfg, g, IncidentWave(0.0, 4.0), formulation, ops=ops)
    blocks = {(0, 0): system.d11, (0, 1): system.d12, (1, 0): system.d21, (1, 1): system.d22}
    for m in (0, 1, 4, 8, 16, 32):
        e = np.exp(1j * m * g.nodes)
        sym = analytic.combined_source_symbol_matrix(1.0, 4.0, 8.0, 2.0, 4 + 2j, m)
        for ij, block in blocks.items():
            assert np.abs(block @ e - sym[ij] * e).max() <= 1e-9, (m, ij)


def test_diagonal_block_norm_estimate_mesh_stable():
    kite = make_kite()
    wave = IncidentWave(0.0, 4.0)
    est = {}
    for n in (128, 256):
        cfg = TransmissionConfig(curve=kite, k1=4.0, k2=6.0, nu=2.0, kappa=4 + 2j, n_nodes=n)
        system = assemble(cfg, grid(n), wave, "gcsie-explicit")
        est[n] = norm2_estimate(system.d11, shift=1.0)
    assert np.isfinite(est[128])
    assert abs(est[256] - est[128]) <= 0.05 * est[128]


def test_unknown_formulation_rejected():
    cfg = TransmissionConfig(curve=make_kite(), k1=2.0, k2=3.0, nu=1.0, n_nodes=16)
    with pytest.raises(ValueError, match="formulation"):
        assemble(cfg, grid(16), IncidentWave(0.0, 2.0), "mueller")


@pytest.mark.parametrize("formulation", ["gcsie", "classical"])
def test_incident_wave_at_another_k1_is_rejected(formulation):
    cfg = TransmissionConfig(curve=make_circle(1.0), k1=4.0, k2=8.0, nu=2.0, n_nodes=32)
    with pytest.raises(ValueError, match="k1"):
        assemble(cfg, grid(32), IncidentWave(0.0, 5.0), formulation)


def test_block_system_shape_checks():
    cfg = TransmissionConfig(curve=make_kite(), k1=2.0, k2=3.0, nu=1.0, n_nodes=16)
    g = grid(16)
    system = assemble(cfg, g, IncidentWave(0.0, 2.0), "gcsie")
    assert system.matrix.shape == (32, 32)
    a, b = system.split(system.rhs)
    assert a.shape == (16,) and b.shape == (16,)


def _kite_sweep_setup(n=32, k1=4.0):
    """A small kite config, its grid and its three operator sets."""
    kite = make_kite()
    cfg = TransmissionConfig(curve=kite, k1=k1, k2=6.0, nu=2.0, kappa=4 + 2j, n_nodes=n)
    g = grid(n)
    ops = {complex(k): boundary_operator_set(kite, g, k) for k in (k1, 6.0, 4 + 2j)}
    return cfg, g, ops


@pytest.mark.parametrize("formulation", ["gcsie", "gcsie-explicit", "classical"])
def test_same_ops_reuse_the_matrix_with_the_new_rhs(formulation):
    cfg, g, ops = _kite_sweep_setup()
    first = assemble(cfg, g, IncidentWave(0.0, cfg.k1), formulation, ops=ops)
    wave = IncidentWave(1.0, cfg.k1)
    second = assemble(cfg, g, wave, formulation, ops=ops)
    assert second.matrix is first.matrix
    # the rhs is the new angle's, equal to that of a system composed afresh
    fresh_ops = {k: type(o)(*(m.copy() for m in o)) for k, o in ops.items()}
    fresh = assemble(cfg, g, wave, formulation, ops=fresh_ops)
    assert fresh.matrix is not first.matrix
    assert np.array_equal(fresh.matrix, second.matrix)
    assert np.array_equal(fresh.rhs, second.rhs)
    assert not np.array_equal(first.rhs, second.rhs)


def test_other_formulation_or_nu_composes_anew():
    cfg, g, ops = _kite_sweep_setup()
    wave = IncidentWave(0.0, cfg.k1)
    composed = assemble(cfg, g, wave, "gcsie", ops=ops)
    explicit = assemble(cfg, g, wave, "gcsie-explicit", ops=ops)
    assert explicit.matrix is not composed.matrix
    other_nu = TransmissionConfig(
        curve=cfg.curve, k1=cfg.k1, k2=cfg.k2, nu=3.0, kappa=cfg.kappa, n_nodes=cfg.n_nodes
    )
    assert assemble(other_nu, g, wave, "gcsie-explicit", ops=ops).matrix is not explicit.matrix


def test_writeable_ops_changed_in_place_give_a_new_matrix():
    cfg, g, ops = _kite_sweep_setup()
    ops = {k: type(o)(*(m.copy() for m in o)) for k, o in ops.items()}
    wave = IncidentWave(0.0, cfg.k1)
    before = assemble(cfg, g, wave, "classical", ops=ops).matrix.copy()
    ops[complex(cfg.k1)].s[:] *= 2.0
    after = assemble(cfg, g, wave, "classical", ops=ops).matrix
    n = g.n
    assert np.array_equal(after[:n, n:], cfg.nu * ops[complex(cfg.k1)].s - ops[6.0 + 0j].s)
    assert not np.array_equal(after, before)


def test_cached_matrix_is_freed_with_its_ops():
    cfg, g, ops = _kite_sweep_setup()
    system = assemble(cfg, g, IncidentWave(0.0, cfg.k1), "gcsie", ops=ops)
    ref = weakref.ref(system.matrix)
    del system, ops
    gc.collect()
    assert ref() is None


def test_freeing_a_replaced_key_keeps_the_newer_entry():
    cfg, g, old_ops = _kite_sweep_setup()
    _, _, new_ops = _kite_sweep_setup()
    wave = IncidentWave(0.0, cfg.k1)
    old = assemble(cfg, g, wave, "gcsie", ops=old_ops)
    new = assemble(cfg, g, wave, "gcsie", ops=new_ops)
    assert new.matrix is not old.matrix
    del old, old_ops
    gc.collect()
    assert assemble(cfg, g, IncidentWave(0.5, cfg.k1), "gcsie", ops=new_ops).matrix is new.matrix


def test_operator_sets_and_system_matrix_are_read_only():
    cfg, g, ops = _kite_sweep_setup()
    system = assemble(cfg, g, IncidentWave(0.0, cfg.k1), "gcsie", ops=ops)
    for o in ops.values():
        for m in o:
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0
    for m in (system.matrix, system.d11, system.d22):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0


def test_blocks_are_views_of_the_stored_matrix():
    cfg, g, ops = _kite_sweep_setup()
    system = assemble(cfg, g, IncidentWave(0.0, cfg.k1), "gcsie-explicit", ops=ops)
    n = g.n
    blocks = {(0, 0): system.d11, (0, 1): system.d12, (1, 0): system.d21, (1, 1): system.d22}
    for (i, j), block in blocks.items():
        assert block.base is system.matrix
        assert np.array_equal(block, system.matrix[i * n : (i + 1) * n, j * n : (j + 1) * n])
    stacked = combined_source_blocks_explicit(ops[4 + 0j], ops[6 + 0j], ops[4 + 2j], 2.0)
    assert np.array_equal(system.matrix, stacked)


def _calderon_residual(a, b, e):
    """a b - e e + I/4, zero for the exact operators by the Calderon identities."""
    return a @ b - e @ e + 0.25 * np.eye(a.shape[0])


def _blocks_out_of_place(formulation, used, nu):
    """The four blocks of each formulation, each one expression, as a reference."""
    eye = np.eye(used[0].s.shape[0])
    if formulation == "classical":
        o1, o2 = used
        return (
            eye - o1.k + o2.k,
            nu * o1.s - o2.s,
            o2.n - o1.n,
            0.5 * (1.0 + nu) * eye + nu * o1.kt - o2.kt,
        )
    o1, o2, ok = used
    r11, r12, r21, r22 = smoothed_regularizer(ok.s, ok.n, nu)
    sum_s = o1.s + o2.s / nu
    sum_k = o1.k + o2.k
    sum_kt = o1.kt + o2.kt
    sum_n = o1.n + nu * o2.n
    d11 = 0.5 * eye - o2.k + r11 * sum_k - sum_s @ r21
    d12 = o2.s / nu + sum_k @ r12 - r22 * sum_s
    d21 = -nu * o2.n + r11 * sum_n - sum_kt @ r21
    d22 = 0.5 * eye + o2.kt + sum_n @ r12 - r22 * sum_kt
    if formulation == "gcsie":
        return d11, d12, d21, d22
    # gcsie-explicit: the composed blocks plus the discrete Calderon residuals
    return (
        d11 + 2.0 * r11 * _calderon_residual(o1.s, o1.n, o1.k)
        + 2.0 * r22 * _calderon_residual(o2.s, o2.n, o2.k),
        d12,
        d21,
        d22 + 2.0 * _calderon_residual(ok.n, ok.s, ok.kt),
    )


def _paper_explicit_blocks(used, nu):
    """The paper's gcsie-explicit blocks: the products expanded by hand through S N = K^2 - I/4 etc."""
    o1, o2, ok = used
    eye = np.eye(o1.s.shape[0])
    c = 1.0 + nu
    s1, k1m, kt1, n1 = o1
    s2, k2m, kt2, n2 = o2
    sk, nk, ktk = ok.s, ok.n, ok.kt
    return (
        eye - k2m / c + nu / c * k1m - 2.0 * nu / c * (s1 @ (nk - n1))
        - 2.0 * nu / c * (k1m @ k1m) - 2.0 / c * (s2 @ (nk - n2)) - 2.0 / c * (k2m @ k2m),
        (s2 - s1) / c - 2.0 / c * ((k1m + k2m) @ sk),
        nu / c * (n1 - n2) - 2.0 * nu / c * ((kt1 + kt2) @ nk),
        eye + nu / c * kt2 - kt1 / c - 2.0 / c * ((n1 - nk) @ sk)
        - 2.0 * nu / c * ((n2 - nk) @ sk) - 2.0 * (ktk @ ktk),
    )


@pytest.mark.parametrize("formulation", ["gcsie", "gcsie-explicit", "classical"])
def test_composed_in_place_equals_the_out_of_place_blocks_bit_for_bit(formulation):
    cfg, g, ops = _kite_sweep_setup(n=48)
    used = [ops[k] for k in (4 + 0j, 6 + 0j, 4 + 2j)[: 2 if formulation == "classical" else 3]]
    d = _blocks_out_of_place(formulation, used, cfg.nu)
    reference = np.block([[d[0], d[1]], [d[2], d[3]]])
    matrix = assemble(cfg, g, IncidentWave(0.0, cfg.k1), formulation, ops=ops).matrix
    assert matrix.dtype == reference.dtype
    assert matrix.tobytes() == reference.tobytes()


@pytest.mark.parametrize("case", ["kite 4/6 N=48", "circle 20/30 N=256"])
def test_explicit_matrix_equals_the_paper_expansion_to_rounding(case, op_cache):
    # the composed system plus the Calderon residuals is the hand expansion, term for term
    if case.startswith("kite"):
        cfg, g, ops = _kite_sweep_setup(n=48)
        used = [ops[k] for k in (4 + 0j, 6 + 0j, 4 + 2j)]
    else:
        cfg = TransmissionConfig(curve=make_circle(1.0), k1=20.0, k2=30.0, nu=2.0, n_nodes=256)
        g = grid(256)
        used = [op_cache("circle", 256, k) for k in (cfg.k1, cfg.k2, cfg.kappa)]
        ops = {complex(k): o for k, o in zip((cfg.k1, cfg.k2, cfg.kappa), used)}
    d = _paper_explicit_blocks(used, cfg.nu)
    reference = np.block([[d[0], d[1]], [d[2], d[3]]])
    matrix = assemble(cfg, g, IncidentWave(0.0, cfg.k1), "gcsie-explicit", ops=ops).matrix
    assert np.abs(matrix - reference).max() <= 1e-13 * np.abs(reference).max()


@settings(max_examples=30, deadline=None)
@given(
    radius=st.floats(0.5, 2.0),
    k1=st.floats(0.5, 20.0),
    k2=st.floats(0.5, 30.0),
    nu=st.floats(0.1, 10.0),
    kappa_re=st.floats(0.0, 20.0),
    kappa_im=st.floats(0.5, 10.0),
)
def test_explicit_equals_composed_on_exact_circle_symbols(radius, k1, k2, nu, kappa_re, kappa_im):
    # the Calderon identities hold for the exact symbols (1x1 operators of one mode each), so
    # their residuals vanish to rounding
    kappa = complex(kappa_re, kappa_im)
    for m in range(65):
        o1, o2, ok = (analytic._symbol_set(radius, k, m) for k in (k1, k2, kappa))
        composed = combined_source_blocks(o1, o2, smoothed_regularizer(ok.s, ok.n, nu), nu)
        explicit = combined_source_blocks_explicit(o1, o2, ok, nu)
        assert np.abs(explicit - composed).max() <= 1e-12 * np.abs(composed).max(), m


def _gmres_iterations(curve, k1, k2, n, formulation, tol):
    cfg = TransmissionConfig(curve=curve, k1=k1, k2=k2, nu=2.0, n_nodes=n)
    system = assemble(cfg, grid(n), IncidentWave(0.0, k1), formulation)
    return gmres(system.matrix, system.rhs, tol=tol, maxit=2 * n).iterations


@pytest.mark.parametrize("n", [192, 256, 320])
def test_circle_gcsie_iterations_at_default_kappa(n):
    # kappa = 20+10i: the Kress split cancels J_n(kappa r), which grows like exp(Im kappa r),
    # so an asymmetric log-split table at rounding level showed as 56 iterations at every N
    assert _gmres_iterations(make_circle(1.0), 20.0, 30.0, n, "gcsie", 1e-10) <= 48


def test_circle_gcsie_explicit_agrees_with_mie_at_default_kappa():
    # kappa = 20+10i: the kappa set's Calderon residuals hold only to its discretization error, which
    # the window's step sets: 8.63 digits here (Bruno & Kunyansky's exp(2 e^(-1/u)/(u - 1)) gave 7.80)
    cfg = TransmissionConfig(curve=make_circle(1.0), k1=20.0, k2=30.0, nu=2.0, n_nodes=256)
    g, wave = grid(256), IncidentWave(0.0, 20.0)
    ops = operator_sets(cfg, g, (cfg.k1, cfg.k2, cfg.kappa))
    system = assemble(cfg, g, wave, "gcsie-explicit", ops=ops)
    angles = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    sol = system.split(lu_solve(system.matrix, system.rhs).x)
    ff = far_field(sol, cfg, g, wave, angles, formulation="gcsie-explicit", ops=ops).values
    ref = analytic.mie_solve(1.0, 20.0, 30.0, 2.0).far_field(angles)
    assert -np.log10(np.abs(ff - ref).max() / np.abs(ref).max()) >= 8.3


def test_kite_gcsie_beats_classical_at_k1_24():
    # the paper's claim of fewer iterations than the classical system, at N = 768 (kappa = 24+12i)
    kite = make_kite()
    composed = _gmres_iterations(kite, 24.0, 36.0, 768, "gcsie", 1e-8)
    classical = _gmres_iterations(kite, 24.0, 36.0, 768, "classical", 1e-8)
    assert composed < classical, (composed, classical)


def _iterations_and_lu_far_fields(cfg, formulations, tol, angles):
    """GMRES iterations to tol and the far field of the LU solution, per formulation, on one grid."""
    g, wave = grid(cfg.n_nodes), IncidentWave(0.0, cfg.k1)
    ops = operator_sets(cfg, g, (cfg.k1, cfg.k2, cfg.kappa))
    iterations, fields = {}, {}
    for form in formulations:
        system = assemble(cfg, g, wave, form, ops=ops)
        iterations[form] = gmres(system.matrix, system.rhs, tol=tol).iterations
        sol = system.split(lu_solve(system.matrix, system.rhs).x)
        fields[form] = far_field(sol, cfg, g, wave, angles, formulation=form, ops=ops).values
    return iterations, fields


def test_kite_gcsie_beats_classical_at_k1_32_and_agrees_with_it():
    # kappa = 32+16i: J_n(kappa r) reaches e^48 across the kite (diam 3), so the kappa set's log split
    # must be windowed for composed gcsie to keep its second-kind counts and its digits
    cfg = TransmissionConfig(curve=make_kite(), k1=32.0, k2=48.0, nu=2.0, n_nodes=1024)
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    iterations, fields = _iterations_and_lu_far_fields(cfg, ("gcsie", "classical"), 1e-8, angles)
    assert iterations["gcsie"] < iterations["classical"], iterations
    ref = fields["classical"]
    assert -np.log10(np.abs(fields["gcsie"] - ref).max() / np.abs(ref).max()) >= 12


def test_circle_gcsie_iterations_are_mesh_independent_at_k1_40():
    # kappa = 40+20i, J_n(kappa r) up to e^40 across the circle; the far fields are LU's, as GMRES at
    # 1e-10 leaves them 4e-10 to 8e-10 from Mie
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ref = analytic.mie_solve(1.0, 40.0, 60.0, 2.0).far_field(angles)
    composed = []
    for n in (128, 192, 256):
        cfg = TransmissionConfig(curve=make_circle(1.0), k1=40.0, k2=60.0, nu=2.0, n_nodes=n)
        iterations, fields = _iterations_and_lu_far_fields(cfg, ("gcsie", "classical"), 1e-10, angles)
        assert iterations["gcsie"] < iterations["classical"], (n, iterations)
        assert np.abs(fields["gcsie"] - ref).max() <= 1e-10 * np.abs(ref).max(), n
        composed.append(iterations["gcsie"])
    assert max(composed) - min(composed) <= 5, composed
