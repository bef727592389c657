"""Block assemblies: trace data, regularizer blocks, the three systems.

The null-contrast configuration (k1 = k2, nu = 1) is the main physical
oracle here: the scattered field vanishes identically, and the classical
system is solved exactly by the incident traces.
"""

import gc
import weakref

import numpy as np
import pytest

from tscat2d import analytic
from tscat2d.formulations import (
    IncidentWave,
    TransmissionConfig,
    assemble,
    combined_source_blocks_explicit,
    incident_traces,
    smoothed_regularizer,
)
from tscat2d.geometry import grid, make_circle, make_kite
from tscat2d.operators import boundary_operator_set
from tscat2d.solver import lu_solve, norm2_estimate
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
    d11, d12, d21, d22 = combined_source_blocks_explicit(ops, ops, ops, 1.0)
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
    d = combined_source_blocks_explicit(ops[4 + 0j], ops[6 + 0j], ops[4 + 2j], 2.0)
    assert np.array_equal(system.matrix, np.block([[d[0], d[1]], [d[2], d[3]]]))
