"""Field reconstruction, far fields, quadratic forms.

The Mie series is the ground truth for every circle check; the far-field
convention is pinned independently by the sqrt(r) e^{-i k r} scaling of
the reconstructed exterior field at large radius.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from tscat2d import _pool, analytic, formulations, postprocess
from tscat2d.formulations import IncidentWave, TransmissionConfig, assemble, incident_traces
from tscat2d.geometry import grid, make_circle, make_kite
from tscat2d.operators import boundary_operator_set
from tscat2d.postprocess import (
    FarField,
    double_layer_potential,
    far_field,
    far_field_from_densities,
    gcsie_fields,
    quadratic_form,
    single_layer_potential,
)
from tscat2d.solver import lu_solve


@pytest.fixture(scope="module")
def circle_solution():
    """Combined-source solve on the circle, k1=4, k2=8, nu=2, N=160."""
    circle = make_circle(1.0)
    cfg = TransmissionConfig(curve=circle, k1=4.0, k2=8.0, nu=2.0, kappa=4 + 2j, n_nodes=160)
    g = grid(160)
    wave = IncidentWave(angle=0.0, k1=4.0)
    system = assemble(cfg, g, wave, "gcsie")
    rep = lu_solve(system.matrix, system.rhs)
    return cfg, g, wave, system.split(rep.x)


@pytest.fixture(scope="module")
def kite_solution():
    """Combined-source solve on the kite, k1=4, k2=6, nu=2, N=256."""
    kite = make_kite()
    cfg = TransmissionConfig(curve=kite, k1=4.0, k2=6.0, nu=2.0, kappa=4 + 2j, n_nodes=256)
    g = grid(256)
    wave = IncidentWave(angle=0.0, k1=4.0)
    system = assemble(cfg, g, wave, "gcsie")
    rep = lu_solve(system.matrix, system.rhs)
    return cfg, g, wave, system.split(rep.x)


def test_zero_densities_zero_fields():
    circle = make_circle(1.0)
    cfg = TransmissionConfig(curve=circle, k1=2.0, k2=3.0, nu=1.0, n_nodes=32)
    g = grid(32)
    z = np.zeros(32, dtype=complex)
    pts = np.array([[2.0, 0.5], [0.0, -3.0]])
    assert np.all(gcsie_fields((z, z), cfg, g, pts, side="exterior") == 0)
    ff = far_field_from_densities(circle, g, 2.0, z, z, np.linspace(0, 2 * np.pi, 8))
    assert np.all(ff.values == 0)


def test_near_boundary_points_rejected():
    circle = make_circle(1.0)
    cfg = TransmissionConfig(curve=circle, k1=2.0, k2=3.0, nu=1.0, n_nodes=32)
    g = grid(32)
    z = np.zeros(32, dtype=complex)
    with pytest.raises(ValueError, match="distance"):
        gcsie_fields((z, z), cfg, g, np.array([[1.05, 0.0]]), side="exterior")


def test_unknown_side_is_rejected_before_any_operator_set(monkeypatch):
    builds = []
    monkeypatch.setattr(formulations, "boundary_operator_set", lambda *args: builds.append(args))
    cfg = TransmissionConfig(curve=make_kite(), k1=8.0, k2=12.0, nu=2.0, kappa=8 + 4j, n_nodes=32)
    z = np.zeros(32, dtype=complex)
    with pytest.raises(ValueError, match="side"):
        gcsie_fields((z, z), cfg, grid(32), np.array([[3.0, 0.0]]), side="outside")
    assert builds == []


def test_unknown_formulation_is_rejected_before_any_operator_set(monkeypatch):
    builds = []
    monkeypatch.setattr(formulations, "boundary_operator_set", lambda *args: builds.append(args))
    cfg = TransmissionConfig(curve=make_kite(), k1=8.0, k2=12.0, nu=2.0, kappa=8 + 4j, n_nodes=32)
    z = np.zeros(32, dtype=complex)
    with pytest.raises(ValueError, match="unknown formulation 'bogus'"):
        far_field((z, z), cfg, grid(32), IncidentWave(0.0, 8.0), [0.0], formulation="bogus")
    assert builds == []


def test_a_grid_of_another_size_than_n_nodes_is_rejected():
    # a 64-node configuration with a 32-node grid assembled a 64 x 64 system, without a word
    cfg = TransmissionConfig(curve=make_kite(), k1=2.0, k2=3.0, nu=2.0, n_nodes=64)
    g, wave = grid(32), IncidentWave(0.0, 2.0)
    z = np.zeros(32, dtype=complex)
    with pytest.raises(ValueError, match="n_nodes"):
        assemble(cfg, g, wave, "gcsie")
    for formulation in ("gcsie", "classical"):
        with pytest.raises(ValueError, match="n_nodes"):
            far_field((z, z), cfg, g, wave, [0.0], formulation=formulation)
    with pytest.raises(ValueError, match="n_nodes"):
        gcsie_fields((z, z), cfg, g, np.array([[3.0, 0.0]]), side="exterior")


def test_null_contrast_exterior_field_vanishes():
    kite = make_kite()
    cfg = TransmissionConfig(curve=kite, k1=3.0, k2=3.0, nu=1.0, n_nodes=128)
    g = grid(128)
    wave = IncidentWave(angle=0.0, k1=3.0)
    system = assemble(cfg, g, wave, "gcsie")
    rep = lu_solve(system.matrix, system.rhs)
    th = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    pts = 3.0 * np.stack([np.cos(th), np.sin(th)], axis=-1)
    u1 = gcsie_fields(system.split(rep.x), cfg, g, pts, side="exterior")
    assert np.abs(u1).max() <= 1e-8


def test_interior_field_matches_mie(circle_solution):
    cfg, g, wave, sol = circle_solution
    mie = analytic.mie_solve(1.0, 4.0, 8.0, 2.0)
    th = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    pts = 0.5 * np.stack([np.cos(th), np.sin(th)], axis=-1)
    u2 = gcsie_fields(sol, cfg, g, pts, side="interior")
    assert np.abs(u2 - mie.interior(0.5, th)).max() <= 1e-7


def test_exterior_field_matches_mie(circle_solution):
    cfg, g, wave, sol = circle_solution
    mie = analytic.mie_solve(1.0, 4.0, 8.0, 2.0)
    th = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    pts = 2.5 * np.stack([np.cos(th), np.sin(th)], axis=-1)
    u1 = gcsie_fields(sol, cfg, g, pts, side="exterior")
    assert np.abs(u1 - mie.scattered(2.5, th)).max() <= 1e-8


def test_far_field_matches_mie(circle_solution):
    cfg, g, wave, sol = circle_solution
    mie = analytic.mie_solve(1.0, 4.0, 8.0, 2.0)
    th = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    ff = far_field(sol, cfg, g, wave, th, formulation="gcsie")
    ref = mie.far_field(th)
    assert np.abs(ff.values - ref).max() <= 1e-8 * np.abs(ref).max()


@pytest.mark.parametrize("formulation", ["gcsie", "classical"])
def test_far_field_rejects_an_incident_wave_at_another_k1(circle_solution, formulation):
    cfg, g, _, sol = circle_solution
    with pytest.raises(ValueError, match="k1"):
        far_field(sol, cfg, g, IncidentWave(0.0, 5.0), np.zeros(4), formulation=formulation)


def test_far_field_scaling_consistency(kite_solution):
    # u1(r x_hat) sqrt(r) e^{-i k1 r} = u_inf + O(1/r): halving under r
    # doubling and Richardson extrapolation within the measured margin
    cfg, g, wave, sol = kite_solution
    angles = np.array([0.0, 1.0, 2.2, 4.0])
    ff = far_field(sol, cfg, g, wave, angles, formulation="gcsie").values
    est = {}
    for r in (200.0, 400.0):
        pts = r * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        u = gcsie_fields(sol, cfg, g, pts, side="exterior")
        est[r] = u * np.sqrt(r) * np.exp(-1j * cfg.k1 * r)
    ratio = np.abs(est[200.0] - ff) / np.abs(est[400.0] - ff)
    assert np.all((1.8 <= ratio) & (ratio <= 2.2))
    assert np.abs(2 * est[400.0] - est[200.0] - ff).max() <= 5e-4


def test_far_field_scaling_classical_formulation():
    circle = make_circle(1.0)
    cfg = TransmissionConfig(curve=circle, k1=4.0, k2=8.0, nu=2.0, kappa=4 + 2j, n_nodes=160)
    g = grid(160)
    wave = IncidentWave(angle=0.0, k1=4.0)
    system = assemble(cfg, g, wave, "classical")
    rep = lu_solve(system.matrix, system.rhs)
    sol = system.split(rep.x)
    mie = analytic.mie_solve(1.0, 4.0, 8.0, 2.0)
    th = np.linspace(0, 2 * np.pi, 90, endpoint=False)
    ff = far_field(sol, cfg, g, wave, th, formulation="classical")
    ref = mie.far_field(th)
    assert np.abs(ff.values - ref).max() <= 1e-8 * np.abs(ref).max()


def test_solution_satisfies_transmission_conditions(circle_solution):
    # boundary conditions checked through the discrete trace operators
    cfg, g, wave, (a, b) = circle_solution
    curve = cfg.curve
    ops = {k: boundary_operator_set(curve, g, k) for k in (cfg.k1, cfg.k2, cfg.kappa)}
    ok = ops[cfg.kappa]
    c = 1.0 + cfg.nu
    dl = cfg.nu / c * a - 2.0 / c * (ok.s @ b)
    sl = 2.0 * cfg.nu / c * (ok.n @ a) + b / c
    o1, o2 = ops[cfg.k1], ops[cfg.k2]
    eye = np.eye(g.n)
    # exterior traces of u1 = DL1(dl) - SL1(sl)
    u1_d = (0.5 * eye + o1.k) @ dl - o1.s @ sl
    u1_n = o1.n @ dl - (-0.5 * eye + o1.kt) @ sl
    # interior traces of u2 = -DL2(dl - a) + SL2(sl - b)/nu
    u2_d = -(-0.5 * eye + o2.k) @ (dl - a) + o2.s @ (sl - b) / cfg.nu
    u2_n = -o2.n @ (dl - a) + (0.5 * eye + o2.kt) @ (sl - b) / cfg.nu
    f, gg = incident_traces(wave, curve, g)
    assert np.abs(u1_d + f - u2_d).max() <= 1e-8
    assert np.abs(u1_n + gg - cfg.nu * u2_n).max() <= 1e-8


def test_quadratic_form_positivity(kite, op_cache):
    # Im <S_kappa phi, phi> > 0 and Im <N_kappa psi, psi> > 0 for complex
    # kappa in the first quadrant
    g = grid(128)
    ops = op_cache("kite", 128, 4 + 2j)
    rng = np.random.default_rng(42)
    for _ in range(50):
        phi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert np.imag(quadratic_form(ops.s, kite, g, phi)) > 0
        assert np.imag(quadratic_form(ops.n, kite, g, phi)) > 0


def test_imaginary_wavenumber_product_is_self_adjoint(kite, op_cache):
    # S_{i eps} K^T_{i eps} is real and self-adjoint, so the quadratic
    # form has no imaginary part (up to quadrature error)
    g = grid(256)
    ops = op_cache("kite", 256, 1j)
    prod = ops.s @ ops.kt
    rng = np.random.default_rng(7)
    for _ in range(20):
        b = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        q = np.imag(quadratic_form(prod, kite, g, b))
        nb = np.real(quadratic_form(np.eye(256), kite, g, b))
        assert abs(q) <= 1e-8 * nb


def test_quadratic_form_grid_mismatch():
    kite = make_kite()
    g = grid(64)
    s = boundary_operator_set(kite, g, 2.0).s
    with pytest.raises(ValueError, match="grid"):
        quadratic_form(s, kite, g, np.ones(32))


def test_single_layer_potential_matches_circle_series():
    # SL of e^{i n t} on the unit circle is (i pi/2) J_n(k) H_n(k r) e^{i n theta}
    circle = make_circle(1.0)
    g = grid(96)
    k, n = 2.0, 3
    th = np.linspace(0, 2 * np.pi, 5)
    r = 1.8
    pts = r * np.stack([np.cos(th), np.sin(th)], axis=-1)
    vals = single_layer_potential(circle, g, k, np.exp(1j * n * g.nodes), pts)
    import tscat2d.specfun as sf

    h = sf.hankel1_seq(n, k * r)[n]
    j = sf.bessel_j_seq(n, k)[n]
    ref = 1j * np.pi / 2 * j * h * np.exp(1j * n * th)
    assert np.abs(vals - ref).max() < 1e-12


def _exterior_points(count, seed=5):
    rng = np.random.default_rng(seed)
    th, rad = rng.uniform(0.0, 2.0 * np.pi, count), rng.uniform(3.0, 6.0, count)
    return np.stack([rad * np.cos(th), rad * np.sin(th)], axis=-1)


POTENTIALS = [single_layer_potential, double_layer_potential]


@pytest.mark.parametrize("k", [8.0, 8 + 4j], ids=["real", "complex"])
@pytest.mark.parametrize("potential", POTENTIALS, ids=["single", "double"])
def test_potential_temporaries_stay_in_blocks(monkeypatch, potential, k):
    # one worker evaluates the points block by block on the caller's thread, so the peak stays
    # below one points x N complex array
    monkeypatch.setattr(_pool, "workers", lambda: 1)
    kite, g = make_kite(), grid(256)
    points = _exterior_points(2000)
    density = np.exp(3j * g.nodes)
    potential(kite, g, k, density, points[:10])  # warm up
    tracemalloc.start()
    try:
        potential(kite, g, k, density, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * 16 * len(points) * g.n  # about a quarter


@pytest.mark.parametrize("potential", POTENTIALS, ids=["single", "double"])
def test_potentials_bit_identical_for_any_worker_count(monkeypatch, potential):
    # 200 points x 128 nodes: above _pool.MIN_ENTRIES, under one band, so the points are cut
    # into one block per worker
    kite, g = make_kite(), grid(128)
    points = _exterior_points(200)
    assert _pool.MIN_ENTRIES <= len(points) * g.n <= _pool.BAND_ENTRIES
    rng = np.random.default_rng(9)
    density = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    # two points too near the nodes, the closer one later: every block cut names the first
    near = points.copy()
    t = g.nodes[[10, 70]]
    near[[50, 150]] = kite.x(t) + np.array([[0.05], [0.02]]) * kite.normal(t)
    results, errors = [], []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_pool, "workers", lambda: workers)
        results.append([potential(kite, g, k, density, points) for k in (8.0, 8 + 4j)])
        with pytest.raises(ValueError, match="distance") as info:
            potential(kite, g, 8.0, density, near)
        errors.append(str(info.value))
    for got in results[1:]:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, results[0]))
    assert errors == [errors[0]] * 3 and "distance 0.05 " in errors[0]
    assert potential(kite, g, 8.0, density, np.empty((0, 2))).shape == (0,)


def test_far_field_convention_tag():
    ff = FarField(angles=np.zeros(1), values=np.zeros(1, dtype=complex))
    assert "sqrt(r)" in ff.convention


def test_direct_and_iterative_solvers_agree(circle_solution):
    from tscat2d.formulations import assemble as assemble_system
    from tscat2d.solver import gmres

    cfg, g, wave, _ = circle_solution
    system = assemble_system(cfg, g, wave, "gcsie")
    x_lu = lu_solve(system.matrix, system.rhs).x
    x_it = gmres(system.matrix, system.rhs, tol=1e-12, maxit=2 * g.n).x
    assert np.linalg.norm(x_lu - x_it) / np.linalg.norm(x_lu) <= 1e-8


def _count_kernel_builds(monkeypatch):
    """Record each plane-wave kernel build, holding its arrays only weakly."""
    builds = []
    build = postprocess._plane_wave_kernels

    def counted(*args):
        kernels = build(*args)
        builds.append([weakref.ref(k) for k in kernels])
        return kernels

    monkeypatch.setattr(postprocess, "_plane_wave_kernels", counted)
    return builds


def test_far_field_kernels_reused_for_the_same_curve_and_angles(monkeypatch):
    kite = make_kite()
    g = grid(32)
    rng = np.random.default_rng(12)
    dl, sl = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    rotated = angles + 0.1
    first = far_field_from_densities(kite, g, 4.0, dl, sl, rotated).values
    builds = _count_kernel_builds(monkeypatch)
    values = [far_field_from_densities(kite, g, 4.0, dl, sl, a).values
              for a in (angles, angles.copy(), rotated, rotated, list(rotated))]
    # equal angle values hit, whatever object holds them; a new k1 or grid misses
    assert len(builds) == 2
    assert np.array_equal(values[2], first) and np.array_equal(values[4], first)
    far_field_from_densities(kite, g, 5.0, dl, sl, rotated)
    far_field_from_densities(kite, grid(32), 5.0, dl, sl, rotated)
    assert len(builds) == 3
    far_field_from_densities(kite, grid(64), 5.0, np.ones(64), np.ones(64), rotated)
    assert len(builds) == 4


def test_far_field_kernels_freed_with_their_curve(monkeypatch):
    builds = _count_kernel_builds(monkeypatch)
    kite = make_kite()
    far_field_from_densities(kite, grid(32), 4.0, np.ones(32), np.ones(32), [0.0, 1.0])
    assert all(ref() is not None for ref in builds[0])
    del kite
    gc.collect()
    assert all(ref() is None for ref in builds[0])
