"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  The heavy kite systems are shared across criteria via
module-scoped fixtures; everything is seeded and deterministic.
"""

import numpy as np
import pytest

from tscat2d import analytic, specfun
from tscat2d.formulations import IncidentWave, TransmissionConfig, assemble
from tscat2d.geometry import grid, make_circle, make_kite
from tscat2d.operators import boundary_operator_set
from tscat2d.postprocess import far_field, quadratic_form
from tscat2d.solver import gmres, lu_solve, sigma_min_estimate
from conftest import band_limited_density


def check(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {tag}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


@pytest.fixture(scope="module")
def kite_systems():
    """Combined-source kite systems (k1=8, k2=12, nu=2, kappa=8+4i)."""
    kite = make_kite()
    wave = IncidentWave(angle=0.0, k1=8.0)
    out = {}
    for n in (128, 256, 512):
        cfg = TransmissionConfig(curve=kite, k1=8.0, k2=12.0, nu=2.0, kappa=8 + 4j, n_nodes=n)
        g = grid(n)
        ops = {complex(k): boundary_operator_set(kite, g, k) for k in (8.0, 12.0, 8 + 4j)}
        out[n] = {
            "config": cfg,
            "grid": g,
            "wave": wave,
            "composed": assemble(cfg, g, wave, "gcsie", ops=ops),
            "explicit": assemble(cfg, g, wave, "gcsie-explicit", ops=ops),
            "ops": ops,
        }
    return out


@pytest.fixture(scope="module")
def circle_solves():
    """All three formulations on the circle (k1=4, k2=8, nu=2, N=160)."""
    circle = make_circle(1.0)
    cfg = TransmissionConfig(curve=circle, k1=4.0, k2=8.0, nu=2.0, kappa=4 + 2j, n_nodes=160)
    g = grid(160)
    wave = IncidentWave(angle=0.0, k1=4.0)
    ops = {complex(k): boundary_operator_set(circle, g, k) for k in (4.0, 8.0, 4 + 2j)}
    sols = {}
    for form in ("gcsie", "gcsie-explicit", "classical"):
        system = assemble(cfg, g, wave, form, ops=ops)
        rep = lu_solve(system.matrix, system.rhs)
        sols[form] = system.split(rep.x)
    return cfg, g, wave, sols


def test_criterion_01_special_functions():
    # mpmath (dps=50) references
    j0 = 0.76519768655796655145
    y0 = 0.088256964215676957983
    h0i = -0.26803248203398854876j
    ok = (
        abs(specfun.bessel_j(0, 1.0) - j0) <= 1e-11 * abs(j0)
        and abs(specfun.bessel_y(0, 1.0) - y0) <= 1e-11 * abs(y0)
        and abs(specfun.hankel1(0, 1j) - h0i) <= 1e-11 * abs(h0i)
    )
    worst = 0.0
    for z in (0.5, 10.0, 50.0, 3 + 2j, 35 + 10j):
        j = specfun.bessel_j_seq(41, z)
        h = specfun.hankel1_seq(41, z)
        w = j[:41] * specfun.derivative_seq(h, z)[:41] - specfun.derivative_seq(j, z)[:41] * h[:41]
        target = 2j / (np.pi * z)
        worst = max(worst, float(np.max(np.abs(w - target)) / abs(target)))
    check(1, "special functions vs high-precision oracles; Wronskians n<=40",
          ok and worst <= 1e-10, f"wronskian rel dev {worst:.2e}")


def test_criterion_02_operator_symbols(op_cache):
    g = grid(128)
    worst = 0.0
    for k in (2.0, 4 + 2j):
        mats = dict(zip(("S", "K", "KT", "N"), op_cache("circle", 128, k)))
        for tag, mat in mats.items():
            for n in (0, 1, 4, 8, 16):
                e = np.exp(1j * n * g.nodes)
                lam = ((mat @ e) / e).mean()
                ref = analytic.circle_operator_symbol(tag, 1.0, k, n)
                worst = max(worst, abs(lam - ref) / abs(ref))
    check(2, "assembled S, K, KT, N match circle symbols at N=128",
          worst <= 1e-9, f"max rel err {worst:.2e}")


def test_criterion_03_calderon_identity(op_cache):
    kap = 4 + 1j
    res = {}
    for n in (256, 512):
        s, kk, _, nn = op_cache("kite", n, kap)
        phi = band_limited_density(n, 64)
        res[n] = float(
            np.linalg.norm(s @ (nn @ phi) + 0.25 * phi - kk @ (kk @ phi)) / np.linalg.norm(phi)
        )
    check(3, "Calderon residual on the kite at N=256 and decay under doubling",
          res[256] <= 1e-8 and res[256] / res[512] >= 1e2,
          f"res256 {res[256]:.2e}, ratio {res[256] / res[512]:.1f}")


def test_criterion_04_smoothing_orders():
    ns = np.arange(16, 65)
    r, kap = 1.0, 4 + 2j
    diffs = {i: [] for i in range(4)}
    dtn1, dtn2, sdiff, ndiff = [], [], [], []
    for n in ns:
        ex = analytic.exact_admittance_symbols(r, 4.0, 8.0, 2.0, n)
        ap = analytic.approx_admittance_symbols(r, kap, 2.0, n)
        for i in range(4):
            diffs[i].append(abs(ap[i] - ex[i]))
        nk = analytic.circle_operator_symbol("N", r, kap, n)
        dtn1.append(abs(2 * nk - analytic.circle_dtn_symbol("exterior", r, 4.0, n)))
        dtn2.append(abs(-2 * nk - analytic.circle_dtn_symbol("interior", r, 8.0, n)))
        sdiff.append(abs(analytic.circle_operator_symbol("S", r, 2.0, n)
                         - analytic.circle_operator_symbol("S", r, 3 + 1j, n)))
        ndiff.append(abs(analytic.circle_operator_symbol("N", r, 2.0, n)
                         - analytic.circle_operator_symbol("N", r, 3 + 1j, n)))
    fit = lambda mags: analytic.smoothing_order(list(zip(ns, mags)))
    slopes = {
        "R11": (fit(diffs[0]), -2.0),
        "R12": (fit(diffs[1]), -3.0),
        "R21": (fit(diffs[2]), -1.0),
        "R22": (fit(diffs[3]), -2.0),
        "2N-Y1": (fit(dtn1), -1.0),
        "-2N-Y2": (fit(dtn2), -1.0),
        "S-diff": (fit(sdiff), -3.0),
        "N-diff": (fit(ndiff), -1.0),
    }
    ok = all(s <= t + 0.3 for s, t in slopes.values())
    detail = ", ".join(f"{k} {s:.2f}" for k, (s, _) in slopes.items())
    check(4, "smoothing orders over n in [16, 64]", ok, detail)


def test_criterion_05_exact_admittance_identity():
    worst = 0.0
    for n in range(0, 33):
        m = analytic.combined_source_symbol_matrix(
            1.0, 4.0, 8.0, 2.0, 4 + 2j, n, regularizer="exact"
        )
        worst = max(worst, float(np.abs(m - np.eye(2)).max()))
    check(5, "exact-admittance block symbol is the 2x2 identity (n<=32)",
          worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_06_far_field_vs_mie(circle_solves):
    cfg, g, wave, sols = circle_solves
    mie = analytic.mie_solve(1.0, 4.0, 8.0, 2.0)
    th = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    ref = mie.far_field(th)
    scale = np.abs(ref).max()
    errs = {}
    for form, sol in sols.items():
        ff = far_field(sol, cfg, g, wave, th, formulation=form)
        errs[form] = float(np.abs(ff.values - ref).max() / scale)
    ok = errs["gcsie"] <= 1e-8 and errs["classical"] <= 1e-8
    check(6, "far field vs Mie series at N=160 (combined-source and classical)",
          ok, ", ".join(f"{k} {v:.2e}" for k, v in errs.items()))


def test_criterion_07_mesh_independence_and_agreement(kite_systems):
    iters = {}
    for n, bundle in kite_systems.items():
        system = bundle["composed"]
        iters[n] = gmres(system.matrix, system.rhs, tol=1e-8, maxit=2 * n).iterations
    spread = max(iters.values()) - min(iters.values())

    # composed vs explicit: disagreement acting on fixed band-limited data
    # (the entrywise matrix max-norm is dominated by the few modes at the
    # grid's resolution limit and decays like 1/N for any Nystrom rule;
    # on resolved content the two assemblies agree to quadrature error)
    action = {}
    for n, bundle in kite_systems.items():
        diff = bundle["composed"].matrix - bundle["explicit"].matrix
        phi = band_limited_density(n, 16, seed=11)
        x = np.concatenate([phi, phi])
        action[n] = float(np.abs(diff @ x).max() / np.abs(x).max())
    r1 = action[128] / action[256]
    r2 = action[256] / action[512]
    # the shrink holds until the disagreement saturates at the rounding
    # floor of the two product chains (N eps ||D|| ~ 5e-11 at N=512)
    agree_ok = r1 >= 1e2 and (r2 >= 1e2 or action[512] <= 1e-9)
    check(7, "GMRES count varies <= 2 over N in {128, 256, 512}; assemblies agree",
          spread <= 2 and agree_ok,
          f"iters {iters}, shrink {r1:.0f}x then {r2:.0f}x")


def test_criterion_08_well_posedness_evidence(kite_systems, op_cache):
    circle = make_circle(1.0)
    wave = IncidentWave(angle=0.0, k1=4.0)
    smin = {}
    for n in (128, 256):
        cfg = TransmissionConfig(curve=circle, k1=4.0, k2=8.0, nu=2.0, kappa=4 + 2j, n_nodes=n)
        system = assemble(cfg, grid(n), wave, "gcsie")
        smin[n] = sigma_min_estimate(system.matrix)
    stable = abs(smin[256] - smin[128]) <= 0.10 * smin[128]

    kite = make_kite()
    g = grid(128)
    ok = op_cache("kite", 128, 4 + 2j)
    rng = np.random.default_rng(42)
    pos_ok = True
    for _ in range(50):
        phi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        pos_ok &= np.imag(quadratic_form(ok.s, kite, g, phi)) > 0
        pos_ok &= np.imag(quadratic_form(ok.n, kite, g, phi)) > 0

    g2 = grid(256)
    o_eps = op_cache("kite", 256, 1j)
    prod = o_eps.s @ o_eps.kt
    herm_worst = 0.0
    for _ in range(20):
        b = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        herm_worst = max(
            herm_worst,
            abs(np.imag(quadratic_form(prod, kite, g2, b)))
            / np.real(quadratic_form(np.eye(256), kite, g2, b)),
        )
    check(8, "sigma_min stable; Im<S.,.> and Im<N.,.> positive; imaginary-k product self-adjoint",
          stable and pos_ok and herm_worst <= 1e-8,
          f"smin {smin[128]:.4g}/{smin[256]:.4g}, herm {herm_worst:.1e}")


def test_criterion_09_fewer_iterations_than_classical(kite_systems):
    bundle = kite_systems[256]
    classical = assemble(
        bundle["config"], bundle["grid"], bundle["wave"], "classical", ops=bundle["ops"]
    )
    it_g = gmres(bundle["composed"].matrix, bundle["composed"].rhs, tol=1e-8, maxit=512).iterations
    it_c = gmres(classical.matrix, classical.rhs, tol=1e-8, maxit=512).iterations
    check(9, "combined-source GMRES iterations <= classical at tol 1e-8",
          it_g <= it_c, f"{it_g} vs {it_c}")


def test_criterion_10_null_contrast():
    kite = make_kite()
    cfg = TransmissionConfig(curve=kite, k1=3.0, k2=3.0, nu=1.0, n_nodes=128)
    g = grid(128)
    wave = IncidentWave(angle=0.0, k1=3.0)
    th = np.linspace(0, 2 * np.pi, 90, endpoint=False)
    worst = 0.0
    for form in ("gcsie", "classical"):
        system = assemble(cfg, g, wave, form)
        rep = lu_solve(system.matrix, system.rhs)
        ff = far_field(system.split(rep.x), cfg, g, wave, th, formulation=form)
        worst = max(worst, float(np.abs(ff.values).max()))
    check(10, "null contrast (k1 = k2, nu = 1) radiates nothing", worst <= 1e-8,
          f"max |u_inf| {worst:.2e}")
