"""Nystrom assembly against analytic circle symbols and quadrature oracles.

On the circle every boundary operator is diagonal in the Fourier basis,
with symbols computable from Bessel/Hankel values; the assembled matrices
must reproduce them.  Reference values below were computed with mpmath
at 50 digits.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import special

from tscat2d import analytic, operators, specfun
from tscat2d.geometry import grid, make_circle, make_kite
from tscat2d.operators import (
    boundary_operator_set,
    fourier_coeffs,
    fourier_modes,
    kress_log_weights,
    prolongation_matrix,
    spectral_derivative,
    spectral_derivative_matrix,
)
from conftest import band_limited_density

# mpmath, dps=50, unit circle
S0_K1 = -0.10608219815307811436 + 0.91974444547346406613j
K0_K1 = -0.43899415242045974217 - 0.52892747727300770662j
N2_K1 = -0.83228007443897283870 + 0.06943293302748844301j
N0_K01 = 0.00506650990840197739 + 0.00003917183560520115j


def eigenvalue_on_mode(mat, nodes, n):
    e = np.exp(1j * n * nodes)
    lam = (mat @ e) / e
    assert np.ptp(np.abs(lam)) < 1e-9 * max(np.abs(lam).max(), 1.0)
    return lam.mean()


# ---------------------------------------------------------------------------
# log-quadrature rule
# ---------------------------------------------------------------------------
def test_kress_weights_sum_to_zero():
    # the log factor integrates to zero over a period
    assert abs(kress_log_weights(8).sum()) < 1e-13


def test_kress_weights_reject_small_n():
    with pytest.raises(ValueError):
        kress_log_weights(1)


def test_kress_rule_integrates_cos_against_log():
    # int_0^{2pi} cos(tau) log(4 sin^2(tau/2)) dtau = -2 pi
    # (mpmath adaptive quadrature: -6.2831853071795864769)
    n = 2
    r = kress_log_weights(n)
    t = np.pi * np.arange(2 * n) / n
    val = np.sum(r * np.cos(t))
    assert abs(val - (-2 * np.pi)) < 1e-13


def test_kress_rule_exact_on_degree_three():
    # int cos(3 tau) log(4 sin^2((t - tau)/2)) dtau = -(2 pi / 3) cos(3 t)
    n = 8
    r = kress_log_weights(n)
    t = np.pi * np.arange(2 * n) / n
    for i in (0, 3, 11):
        idx = np.abs(i - np.arange(2 * n))
        val = np.sum(r[idx] * np.cos(3 * t))
        assert abs(val - (-2 * np.pi / 3) * np.cos(3 * t[i])) < 1e-13


# ---------------------------------------------------------------------------
# circle symbols
# ---------------------------------------------------------------------------
def test_single_layer_constant_mode(op_cache):
    g = grid(64)
    s = op_cache("circle", 64, 1.0).s
    lam = eigenvalue_on_mode(s, g.nodes, 0)
    assert abs(lam - S0_K1) < 1e-10 * abs(S0_K1)


def test_single_layer_mode_four(op_cache):
    g = grid(128)
    s = op_cache("circle", 128, 2.0).s
    lam = eigenvalue_on_mode(s, g.nodes, 4)
    ref = analytic.circle_operator_symbol("S", 1.0, 2.0, 4)
    assert abs(lam - ref) < 1e-10 * abs(ref)


def test_single_layer_kernel_symmetry():
    # A_ij / |x'(t_j)| is symmetric for the S kernel
    k = make_kite()
    g = grid(96)
    s = boundary_operator_set(k, g, 2.0, oversample=1).s
    jac = k.jacobian(g.nodes)
    sym = s / jac[None, :]
    assert np.abs(sym - sym.T).max() < 1e-12


def test_double_layer_constant_mode(op_cache):
    g = grid(64)
    kk = op_cache("circle", 64, 1.0).k
    lam = eigenvalue_on_mode(kk, g.nodes, 0)
    assert abs(lam - K0_K1) < 1e-10


def test_double_layer_symbol_forms_agree():
    # 1/2 + (i pi k R/2) J_n H_n' equals -1/2 + (i pi k R/2) J_n' H_n
    z = 2.0
    for n in range(0, 12):
        j = specfun.bessel_j_seq(n + 1, z)
        h = specfun.hankel1_seq(n + 1, z)
        jp = specfun.derivative_seq(j, z)
        hp = specfun.derivative_seq(h, z)
        a = 0.5 + 1j * np.pi * z / 2 * j[n] * hp[n]
        b = -0.5 + 1j * np.pi * z / 2 * jp[n] * h[n]
        assert abs(a - b) < 1e-12


def test_k_and_kt_share_circle_symbols(op_cache):
    g = grid(128)
    ops = op_cache("circle", 128, 2.0)
    for n in (0, 1, 4, 8):
        e = np.exp(1j * n * g.nodes)
        assert np.linalg.norm(ops.k @ e - ops.kt @ e) <= 1e-10 * np.linalg.norm(e)


def target_normal_kt(curve, n, k, oversample):
    """KT assembled directly from its kernel -(ik/4) H_1(kr) (x(t)-x(tau)).n(t) |x'(tau)|/r."""
    fine = grid(oversample * n)
    t = fine.nodes
    pos, d, dd, jac = curve.x(t), curve.dx(t), curve.ddx(t), curve.jacobian(t)
    diff = pos[:, None, :] - pos[None, :, :]
    r = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(r, 1.0)
    off = ~np.eye(fine.n, dtype=bool)
    dt = t[:, None] - t[None, :]
    logsin = np.log(4.0 * np.sin(dt / 2.0) ** 2, where=off, out=np.zeros_like(dt))
    g = (diff[..., 0] * d[:, None, 1] - diff[..., 1] * d[:, None, 0]) / r
    g *= jac[None, :] / jac[:, None]
    m1 = k / (4 * np.pi) * specfun.bessel_j(1, k * r) * g
    m2 = -0.25j * k * specfun.hankel1(1, k * r) * g - m1 * logsin
    np.fill_diagonal(m1, 0.0)
    np.fill_diagonal(m2, (dd[:, 0] * d[:, 1] - dd[:, 1] * d[:, 0]) / (4 * np.pi * jac**2))
    idx = (np.arange(fine.n)[:, None] - np.arange(fine.n)[None, :]) % fine.n
    mat = kress_log_weights(fine.n // 2)[idx] * m1 + fine.weight * m2
    return (mat @ prolongation_matrix(n, oversample))[::oversample]


@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("k,tol", [(2.0, 1e-13), (4 + 2j, 1e-11)])
def test_kt_matches_target_normal_kernel_on_kite(k, tol, oversample):
    # KT comes from K by the adjoint identity; check it against its own kernel
    kite = make_kite()
    kt = boundary_operator_set(kite, grid(96), k, oversample=oversample).kt
    ref = target_normal_kt(kite, 96, k, oversample)
    assert np.abs(kt - ref).max() <= tol * np.abs(ref).max()


@pytest.mark.parametrize("oversample", [1, 2])
def test_real_wavenumber_set_matches_amos_kernels(monkeypatch, oversample):
    # real k takes the Cephes path for every kernel value; AMOS on complex arguments is the oracle
    kite, g = make_kite(), grid(64)
    fast = boundary_operator_set(kite, g, 8.0, oversample=oversample)
    monkeypatch.setattr(specfun, "hankel1", lambda n, z: special.hankel1(n, z.astype(complex)))
    monkeypatch.setattr(specfun, "bessel_j", lambda n, z: special.jv(n, z.astype(complex)))
    ref = boundary_operator_set(kite, g, 8.0, oversample=oversample)
    for tag, op, op_ref in zip(("s", "k", "kt", "n"), fast, ref):
        assert np.abs(op - op_ref).max() <= 1e-13 * np.abs(op_ref).max(), tag


def fine_kernel_matrices(curve, n, k):
    """Fine S, K, A and B on n nodes by the M1/M2 log split, whole matrices at a time.

    Each kernel (i/4) H_m(k r) g is split as M1 log(4 sin^2((t - tau)/2)) + M2
    with M1 = -(1/4 pi) J_m(k r) g and ruled as R_|i-j| M1 + (2 pi/n) M2.  The
    sum is grouped as M1 (R - (2 pi/n) log) + (2 pi/n) (i/4) H_m g, because at
    complex k the two log terms are large and nearly cancel.
    """
    fine = grid(n)
    t = fine.nodes
    pos, d, dd, jac, nrm = curve.x(t), curve.dx(t), curve.ddx(t), curve.jacobian(t), curve.normal(t)
    diff = pos[:, None, :] - pos[None, :, :]
    r = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(r, 1.0)
    off = ~np.eye(n, dtype=bool)
    dt = t[:, None] - t[None, :]
    logsin = np.log(4.0 * np.sin(dt / 2.0) ** 2, where=off, out=np.zeros_like(dt))
    weights = kress_log_weights(n // 2)
    log_rule = weights[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n] - fine.weight * logsin

    def rule(order, g, m1_diag, m2_diag):
        m1 = -specfun.bessel_j(order, k * r) * g / (4 * np.pi)
        mat = m1 * log_rule + fine.weight * 0.25j * specfun.hankel1(order, k * r) * g
        np.fill_diagonal(mat, weights[0] * m1_diag + fine.weight * m2_diag)
        return mat

    h0_limit = 0.25j - specfun.EULER_GAMMA / (2 * np.pi) - np.log(k * jac / 2) / (2 * np.pi)
    s = rule(0, jac[None, :], -jac / (4 * np.pi), h0_limit * jac)
    g_k = k * (diff[..., 0] * d[None, :, 1] - diff[..., 1] * d[None, :, 0]) / r
    k_fine = rule(1, g_k, 0.0, (dd[:, 0] * d[:, 1] - dd[:, 1] * d[:, 0]) / (4 * np.pi * jac**2))
    a = rule(0, 1.0, -1 / (4 * np.pi), h0_limit)
    b = rule(0, (nrm @ nrm.T) * jac[None, :], -jac / (4 * np.pi), h0_limit * jac)
    return s, k_fine, a, b, jac


@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("k", [8.0, 8 + 4j])
def test_hypersingular_kept_rows_match_full_product(k, oversample):
    # N applies d/dt on the kept rows only; the reference forms D A D on the whole fine grid
    kite, n = make_kite(), 64
    _, _, a, b, jac = fine_kernel_matrices(kite, oversample * n, k)
    dmat = spectral_derivative_matrix(oversample * n)
    full = k**2 * b + (dmat @ a @ dmat) / jac[:, None]
    ref = full[::oversample] @ prolongation_matrix(n, oversample)
    nn = boundary_operator_set(kite, grid(n), k, oversample=oversample).n
    assert np.abs(nn - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("k", [8.0, 8 + 4j])
def test_fft_compression_matches_dense_products(k, oversample):
    # the set compresses by FFT; the dense prolongation matrix is the oracle (for N, whose
    # derivatives are FFTs too, the dense derivative matrix is the oracle of the test above)
    kite, n = make_kite(), 64
    s, k_fine, _, _, jac = fine_kernel_matrices(kite, oversample * n, k)
    kt = k_fine.T * jac[None, :] / jac[:, None]
    ops = boundary_operator_set(kite, grid(n), k, oversample=oversample)
    for tag, op, fine in zip(("s", "k", "kt"), ops, (s, k_fine, kt)):
        ref = fine[::oversample] @ prolongation_matrix(n, oversample)
        assert np.abs(op - ref).max() <= 1e-13 * np.abs(ref).max(), tag


def _set_bytes(ops):
    return [(a.dtype, a.shape, a.tobytes()) for a in ops]


@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("k", [8.0, 8 + 4j])
@pytest.mark.parametrize("curve", ["kite", "circle"])
def test_banded_fill_bit_identical_to_one_worker(monkeypatch, curve, k, oversample):
    # N = 128 puts every fill, at both oversamples, above the banding threshold
    c, g = (make_kite() if curve == "kite" else make_circle(1.0)), grid(128)
    assert g.n * g.n >= operators._pool.MIN_ENTRIES
    default = boundary_operator_set(c, g, k, oversample=oversample)
    monkeypatch.setattr(operators._pool, "workers", lambda: 3)
    three = boundary_operator_set(c, g, k, oversample=oversample)
    monkeypatch.setattr(operators._pool, "workers", lambda: 1)
    one = boundary_operator_set(c, g, k, oversample=oversample)
    assert _set_bytes(default) == _set_bytes(one)
    assert _set_bytes(three) == _set_bytes(one)


def test_concurrent_sets_from_user_threads(monkeypatch):
    monkeypatch.setattr(operators._pool, "workers", lambda: 3)
    kite, g = make_kite(), grid(96)
    ks = [8.0, 8 + 4j, 8.0, 8 + 4j]
    ref = {k: _set_bytes(boundary_operator_set(kite, g, k)) for k in set(ks)}
    results = [None] * len(ks)

    def build(i):
        results[i] = _set_bytes(boundary_operator_set(kite, g, ks[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(len(ks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[i] == ref[k] for i, k in enumerate(ks))


def test_set_peak_memory_in_fine_tables(monkeypatch):
    # one cylinder order at a time: the argument k r, H_m and J_m are the only fine tables alive
    # together (3 complex tables at complex k); one worker runs each fill as one band
    monkeypatch.setattr(operators._pool, "workers", lambda: 1)
    kite, g = make_kite(), grid(256)
    boundary_operator_set(kite, g, 8 + 4j)  # caches the log-split table of the fine grid
    tracemalloc.start()
    try:
        boundary_operator_set(kite, g, 8 + 4j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * 512**2) <= 5.0  # complex (2N)^2 tables


def test_cached_grid_tables_are_read_only():
    tables = (operators._log_split_table(16), prolongation_matrix(8, 2), prolongation_matrix(8, 1),
              spectral_derivative_matrix(16))
    for table in tables:
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    assert spectral_derivative_matrix(16) is tables[-1]


def test_hypersingular_mode_two(op_cache):
    g = grid(128)
    nn = op_cache("circle", 128, 1.0).n
    lam = eigenvalue_on_mode(nn, g.nodes, 2)
    assert abs(lam - N2_K1) < 1e-9 * abs(N2_K1)


def test_hypersingular_small_wavenumber_constant(op_cache):
    g = grid(128)
    nn = op_cache("circle", 128, 0.1).n
    lam = eigenvalue_on_mode(nn, g.nodes, 0)
    assert abs(lam - N0_K01) < 1e-9


@pytest.mark.parametrize("k", [2.0, 4 + 2j])
# the ids predate the operator-set API and are kept so test names stay stable
@pytest.mark.parametrize("tag", ["S", "K", "KT", "N"], ids=lambda t: f"{t}-assemble_{t}")
def test_all_symbols_at_both_wavenumbers(tag, k, op_cache):
    g = grid(128)
    op = getattr(op_cache("circle", 128, k), tag.lower())
    for n in (0, 1, 4, 8, 16):
        lam = eigenvalue_on_mode(op, g.nodes, n)
        ref = analytic.circle_operator_symbol(tag, 1.0, k, n)
        assert abs(lam - ref) <= 1e-9 * max(abs(ref), 1e-3)


def test_rotation_invariance_off_mode_leakage(op_cache):
    g = grid(128)
    op = op_cache("circle", 128, 2.0).n
    for n in (0, 5, 16):
        e = np.exp(1j * n * g.nodes)
        out = fourier_coeffs(op @ e)
        modes = fourier_modes(128)
        leak = np.abs(out[modes != n]).max()
        assert leak < 1e-9


def test_wavenumber_validation():
    c = make_circle(1.0)
    g = grid(16)
    with pytest.raises(ValueError):
        boundary_operator_set(c, g, 0.0)
    with pytest.raises(ValueError):
        boundary_operator_set(c, g, 1 - 1j)
    with pytest.raises(ValueError, match="oversample"):
        boundary_operator_set(c, g, 1.0, oversample=0)


# ---------------------------------------------------------------------------
# Calderon identity and convergence
# ---------------------------------------------------------------------------
def test_calderon_identity_on_kite(op_cache):
    # || (S N + I/4 - K^2) phi || / ||phi|| for band-limited phi
    kap = 4 + 1j
    res = {}
    for n in (256, 512):
        s, kk, _, nn = op_cache("kite", n, kap)
        phi = band_limited_density(n, 64)
        res[n] = np.linalg.norm(s @ (nn @ phi) + 0.25 * phi - kk @ (kk @ phi)) / np.linalg.norm(phi)
    assert res[256] <= 1e-8
    assert res[256] / res[512] >= 1e2


def test_single_layer_spectral_convergence():
    # same-grid rule: value of (S phi)(t_0) for phi = e^{it} on the kite
    kite = make_kite()
    vals = {}
    for n in (64, 128, 512):
        g = grid(n)
        s = boundary_operator_set(kite, g, 2.0, oversample=1).s
        vals[n] = (s @ np.exp(1j * g.nodes))[0]
    e64 = abs(vals[64] - vals[512])
    e128 = abs(vals[128] - vals[512])
    assert e64 / e128 >= 1e2


def test_operator_difference_smoothing_orders(op_cache):
    # symbols of S_{k1} - S_{k2} and N_{k1} - N_{k2} measured on the
    # assembled matrices: fitted log-log slopes -3 and -1
    g = grid(160)
    k1, k2 = 2.0, 3 + 1j
    o1, o2 = op_cache("circle", 160, k1), op_cache("circle", 160, k2)
    mats = {"S": (o1.s, o2.s), "N": (o1.n, o2.n)}
    ns = np.arange(16, 65)
    for tag, target in (("S", -3.0), ("N", -1.0)):
        a, b = mats[tag]
        mags = []
        for n in ns:
            e = np.exp(1j * n * g.nodes)
            mags.append(np.abs(((a - b) @ e) / e).mean())
        slope = analytic.smoothing_order(list(zip(ns, mags)))
        assert slope <= target + 0.3


def test_mapping_order_slopes(op_cache):
    # |S_n| ~ 1/(2n), |N_n| ~ n/2, |K_n| = O(n^-3) at real k
    g = grid(160)
    o = op_cache("circle", 160, 2.0)
    ops = {"S": o.s, "K": o.k, "N": o.n}
    ns = np.arange(16, 65)
    for tag, target in (("S", -1.0), ("K", -3.0), ("N", 1.0)):
        mags = []
        for n in ns:
            e = np.exp(1j * n * g.nodes)
            mags.append(np.abs((ops[tag] @ e) / e).mean())
        slope = analytic.smoothing_order(list(zip(ns, mags)))
        assert abs(slope - target) <= 0.3
    # magnitude constants
    s64 = np.abs((ops["S"] @ np.exp(1j * 64 * g.nodes)) / np.exp(1j * 64 * g.nodes)).mean()
    n64 = np.abs((ops["N"] @ np.exp(1j * 64 * g.nodes)) / np.exp(1j * 64 * g.nodes)).mean()
    assert abs(s64 * 2 * 64 - 1.0) < 0.05
    assert abs(n64 / 32.0 - 1.0) < 0.05


# ---------------------------------------------------------------------------
# spectral differentiation and Fourier helpers
# ---------------------------------------------------------------------------
def test_spectral_derivative_cosine():
    g = grid(16)
    d = spectral_derivative(np.cos(g.nodes))
    assert np.abs(d + np.sin(g.nodes)).max() < 1e-13


def test_spectral_derivative_constant():
    assert np.abs(spectral_derivative(np.ones(32))).max() < 1e-13


def test_spectral_derivative_mode_five():
    g = grid(32)
    v = np.exp(5j * g.nodes)
    assert np.abs(spectral_derivative(v) - 5j * v).max() < 1e-12


def test_derivative_matrix_matches_fft():
    g = grid(24)
    d = spectral_derivative_matrix(24)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    assert np.abs(d @ v - spectral_derivative(v)).max() < 1e-12


def test_derivative_rejects_odd():
    with pytest.raises(ValueError):
        spectral_derivative(np.ones(15))
    with pytest.raises(ValueError):
        spectral_derivative_matrix(15)


def test_fourier_coeffs_single_mode():
    g = grid(16)
    c = fourier_coeffs(np.exp(3j * g.nodes))
    modes = fourier_modes(16)
    assert abs(c[modes == 3][0] - 1.0) < 1e-14
    assert np.abs(c[modes != 3]).max() < 1e-14


def test_fourier_coeffs_constant():
    c = fourier_coeffs(np.ones(8))
    assert abs(c[fourier_modes(8) == 0][0] - 1.0) < 1e-14


def test_parseval():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    c = fourier_coeffs(v)
    assert abs(np.sum(np.abs(c) ** 2) - np.mean(np.abs(v) ** 2)) < 1e-12
