"""Nystrom assembly against analytic circle symbols and quadrature oracles.

On the circle every boundary operator is diagonal in the Fourier basis,
with symbols computable from Bessel/Hankel values; the assembled matrices
must reproduce them.  Reference values below were computed with mpmath
at 50 digits.
"""

import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import special

from tscat2d import analytic, operators, specfun
from tscat2d._memo import is_frozen
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
from conftest import CephesRecorder, band_limited_density

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


@pytest.mark.parametrize("n", [2, 3, 64, 1024])
def test_kress_log_weights_are_exact_to_rounding(n):
    # against the defining sum at 40 digits: every j up to n = 64, 64 spread j at n = 1024
    r = kress_log_weights(n)
    js = range(2 * n) if n <= 64 else np.linspace(0, 2 * n - 1, 64).astype(int).tolist()
    with mpmath.workdps(40):
        cos = [mpmath.cospi(mpmath.mpf(q) / n) for q in range(2 * n)]  # cos(m t_j) = cos[m j mod 2n]
        inv = [None] + [1 / mpmath.mpf(m) for m in range(1, n)]
        for j in js:
            ref = -(2 * mpmath.pi / n) * mpmath.fsum(cos[m * j % (2 * n)] * inv[m] for m in range(1, n))
            ref -= mpmath.pi / n**2 * cos[n * j % (2 * n)]
            assert abs(r[j] - float(ref)) <= 2 * np.finfo(float).eps * np.abs(r).max(), j


def test_kress_log_weights_never_form_the_cosine_table():
    # the whole 4096 x 2047 table and its quotient would be 134 MB at n = 2048
    tracemalloc.start()
    try:
        kress_log_weights(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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


def window(dist, cutoff):
    """The log-split window: f(x) / (f(x) + f(1 - x)), f(x) = exp(-1/x), x = 2 - 2 dist/cutoff in [0, 1]."""
    x = np.clip(2.0 - 2.0 * dist / cutoff, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        f, f_mirror = np.exp(-1.0 / x), np.exp(-1.0 / (1.0 - x))
    return f / (f + f_mirror)


def log_split_window(n, k, jac):
    """chi(t - tau) on n nodes: 1 at real k, else the window of cutoff b = min(pi, 10 / (Im k max|x'|)).

    Its argument is the periodic parameter distance, taken whole-matrix from the index difference.
    """
    if complex(k).imag == 0:
        return 1.0
    m = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return window(2 * np.pi * np.minimum(m, n - m) / n, min(np.pi, 10.0 / (complex(k).imag * jac.max())))


def target_normal_kt(curve, n, k, oversample):
    """KT assembled directly from its kernel -(ik/4) H_1(kr) (x(t)-x(tau)).n(t) |x'(tau)|/r.

    The split's M1 carries the log-split window, so the rule is the windowed one at complex k.
    """
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
    m1 = log_split_window(fine.n, k, jac) * (k / (4 * np.pi)) * specfun.bessel_j(1, k * r) * g
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
    monkeypatch.setattr(specfun, "hankel1", lambda n, arg: special.hankel1(n, arg.k * arg.r + 0j))
    monkeypatch.setattr(specfun, "bessel_j", lambda n, arg: special.jv(n, arg.k * arg.r + 0j))
    ref = boundary_operator_set(kite, g, 8.0, oversample=oversample)
    for tag, op, op_ref in zip(("s", "k", "kt", "n"), fast, ref):
        assert np.abs(op - op_ref).max() <= 1e-13 * np.abs(op_ref).max(), tag


@pytest.mark.parametrize("curve,k", [(make_kite(), 8 + 4j), (make_circle(1.0), 20 + 10j)], ids=["kite", "circle"])
def test_complex_wavenumber_set_matches_one_on_entrywise_amos(monkeypatch, curve, k):
    # the ray table against AMOS on every entry of the triangle, refused by a table share no argument
    # reaches; largest entry difference over a matrix's largest entry before the table was indexed by r:
    # 1.55e-15 (kite, K^T) and 1.04e-15 (circle, K)
    g = grid(256)
    fast = boundary_operator_set(curve, g, k)
    monkeypatch.setattr(specfun, "_RAY_MIN_SHARE", 1 << 60)
    ref = boundary_operator_set(curve, g, k)
    for tag, op, op_ref in zip(("s", "k", "kt", "n"), fast, ref):
        assert not np.array_equal(op, op_ref), tag
        assert np.abs(op - op_ref).max() <= 3e-15 * np.abs(op_ref).max(), tag


def fine_kernel_matrices(curve, n, k):
    """Fine S, K, A and B on n nodes by the M1/M2 log split, whole matrices at a time.

    Each kernel (i/4) H_m(k r) g is split as M1 log(4 sin^2((t - tau)/2)) + M2
    with M1 = -(1/4 pi) chi J_m(k r) g, chi the log-split window, and ruled as
    R_|i-j| M1 + (2 pi/n) M2.  The sum is grouped as M1 (R - (2 pi/n) log) +
    (2 pi/n) (i/4) H_m g, because at complex k the two log terms are large and
    nearly cancel.
    """
    fine = grid(n)
    t = fine.nodes
    pos, d, dd, jac, nrm = curve.x(t), curve.dx(t), curve.ddx(t), curve.jacobian(t), curve.normal(t)
    diff = pos[:, None, :] - pos[None, :, :]
    r = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(r, 1.0)
    # the log factor and the weights from the index difference m = (i - j) mod n, at min(m, n - m)
    m = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    m = np.minimum(m, n - m)
    logsin = np.log(4.0 * np.sin(np.pi * m / n) ** 2, where=m != 0, out=np.zeros((n, n)))
    weights = kress_log_weights(n // 2)
    log_rule = (weights[m] - fine.weight * logsin) * log_split_window(n, k, jac)

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
@pytest.mark.parametrize("k", [8.0, 8 + 4j, 20 + 10j])
def test_fft_compression_matches_dense_products(k, oversample):
    # the set compresses by FFT; the dense prolongation matrix is the oracle (for N, whose
    # derivatives are FFTs too, the dense derivative matrix is the oracle of the test above);
    # at 20+10i the unwindowed split left entries of e^20 eps in the fine rows
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
    # N = 128 and 130 put every fill, at both oversamples, above the threshold of the pool; at
    # N = 130 the blocks of 1, 2 and 3 workers hold different row counts
    c = make_kite() if curve == "kite" else make_circle(1.0)
    for n in (128, 130):
        g = grid(n)
        assert g.n * g.n >= operators._pool.MIN_ENTRIES
        with monkeypatch.context() as patch:
            default = boundary_operator_set(c, g, k, oversample=oversample)
            sets = []
            for workers in (3, 2, 1):
                patch.setattr(operators._pool, "workers", lambda: workers)
                sets.append(boundary_operator_set(c, g, k, oversample=oversample))
        one = _set_bytes(sets[-1])
        assert _set_bytes(default) == one
        assert all(_set_bytes(s) == one for s in sets)


@pytest.mark.parametrize(
    "workers", [None, 1, 2, 3], ids=["default-pool", "one-worker", "two-workers", "three-workers"]
)
@pytest.mark.parametrize("k", [8.0, 8 + 4j])
def test_set_bit_identical_with_the_argument_memo_bypassed(monkeypatch, k, workers):
    # the J_m that hankel1(m, .) leaves on the kernel argument is never kept: bessel_j evaluates its own
    if workers is not None:
        monkeypatch.setattr(operators._pool, "workers", lambda: workers)
    kite, g = make_kite(), grid(128)
    kept = boundary_operator_set(kite, g, k)
    hankel1 = specfun.hankel1

    def no_hand_off(n, arg):
        h = hankel1(n, arg)
        arg._j.clear()
        return h

    monkeypatch.setattr(specfun, "hankel1", no_hand_off)
    assert _set_bytes(boundary_operator_set(kite, g, k)) == _set_bytes(kept)


@pytest.mark.parametrize("k", [8.0, 8 + 4j])
def test_one_argument_scan_per_set(monkeypatch, k):
    # the kernel argument is checked once, when it is built; no call scans an argument array
    built, scans = [], []
    argument, extremes = specfun.KernelArgument, specfun._extremes

    class Recorded(argument):
        def __init__(self, k, points):
            super().__init__(k, points)
            built.append(self.shape)

    monkeypatch.setattr(specfun, "KernelArgument", Recorded)
    monkeypatch.setattr(specfun, "_extremes", lambda z: scans.append(z.shape) or extremes(z))
    boundary_operator_set(make_kite(), grid(64), k)
    assert built == [(128, 128)] and scans == []


def test_real_set_evaluates_each_cephes_function_once_per_order(monkeypatch):
    # J_m of k r comes from hankel1(m, .), and bessel_j(m, .) takes it over
    j, y = ([CephesRecorder(f) for f in fs] for fs in (specfun._CEPHES_J, specfun._CEPHES_Y))
    monkeypatch.setattr(specfun, "_CEPHES_J", tuple(j))
    monkeypatch.setattr(specfun, "_CEPHES_Y", tuple(y))
    boundary_operator_set(make_kite(), grid(128), 8.0)
    assert [sum(r.sizes) for r in j + y] == [256 * 257 // 2] * 4  # one triangle each


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
    # one cylinder order at a time: the distances r, H_m and J_m are the only fine tables alive
    # together (2.5 complex tables); one worker runs each fill block by block on the caller
    monkeypatch.setattr(operators._pool, "workers", lambda: 1)
    kite, g = make_kite(), grid(256)
    boundary_operator_set(kite, g, 8 + 4j)  # caches the log-split table of the fine grid
    tracemalloc.start()
    try:
        boundary_operator_set(kite, g, 8 + 4j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * 512**2) <= 4.0  # complex (2N)^2 tables


def log_split_column_mpmath(n):
    """c[m] = (R_m - (2 pi/n) log(4 sin^2(pi m/n))) / (4 pi) for m = 0 .. n/2, the log taken as 0 at m = 0.

    R is the Kress weight on n nodes, summed as in ``kress_log_weights``
    with cos(2 pi l m/n) reduced exactly to the index (l m) mod n.
    """
    with mpmath.workdps(40):
        half, pi = n // 2, mpmath.pi
        cos = [mpmath.cos(2 * pi * p / n) for p in range(n)]
        column = []
        for m in range(half + 1):
            r = -(2 * pi / half) * mpmath.fsum(cos[(l * m) % n] / l for l in range(1, half)) \
                - (pi / half**2) * (-1) ** m
            log = mpmath.log(4 * mpmath.sin(pi * m / n) ** 2) if m else 0
            column.append(float((r - (2 * pi / n) * log) / (4 * pi)))
    return np.array(column)


@pytest.mark.parametrize("n", [16, 512])
def test_log_split_table_is_an_exact_symmetric_circulant(n):
    table = operators._log_split_table(n)
    column = np.array(table[:, 0])
    i = np.arange(n)
    assert np.array_equal(table, table.T)
    assert np.array_equal(table, column[(i[:, None] - i[None, :]) % n])
    ref = log_split_column_mpmath(n)
    assert np.abs(column[: n // 2 + 1] - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("cutoff", [0.3, np.pi])
def test_windowed_log_split_table_is_the_column_times_the_window(cutoff):
    n = 512
    plain, table = operators._log_split_table(n), operators._log_split_table(n, cutoff)
    column, i = np.array(table[:, 0]), np.arange(n)
    assert np.array_equal(table, table.T)
    assert np.array_equal(table, column[(i[:, None] - i[None, :]) % n])
    dist = 2 * np.pi * np.minimum(i, n - i) / n
    inner = dist <= cutoff / 2
    assert np.array_equal(column[inner], plain[inner, 0])  # 1 up to b/2, bit for bit
    assert not column[dist >= cutoff].any()  # 0 from b
    ramp = ~inner & (dist < cutoff)
    assert ramp.sum() >= 20
    chi = column[ramp] / plain[ramp, 0]
    assert np.abs(chi - window(dist[ramp], cutoff)).max() <= 4 * np.finfo(float).eps
    assert is_frozen(table) and operators._log_split_table(n) is plain


def test_sets_read_the_plain_table_at_real_k_and_a_windowed_one_at_complex_k(monkeypatch):
    # b = min(pi, L / (Im k max|x'|)) with L = 10, on the fine grid's |x'|
    calls, table = [], operators._log_split_table
    monkeypatch.setattr(operators, "_log_split_table", lambda n, b: calls.append((n, b)) or table(n, b))
    kite = make_kite()
    for k in (8.0, 8 + 4j, 8 + 0.5j):
        boundary_operator_set(kite, grid(32), k)
    max_jac = kite.jacobian(grid(64).nodes).max()
    assert calls == [(64, None), (64, pytest.approx(10.0 / (4.0 * max_jac))), (64, np.pi)]


def test_cached_grid_tables_are_read_only():
    tables = (operators._log_split_table(16), prolongation_matrix(8, 2), prolongation_matrix(8, 1),
              spectral_derivative_matrix(16))
    for table in tables:
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    assert all(map(is_frozen, tables))
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
    for bad in (0, 1.5, 2.0):
        with pytest.raises(ValueError, match="oversample"):
            boundary_operator_set(c, g, 1.0, oversample=bad)
    assert boundary_operator_set(c, g, 1.0, oversample=np.int64(2)).s.shape == (16, 16)


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
