"""Nystrom assembly of the four Helmholtz boundary operators on a curve.

All four operators (single layer S, double layer K, its adjoint KT, and
the hypersingular N) act on nodal values of densities on an equispaced
parameter grid.  The weakly singular kernels are split as

    M(t, tau) = M1(t, tau) * log(4 sin^2((t - tau)/2)) + M2(t, tau)

with M1, M2 smooth, and integrated with the global trigonometric
(Martensen-Kussmaul) rule: weights R_j for the log factor, the plain
trapezoid weight 2*pi/N for the smooth part.  One rule, for kernels
(i/4) H_m(k r) * g(t, tau) with m = 0 or 1, builds S, K and both S-type
parts of N.  The hypersingular operator is assembled from its
tangential-derivative form

    N = k^2 * B + (1/|x'|) d/dt o A o d/dtau,

where B is the S-type quadrature of the kernel with the n(t).n(tau)
factor and A the S-type quadrature without the arc-length Jacobian.
The outer d/dt is applied on the kept rows only, after the prolongation
and the inner d/dtau.
KT comes from K by the adjoint identity: its kernel at (t, tau) is the K
kernel at (tau, t) times |x'(tau)|/|x'(t)|, and the rule is symmetric.
The kernel arguments k r form a symmetric matrix, which specfun evaluates
on one triangle.  The distances r, the arguments k r, K's geometric factor
and the log-split rule are filled in row bands on the shared thread pool
(see ``_pool``), with the same arithmetic for every entry as a
whole-matrix evaluation, so the sets are bit-identical for any number of
threads.  S and the B part of N are filled only on the rows that
compression keeps.

By default every matrix is assembled on a once-refined grid and then
compressed back to the requested nodes by trigonometric interpolation
(``oversample=2``).  The same-grid rule is spectrally accurate on
densities resolved by the grid but degrades on the last few modes below
the Nyquist frequency; the refined rule keeps every representable mode
uniformly accurate, which matters once operators are composed into
products.  ``oversample=1`` gives the plain same-grid rule through the
same path, with the identity as prolongation.  Each fine matrix is
compressed as soon as it is built.  No dense product is formed: the
compression M[::oversample] P applies the transpose of the prolongation P
to each row by FFT (fine-grid coefficients folded to the coarse modes),
N's A D P is the same fold with the coefficients times i*m, and its outer
derivative on the kept rows is an FFT down each column, aliased onto the
coarse grid.  That is O(N^2 log N) a set where the products were O(N^3),
and the transforms run in bands on the pool too.  The results agree with
the dense ``prolongation_matrix`` and ``spectral_derivative_matrix``
products to rounding, within 1e-13 of the largest entry at real and
moderately complex k.  The tables that depend only on the fine grid size
(log factor, gathered weights, derivative symbol) are cached for the last
size and returned read-only.

Complex wavenumbers use the principal branch of the logarithm in the
split; Im k >= 0 is required.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import _pool, specfun
from ._memo import freeze
from .geometry import Curve, NodeGrid, grid as make_grid

_QUARTER_I = 0.25j
_INV_4PI = 1.0 / (4.0 * np.pi)

DEFAULT_OVERSAMPLE = 2


def kress_log_weights(n: int) -> np.ndarray:
    """Quadrature weights R_j for the log(4 sin^2((t - tau)/2)) factor.

    On the 2n-point grid t_j = pi*j/n,

        R_j = -(2*pi/n) * sum_{m=1}^{n-1} cos(m t_j)/m - (pi/n^2) cos(n t_j),

    and sum_j R_{|i-j|} f(t_j) integrates f against the log factor exactly
    for trigonometric polynomials f of degree < n.
    """
    if n < 2:
        raise ValueError(f"log-quadrature needs n >= 2, got {n}")
    t = np.pi * np.arange(2 * n) / n
    m = np.arange(1, n)
    r = -(2.0 * np.pi / n) * (np.cos(np.outer(t, m)) / m).sum(axis=1)
    return r - (np.pi / n**2) * np.cos(n * t)


def _check_wavenumber(k: complex) -> complex:
    k = complex(k)
    if k == 0:
        raise ValueError("wavenumber must be nonzero (Laplace limit not supported)")
    if k.imag < 0:
        raise ValueError("wavenumber must satisfy Im k >= 0")
    return k


class _KernelData:
    """Node geometry and cylinder-function values shared by all kernels."""

    def __init__(self, curve: Curve, grid: NodeGrid, k: complex):
        self.curve, self.grid, self.k = curve, grid, k
        t = grid.nodes
        self.pos = curve.x(t)
        self.d = curve.dx(t)
        self.dd = curve.ddx(t)
        self.jac = curve.jacobian(t)
        self.nrm = curve.normal(t)
        n = grid.n
        kz = k.real if k.imag == 0 else k  # real arguments take the Cephes path
        self.r = np.empty((n, n))
        z = np.empty((n, n), dtype=type(kz))

        def band(lo, hi):
            diff = self.pos[lo:hi, None, :] - self.pos[None, :, :]
            r = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2, out=self.r[lo:hi])
            r[np.arange(hi - lo), np.arange(lo, hi)] = 1.0  # placeholder; diagonals are set analytically
            np.multiply(kz, r, out=z[lo:hi])

        _pool.map_bands(band, n, n * n)
        self.h = [specfun.hankel1(m, z) for m in (0, 1)]
        self.j = [specfun.bessel_j(m, z) for m in (0, 1)]
        self.logsin, self.log_weights = _log_split_tables(n)
        self.trapz = grid.weight


@functools.lru_cache(maxsize=1)
def _log_split_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """log(4 sin^2((t - tau)/2)) (0 on the diagonal) and the weights R_|i-j| on n nodes."""
    t = make_grid(n).nodes
    dt = t[:, None] - t[None, :]
    mask = ~np.eye(n, dtype=bool)
    logsin = np.log(4.0 * np.sin(dt / 2.0) ** 2, where=mask, out=np.zeros_like(dt))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return freeze(logsin), freeze(kress_log_weights(n // 2)[idx])


def _per_row(x, rows: slice):
    """x[rows] for a table with one entry or row per node; x itself when it broadcasts."""
    return x[rows] if np.ndim(x) and len(x) > 1 else x


def _kress_rule(data: _KernelData, order: int, g, m1_diag, m2_diag, step: int = 1) -> np.ndarray:
    """Log-split rule for the kernel (i/4) H_order(k r) * g(t, tau), on the rows [::step].

    M1 = -(1/4pi) J_order(k r) g and M2 = full - M1 log(4 sin^2((t - tau)/2)),
    with the diagonals of M1 and M2 set to the given analytic limits.  g is
    a table or a function of a row slice that returns those rows of it.  The
    rows are filled in bands on the shared pool, each entry with the same
    arithmetic as a whole-matrix evaluation.
    """
    n = data.grid.n
    out = np.empty((len(range(0, n, step)), n), dtype=complex)

    def band(lo, hi):
        rows = slice(step * lo, step * hi, step)
        diag = (np.arange(hi - lo), np.arange(n)[rows])
        g_rows = g(rows) if callable(g) else _per_row(g, rows)
        m1 = -_INV_4PI * data.j[order][rows] * g_rows
        m2 = _QUARTER_I * data.h[order][rows] * g_rows - m1 * data.logsin[rows]
        m1[diag] = _per_row(m1_diag, rows)
        m2[diag] = _per_row(m2_diag, rows)
        w1 = data.log_weights[rows] * m1
        del m1  # freed before the second product, as a whole-matrix expression would free it
        np.add(w1, data.trapz * m2, out=out[lo:hi])

    _pool.map_bands(band, len(out), out.size)
    return out


def _s_type_matrix(data: _KernelData, g, g_diag, step: int = 1) -> np.ndarray:
    """Rule for (i/4) H_0(k r) * g: the r -> 0 limits of J_0 and of H_0 - J_0 log."""
    log_term = np.log(data.k * data.jac / 2.0) / (2.0 * np.pi)
    h0_limit = _QUARTER_I - specfun.EULER_GAMMA / (2.0 * np.pi) - log_term
    return _kress_rule(data, 0, g, -_INV_4PI * g_diag, h0_limit * g_diag, step)


def _k_matrix(data: _KernelData) -> np.ndarray:
    # kernel (i/4) H_1(k r) * k (x(t) - x(tau)) . nu(tau) / r with nu = n |x'|;
    # smooth diagonal limit (x1'' x2' - x2'' x1') / (4 pi |x'|^2)
    pos, d, dd = data.pos, data.d, data.dd

    def g(rows):
        diff = pos[rows, None, :] - pos[None, :, :]
        dot = diff[..., 0] * d[None, :, 1] - diff[..., 1] * d[None, :, 0]
        return data.k * dot / data.r[rows]

    diag = (dd[:, 0] * d[:, 1] - dd[:, 1] * d[:, 0]) * _INV_4PI / data.jac**2
    return _kress_rule(data, 1, g, 0.0, diag)


@functools.lru_cache(maxsize=1)
def _derivative_symbol(n: int) -> np.ndarray:
    """i*m for the modes m of an n-point FFT, with the Nyquist mode set to 0 (read-only)."""
    m = np.arange(n)
    m[n // 2 :] -= n
    m[n // 2] = 0
    return freeze(1j * m)


def _compress(fine: np.ndarray, n: int, derivative: bool = False) -> np.ndarray:
    """fine @ P, or fine @ D @ P, by FFT along the rows.

    P = prolongation_matrix(n, fine.shape[1] // n) and D is the fine grid's
    spectral_derivative_matrix.  Each row's fine-grid Fourier coefficients
    (times i*m for the derivative) are folded to n modes, the transpose of
    the prolongation's embedding: modes below n/2 are kept and the +-n/2
    pair is averaged, its even Nyquist split.  The folded coefficients are
    transformed back on the n nodes.  Without the derivative, P is the
    identity on one grid and fine is returned.  Rows run in bands on the
    shared pool.
    """
    big = fine.shape[1]
    if big == n and not derivative:
        return fine
    half = n // 2
    sym = _derivative_symbol(big)
    out = np.empty((len(fine), n), dtype=complex)

    def band(lo, hi):
        # unscaled inverse, then 1/n in the forward transform: the factor big/n of P over big
        c = np.fft.ifft(fine[lo:hi], axis=1, norm="forward")
        low, high = c[:, : half + 1], c[:, big - half :]  # modes 0..n/2 and -n/2..-1
        if derivative:
            low, high = low * sym[: half + 1], high * sym[big - half :]
        nyquist = 0.5 * (low[:, half:] + high[:, :1])
        folded = np.concatenate((low[:, :half], nyquist, high[:, 1:]), axis=1)
        out[lo:hi] = np.fft.fft(folded, axis=1, norm="forward")

    _pool.map_bands(band, len(fine), fine.size)
    return out


def _derivative_on_kept_rows(y: np.ndarray, oversample: int) -> np.ndarray:
    """(D @ y)[::oversample] for the spectral derivative D on y's rows, by FFT down the columns.

    On the kept nodes the fine modes that differ by a multiple of the coarse
    size coincide, so the derivative's coefficients are summed over those
    aliases and transformed on the coarse grid.  Columns run in bands on
    the shared pool.
    """
    big, ncols = y.shape
    n = big // oversample
    sym = _derivative_symbol(big)[:, None]
    out = np.empty((n, ncols), dtype=complex)

    def band(lo, hi):
        c = np.fft.fft(y[:, lo:hi], axis=0, norm="forward") * sym
        aliased = c.reshape(oversample, n, hi - lo).sum(axis=0)
        out[:, lo:hi] = np.fft.ifft(aliased, axis=0, norm="forward")

    _pool.map_bands(band, ncols, y.size)
    return out


def _n_matrix(data: _KernelData, n: int, oversample: int) -> np.ndarray:
    """N on the kept rows [::oversample], compressed to n nodes."""
    def nn_jac(rows):
        return (data.nrm[rows] @ data.nrm.T) * data.jac[None, :]

    b = _compress(_s_type_matrix(data, nn_jac, data.jac, oversample), n)
    a_dp = _compress(_s_type_matrix(data, 1.0, 1.0), n, derivative=True)
    outer = _derivative_on_kept_rows(a_dp, oversample)
    return data.k**2 * b + outer / data.jac[::oversample, None]


@functools.lru_cache(maxsize=1)
def prolongation_matrix(n: int, factor: int) -> np.ndarray:
    """Trigonometric interpolation from n nodes to factor*n nodes.

    The Nyquist coefficient is split evenly between +-n/2, matching the
    real cosine convention of the even-n interpolant.  The matrix is cached
    for the last (n, factor) and returned read-only.
    """
    if n % 2 != 0:
        raise ValueError(f"interpolation needs even n, got {n}")
    if factor < 1:
        raise ValueError(f"refinement factor must be >= 1, got {factor}")
    if factor == 1:
        return freeze(np.eye(n))
    big = factor * n
    half = n // 2
    c = np.fft.fft(np.eye(n), axis=0)
    spec = np.zeros((big, n), dtype=complex)
    spec[:half] = c[:half]
    spec[half] = 0.5 * c[half]
    spec[big - half] = 0.5 * c[half]
    spec[big - half + 1 :] = c[half + 1 :]
    return freeze(np.real(np.fft.ifft(spec, axis=0)) * factor)


class BoundaryOperators(NamedTuple):
    """Nystrom matrices of S, K, KT and N for one wavenumber on one grid.

    s is the single layer (kernel (i/4) H_0(k|x - y|), with Jacobian), k
    the double layer (normal derivative at the source point), kt its
    adjoint (normal derivative at the target point) and n the
    hypersingular operator.  Acting on nodal values approximates the
    operator applied to the trigonometric interpolant of the density.
    ``boundary_operator_set`` returns the four matrices read-only, so that
    what is composed from them can be reused while they live.
    """

    s: np.ndarray
    k: np.ndarray
    kt: np.ndarray
    n: np.ndarray


def boundary_operator_set(
    curve: Curve, grid: NodeGrid, k: complex, oversample: int = DEFAULT_OVERSAMPLE
) -> BoundaryOperators:
    """Assemble S, K, KT and N for one wavenumber, sharing the kernel data.

    Each fine-grid matrix is compressed to its every oversample-th row times
    the trigonometric prolongation.
    """
    k = _check_wavenumber(k)
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    data = _KernelData(curve, make_grid(oversample * grid.n), k)
    rows = slice(None, None, oversample)  # compression uses these rows only
    s = _compress(_s_type_matrix(data, data.jac[None, :], data.jac, oversample), grid.n)
    k_fine = _k_matrix(data)
    # adjoint identity: KT(t, tau) = K(tau, t) |x'(tau)| / |x'(t)|
    kt = _compress(k_fine.T[rows] * data.jac[None, :] / data.jac[rows, None], grid.n)
    k_mat = _compress(k_fine[rows], grid.n)
    del k_fine  # no fine matrix stays alive through N's fill, the peak of the set
    return BoundaryOperators(*map(freeze, (s, k_mat, kt, _n_matrix(data, grid.n, oversample))))


@functools.lru_cache(maxsize=1)
def spectral_derivative_matrix(n: int) -> np.ndarray:
    """Differentiation matrix of the trigonometric interpolant (even n).

    Exact for modes |m| < n/2; the Nyquist mode is mapped to zero, which
    keeps the matrix real.  The matrix is cached for the last n and
    returned read-only.
    """
    if n % 2 != 0:
        raise ValueError(f"spectral differentiation needs even n, got {n}")
    j = np.arange(n)
    col = np.zeros(n)
    col[1:] = 0.5 * (-1.0) ** j[1:] / np.tan(np.pi * j[1:] / n)
    idx = (j[:, None] - j[None, :]) % n
    return freeze(col[idx])


def spectral_derivative(density: np.ndarray) -> np.ndarray:
    """d/dt of the trigonometric interpolant of nodal values (FFT based)."""
    density = np.asarray(density)
    n = density.shape[-1]
    if n % 2 != 0:
        raise ValueError(f"spectral differentiation needs even n, got {n}")
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    freqs[n // 2] = 0.0  # Nyquist mode dropped
    return np.fft.ifft(1j * freqs * np.fft.fft(density))


def fourier_modes(n: int) -> np.ndarray:
    """Mode numbers -n/2 .. n/2 - 1 matching fourier_coeffs ordering."""
    return np.arange(-(n // 2), (n + 1) // 2)


def fourier_coeffs(density: np.ndarray) -> np.ndarray:
    """Discrete Fourier coefficients c_m, ordered m = -n/2 .. n/2 - 1."""
    density = np.asarray(density)
    n = density.shape[-1]
    return np.fft.fftshift(np.fft.fft(density)) / n
