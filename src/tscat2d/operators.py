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
and the inner d/dtau, so no (2N)^3 product is formed.
KT comes from K by the adjoint identity: its kernel at (t, tau) is the K
kernel at (tau, t) times |x'(tau)|/|x'(t)|, and the rule is symmetric.
The kernel arguments k r form a symmetric matrix, which specfun evaluates
on one triangle.

By default every matrix is assembled on a once-refined grid and then
compressed back to the requested nodes by trigonometric interpolation
(``oversample=2``).  The same-grid rule is spectrally accurate on
densities resolved by the grid but degrades on the last few modes below
the Nyquist frequency; the refined rule keeps every representable mode
uniformly accurate, which matters once operators are composed into
products.  ``oversample=1`` gives the plain same-grid rule through the
same path, with the identity as prolongation.  Each fine matrix is
compressed as soon as it is built.  The compression and N's products
multiply a complex matrix by a real one; they run as one real product on a
float view of the complex factor, which halves their flops.  The tables
that depend only on the fine grid size (log factor, gathered weights,
derivative and prolongation matrices) are cached for the last size and
returned read-only.

Complex wavenumbers use the principal branch of the logarithm in the
split; Im k >= 0 is required.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import specfun
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
        self.diff = self.pos[:, None, :] - self.pos[None, :, :]
        r = np.sqrt(self.diff[..., 0] ** 2 + self.diff[..., 1] ** 2)
        np.fill_diagonal(r, 1.0)  # placeholder; diagonals are set analytically
        self.r = r
        z = k.real * r if k.imag == 0 else k * r  # real arguments take the Cephes path
        self.h = [specfun.hankel1(m, z) for m in (0, 1)]
        self.j = [specfun.bessel_j(m, z) for m in (0, 1)]
        self.logsin, self.log_weights = _log_split_tables(grid.n)
        self.trapz = grid.weight


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=1)
def _log_split_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """log(4 sin^2((t - tau)/2)) (0 on the diagonal) and the weights R_|i-j| on n nodes."""
    t = make_grid(n).nodes
    dt = t[:, None] - t[None, :]
    mask = ~np.eye(n, dtype=bool)
    logsin = np.log(4.0 * np.sin(dt / 2.0) ** 2, where=mask, out=np.zeros_like(dt))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return _read_only(logsin), _read_only(kress_log_weights(n // 2)[idx])


def _real_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for one complex and one real factor, as one real product.

    The complex factor is viewed as a real matrix whose columns interleave
    real and imaginary parts, which halves the flops of the complex product.
    A complex left factor goes through the transpose, a @ b = (b^T a^T)^T.
    """
    if np.iscomplexobj(a):
        return np.ascontiguousarray(_real_product(b.T, a.T).T)
    return (a @ np.ascontiguousarray(b).view(float)).view(complex)


def _kress_rule(data: _KernelData, order: int, g, m1_diag, m2_diag) -> np.ndarray:
    """Log-split rule for the kernel (i/4) H_order(k r) * g(t, tau).

    M1 = -(1/4pi) J_order(k r) g and M2 = full - M1 log(4 sin^2((t - tau)/2)),
    with the diagonals of M1 and M2 set to the given analytic limits.
    """
    m1 = -_INV_4PI * data.j[order] * g
    m2 = _QUARTER_I * data.h[order] * g - m1 * data.logsin
    np.fill_diagonal(m1, m1_diag)
    np.fill_diagonal(m2, m2_diag)
    return data.log_weights * m1 + data.trapz * m2


def _s_type_matrix(data: _KernelData, g, g_diag) -> np.ndarray:
    """Rule for (i/4) H_0(k r) * g: the r -> 0 limits of J_0 and of H_0 - J_0 log."""
    log_term = np.log(data.k * data.jac / 2.0) / (2.0 * np.pi)
    h0_limit = _QUARTER_I - specfun.EULER_GAMMA / (2.0 * np.pi) - log_term
    return _kress_rule(data, 0, g, -_INV_4PI * g_diag, h0_limit * g_diag)


def _k_matrix(data: _KernelData) -> np.ndarray:
    # kernel (i/4) H_1(k r) * k (x(t) - x(tau)) . nu(tau) / r with nu = n |x'|;
    # smooth diagonal limit (x1'' x2' - x2'' x1') / (4 pi |x'|^2)
    d, dd = data.d, data.dd
    dot = data.diff[..., 0] * d[None, :, 1] - data.diff[..., 1] * d[None, :, 0]
    diag = (dd[:, 0] * d[:, 1] - dd[:, 1] * d[:, 0]) * _INV_4PI / data.jac**2
    return _kress_rule(data, 1, data.k * dot / data.r, 0.0, diag)


def _compress(m: np.ndarray, p: np.ndarray, oversample: int) -> np.ndarray:
    """Every oversample-th row of a fine-grid matrix times the prolongation p."""
    return _real_product(m[::oversample], p)


def _n_matrix(data: _KernelData, p: np.ndarray, oversample: int) -> np.ndarray:
    """N on the kept rows [::oversample], times the prolongation p."""
    nn_jac = (data.nrm @ data.nrm.T) * data.jac[None, :]
    b = _compress(_s_type_matrix(data, nn_jac, data.jac), p, oversample)
    a = _s_type_matrix(data, 1.0, 1.0)
    dmat = spectral_derivative_matrix(data.grid.n)
    rows = slice(None, None, oversample)
    outer = _real_product(dmat[rows], _real_product(a, dmat @ p))
    return data.k**2 * b + outer / data.jac[rows, None]


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
        return _read_only(np.eye(n))
    big = factor * n
    half = n // 2
    c = np.fft.fft(np.eye(n), axis=0)
    spec = np.zeros((big, n), dtype=complex)
    spec[:half] = c[:half]
    spec[half] = 0.5 * c[half]
    spec[big - half] = 0.5 * c[half]
    spec[big - half + 1 :] = c[half + 1 :]
    return _read_only(np.real(np.fft.ifft(spec, axis=0)) * factor)


class BoundaryOperators(NamedTuple):
    """Nystrom matrices of S, K, KT and N for one wavenumber on one grid.

    s is the single layer (kernel (i/4) H_0(k|x - y|), with Jacobian), k
    the double layer (normal derivative at the source point), kt its
    adjoint (normal derivative at the target point) and n the
    hypersingular operator.  Acting on nodal values approximates the
    operator applied to the trigonometric interpolant of the density.
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
    p = prolongation_matrix(grid.n, oversample)
    s = _compress(_s_type_matrix(data, data.jac[None, :], data.jac), p, oversample)
    k_fine = _k_matrix(data)
    # adjoint identity: KT(t, tau) = K(tau, t) |x'(tau)| / |x'(t)|
    kt = _compress(k_fine.T * data.jac[None, :] / data.jac[:, None], p, oversample)
    k_mat = _compress(k_fine, p, oversample)
    del k_fine  # no fine matrix stays alive through N's fill, the peak of the set
    return BoundaryOperators(s, k_mat, kt, _n_matrix(data, p, oversample))


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
    return _read_only(col[idx])


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
