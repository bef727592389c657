"""Nystrom assembly of the four Helmholtz boundary operators on a curve.

All four operators (single layer S, double layer K, its adjoint KT, and
the hypersingular N) act on nodal values of densities on an equispaced
parameter grid.  The weakly singular kernels are split as

    M(t, tau) = M1(t, tau) * log(4 sin^2((t - tau)/2)) + M2(t, tau)

with M1, M2 smooth, and integrated with the global trigonometric
(Martensen-Kussmaul) rule: weights R_j for the log factor, the plain
trapezoid weight w = 2*pi/n for the smooth part.  R comes from one real
FFT and is exact to rounding: within 0.7 eps max|R| of a 40-digit sum for
n up to 1024.  Every kernel here is (i/4) H_m(k r) * g(t, tau) with m = 0
or 1 and g smooth, and its M1 is -(1/4pi) J_m(k r) g, so the rule is one
table per cylinder order times g:

    T_m = (i/4) w H_m(k r) - D o J_m(k r),
    D = chi(t - tau) (R_|i-j| - w log(4 sin^2((t - tau)/2))) / (4 pi),

with o the entrywise product and the diagonal set to the analytic limit.
At real k, chi = 1.  At complex k, J_m(k r) grows like exp(Im k r), and
split everywhere it would leave eps times that growth in the set, so chi
is a C-infinity window of the periodic parameter distance, 1 up to b/2
and 0 from b = min(pi, L / (Im k max|x'|)), L = 10: the split is kept
where Im k r <= L, and beyond b the smooth kernel takes the trapezoid
rule (a partition of unity as in Bruno & Kunyansky, J. Comput. Phys.
169, 2001).  D is the symmetric circulant D[i, j] = c[(i - j) mod n]:

    c[m] = chi(2 pi m'/n) (R_m' - w log(4 sin^2(pi m'/n))) / (4 pi),   m' = min(m, n - m),

the log taken from the index difference rather than from two rounded
nodes, so D is exact to rounding and symmetric bit for bit, and is held
as that one column.  T1 o g is K; T0 o g is S, and the two
S-type parts of the hypersingular operator, assembled from its
tangential-derivative form

    N = k^2 * B + (1/|x'|) d/dt o A o d/dtau,

where B has the n(t).n(tau) factor and A no arc-length Jacobian (A is
T0 itself).  T0's diagonal is -R_0/(4 pi) + w h0, with h0 the t -> tau
limit of M2/g for H_0, and the diagonal of T0 o g is T0's times g's.  K's
diagonal is w times its smooth curvature limit.  The outer d/dt is
applied on the kept rows only, after the prolongation and the inner
d/dtau.
KT comes from K by the adjoint identity: its kernel at (t, tau) is the K
kernel at (tau, t) times |x'(tau)|/|x'(t)|, and the rule is symmetric.

A set is built one order at a time.  H_1 and J_1 of the argument k r
make T1, written over the H_1 array; K is formed over T1, K and KT are
compressed, and T1 is freed.  Then H_0 and J_0 make T0 over the H_0 array
(the argument is freed first), and S, B and A are compressed from it.  At
most three fine (2N)^2 arrays live at once: the real distances r, H_m and
J_m.  The argument is a ``specfun.KernelArgument`` of k and the fine
nodes, which fills r once, on one triangle, for the four calls.  specfun
forms k r from r block by block and evaluates it on one triangle, and at
real k bessel_j(m, .) takes over the J_m that hankel1(m, .) left on it.
K's geometric factor divides by the argument's r.  The distances, the
tables T_m with that factor and the compressions are filled in blocks of
rows of a few ten thousand entries, dealt to the caller's thread and the
shared thread pool (see ``_pool``), with the same arithmetic for every
entry as a whole-matrix evaluation, so the sets are bit-identical for any
number of threads.  S and the B part of N are taken only on the rows
that compression keeps.

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
N's A d/dtau P is the same fold with the coefficients times i*m, and its outer
derivative on the kept rows is an FFT down each column, aliased onto the
coarse grid.  That is O(N^2 log N) a set where the products were O(N^3),
and the transforms run in blocks on the pool too.  The results agree with
the dense ``prolongation_matrix`` and ``spectral_derivative_matrix``
products to rounding, within 1e-13 of the largest entry at real and
complex k.  The tables that depend only on the fine grid size
(D, a read-only strided view of its column, and the derivative symbol)
are cached and returned read-only.

Complex wavenumbers use the principal branch of the logarithm in the
split; Im k >= 0 is required.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import _pool, specfun
from ._memo import freeze
from .geometry import Curve, NodeGrid, grid as make_grid, is_integer

_QUARTER_I = 0.25j
_INV_4PI = 1.0 / (4.0 * np.pi)
_LOG_SPLIT_GROWTH = 10.0  # L of the window cutoff b = min(pi, L / (Im k max|x'|)) at complex k

DEFAULT_OVERSAMPLE = 2


def kress_log_weights(n: int) -> np.ndarray:
    """Quadrature weights R_j for the log(4 sin^2((t - tau)/2)) factor.

    On the 2n-point grid t_j = pi*j/n,

        R_j = -(2*pi/n) * sum_{m=1}^{n-1} cos(m t_j)/m - (pi/n^2) cos(n t_j),

    and sum_j R_{|i-j|} f(t_j) integrates f against the log factor exactly
    for trigonometric polynomials f of degree < n.  The cosine sums are the
    real part of one FFT of 1/m of length 2n, mirrored so that R_j = R_{2n-j}
    bit for bit, and cos(n t_j) = (-1)^j.
    """
    if n < 2:
        raise ValueError(f"log-quadrature needs n >= 2, got {n}")
    inv_m = np.zeros(2 * n)
    inv_m[1:n] = 1.0 / np.arange(1, n)
    sums = np.fft.rfft(inv_m).real  # j = 0..n
    sums = np.concatenate((sums, sums[n - 1 : 0 : -1]))
    return -(2.0 * np.pi / n) * sums - (np.pi / n**2) * (-1.0) ** np.arange(2 * n)


def _check_wavenumber(k: complex) -> complex:
    k = complex(k)
    if k == 0:
        raise ValueError("wavenumber must be nonzero (Laplace limit not supported)")
    if k.imag < 0:
        raise ValueError("wavenumber must satisfy Im k >= 0")
    return k


class _Nodes:
    """Node geometry of the fine grid, shared by all kernels."""

    def __init__(self, curve: Curve, grid: NodeGrid, k: complex):
        self.n, self.k = grid.n, k
        t = grid.nodes
        self.points = curve.x(t)
        self.x, self.y = np.ascontiguousarray(self.points.T)
        self.d = curve.dx(t)
        self.dd = curve.ddx(t)
        self.jac = curve.jacobian(t)
        self.nrm = curve.normal(t)
        self.trapz = grid.weight

    def differences(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """The parts of x(t) - x(tau) on the given rows."""
        return self.x[rows, None] - self.x[None, :], self.y[rows, None] - self.y[None, :]

    def double_layer(self, rows: slice, r: np.ndarray) -> np.ndarray:
        """k (x(t) - x(tau)) . nu(tau) / r on the given rows of r, nu = n |x'| (K's factor of (i/4) H_1)."""
        dx, dy = self.differences(rows)
        dot = dx * self.d[None, :, 1] - dy * self.d[None, :, 0]
        return self.k * dot / r[rows]

    def normal_products(self, rows: slice) -> np.ndarray:
        """n(t) . n(tau) |x'(tau)| on the given rows (B's factor of (i/4) H_0).

        The dot product is written out, not a BLAS product, whose rounding
        can depend on the number of rows, so every block rounds alike.
        """
        nrm = self.nrm
        dot = nrm[rows, 0, None] * nrm[None, :, 0] + nrm[rows, 1, None] * nrm[None, :, 1]
        return dot * self.jac[None, :]


def _window(dist: np.ndarray, cutoff: float) -> np.ndarray:
    """The C-infinity step of a distance, 1 up to cutoff/2 and 0 from cutoff.

    It is f(x) / (f(x) + f(1 - x)) with f(x) = exp(-1/x) and x = 2 - 2 dist/cutoff clipped to [0, 1].
    Bruno & Kunyansky's steeper exp(2 e^(-1/u)/(u - 1)) cost gcsie-explicit 0.8 digit (circle, 20+10i).
    """
    x = np.clip(2.0 - 2.0 * dist / cutoff, 0.0, 1.0)
    with np.errstate(divide="ignore"):  # f(0) = 0, its limit
        f, f_mirror = np.exp(-1.0 / x), np.exp(-1.0 / (1.0 - x))
    return f / (f + f_mirror)


@functools.lru_cache(maxsize=2)
def _log_split_table(n: int, cutoff: float | None = None) -> np.ndarray:
    """D on n nodes, D[i, j] = c[(i - j) mod n], as a read-only strided view of its column c.

    c[m] = (R_m' - (2 pi/n) log(4 sin^2(pi m'/n))) / (4 pi) with
    m' = min(m, n - m), so c[m] and c[n - m] are the same number; the log
    factor is 0 at m = 0, where c is R_0/(4 pi).  A cutoff b windows c
    (complex k); the unwindowed table (real k) is cached beside the last windowed one.
    """
    m = np.minimum(np.arange(n), n - np.arange(n))
    logsin = np.log(4.0 * np.sin(np.pi * m / n) ** 2, where=m > 0, out=np.zeros(n))
    column = (kress_log_weights(n // 2)[m] - (2.0 * np.pi / n) * logsin) * _INV_4PI
    if cutoff is not None:
        column *= _window(2.0 * np.pi * m / n, cutoff)
    # frozen first: freeze stops at the non-array base of the view. Its rows, read from n
    # down, are c[(j - i) mod n], which is c[(i - j) mod n] as c is symmetric
    doubled = freeze(np.concatenate((column, column)))
    return np.lib.stride_tricks.sliding_window_view(doubled, n)[n:0:-1]


def _log_split(h: np.ndarray, j: np.ndarray, weight: float, table: np.ndarray, diag, g=None) -> np.ndarray:
    """T o g in place over h, for T = (i/4) w H_m(k r) - D o J_m(k r), with the given diagonal.

    h and j hold H_m and J_m on the fine grid, w is its trapezoid weight and
    D the set's log-split table.  Off the diagonal, T o g is the log-split
    rule for the kernel (i/4) H_m(k r) g(t, tau): weights R_|i-j| for
    M1 = -(1/4 pi) chi J_m g, 2 pi/n for M2 = (i/4) H_m g - M1 log(4 sin^2((t - tau)/2)).
    g, if given, is a function of a row slice that returns those rows of it;
    diag holds the diagonal of T o g.  j is overwritten with D o J_m.  The
    rows are filled in blocks on the shared pool, each entry with the same
    arithmetic in every block.
    """
    n = len(h)
    scale = _QUARTER_I * weight

    def block(lo, hi):
        rows = slice(lo, hi)
        t, dj = h[rows], j[rows]
        dj *= table[rows]
        t *= scale
        t -= dj
        if g is not None:
            t *= g(rows)
        t[np.arange(hi - lo), np.arange(lo, hi)] = diag[rows]

    _pool.map_blocks(block, n, n)
    return h


@functools.lru_cache(maxsize=1)
def _derivative_symbol(n: int) -> np.ndarray:
    """i*m for the modes m of an n-point FFT, with the Nyquist mode set to 0 (read-only)."""
    m = np.arange(n)
    m[n // 2 :] -= n
    m[n // 2] = 0
    return freeze(1j * m)


def _compress(fine: np.ndarray, n: int, step: int = 1, derivative: bool = False, scale=None) -> np.ndarray:
    """(fine o G)[::step] @ P, or (fine o G)[::step] @ D @ P, by FFT along the rows.

    P = prolongation_matrix(n, fine.shape[1] // n) and D is the fine grid's
    spectral_derivative_matrix.  G, if given, is a function of a row slice
    of fine that returns the factor of those rows (any shape that
    broadcasts); without it, G is 1.  Each row's fine-grid Fourier
    coefficients (times i*m for the derivative) are folded to n modes, the
    transpose of the prolongation's embedding: modes below n/2 are kept and
    the +-n/2 pair is averaged, its even Nyquist split.  The folded
    coefficients are transformed back on the n nodes.  On one grid (fine
    has n columns) the fold is the identity, so without the derivative the
    rows come back as they are, to rounding.  Rows run in blocks on the
    shared pool.
    """
    big = fine.shape[1]
    nrows = len(range(0, len(fine), step))
    half = n // 2
    sym = _derivative_symbol(big)
    out = np.empty((nrows, n), dtype=complex)

    def block(lo, hi):
        rows = slice(step * lo, step * hi, step)
        rows_in = fine[rows] if scale is None else fine[rows] * scale(rows)
        # unscaled inverse, then 1/n in the forward transform: the factor big/n of P over big
        c = np.fft.ifft(rows_in, axis=1, norm="forward")
        low, high = c[:, : half + 1], c[:, big - half :]  # modes 0..n/2 and -n/2..-1
        if derivative:
            low, high = low * sym[: half + 1], high * sym[big - half :]
        nyquist = 0.5 * (low[:, half:] + high[:, :1])
        folded = np.concatenate((low[:, :half], nyquist, high[:, 1:]), axis=1)
        out[lo:hi] = np.fft.fft(folded, axis=1, norm="forward")

    _pool.map_blocks(block, nrows, big)
    return out


def _derivative_on_kept_rows(y: np.ndarray, oversample: int) -> np.ndarray:
    """(D @ y)[::oversample] for the spectral derivative D on y's rows, by FFT down the columns.

    On the kept nodes the fine modes that differ by a multiple of the coarse
    size coincide, so the derivative's coefficients are summed over those
    aliases and transformed on the coarse grid.  Columns run in blocks on
    the shared pool.
    """
    big, ncols = y.shape
    n = big // oversample
    sym = _derivative_symbol(big)[:, None]
    out = np.empty((n, ncols), dtype=complex)

    def block(lo, hi):
        c = np.fft.fft(y[:, lo:hi], axis=0, norm="forward") * sym
        aliased = c.reshape(oversample, n, hi - lo).sum(axis=0)
        out[:, lo:hi] = np.fft.ifft(aliased, axis=0, norm="forward")

    _pool.map_blocks(block, ncols, big)
    return out


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
    """Assemble S, K, KT and N for one wavenumber, one cylinder order at a time.

    Order 1 first: H_1 and J_1 make T1, K is written over it, K and KT are
    compressed and T1 is freed.  Then H_0 and J_0 make T0, from which S, B
    and A are compressed.  Each fine-grid matrix is compressed to its every
    oversample-th row times the trigonometric prolongation.
    """
    k = _check_wavenumber(k)
    if not (is_integer(oversample) and oversample >= 1):
        raise ValueError(f"oversample must be an integer >= 1, got {oversample!r}")
    nodes = _Nodes(curve, make_grid(oversample * grid.n), k)
    n, w, jac = grid.n, nodes.trapz, nodes.jac
    # at complex k, D is windowed to parameter distances below b, where Im k r <= L
    cutoff = min(np.pi, _LOG_SPLIT_GROWTH / (k.imag * jac.max())) if k.imag else None
    table = _log_split_table(nodes.n, cutoff)
    z = specfun.KernelArgument(k, nodes.points)

    # order 1: the double layer, smooth diagonal limit (x1'' x2' - x2'' x1') / (4 pi |x'|^2)
    d, dd = nodes.d, nodes.dd
    k_diag = w * (dd[:, 0] * d[:, 1] - dd[:, 1] * d[:, 0]) * _INV_4PI / jac**2
    factor = functools.partial(nodes.double_layer, r=z.r)  # dropped before z, so r is freed with it
    k_fine = _log_split(specfun.hankel1(1, z), specfun.bessel_j(1, z), w, table, k_diag, factor)
    del factor
    k_mat = _compress(k_fine, n, oversample)
    # adjoint identity: KT(t, tau) = K(tau, t) |x'(tau)| / |x'(t)|
    kt = _compress(k_fine.T, n, oversample, scale=lambda rows: jac[None, :] / jac[rows, None])
    del k_fine

    # order 0: S, and B and A of N = k^2 B + (1/|x'|) d/dt o A o d/dtau; the diagonal of T0
    # is the r -> 0 limit of the rule for J_0 and H_0 - J_0 log
    h0_limit = _QUARTER_I - specfun.EULER_GAMMA / (2.0 * np.pi) - np.log(k * jac / 2.0) / (2.0 * np.pi)
    t0_diag = w * h0_limit - table[0, 0]
    t0 = specfun.hankel1(0, z)
    j0 = specfun.bessel_j(0, z)
    del z
    _log_split(t0, j0, w, table, t0_diag)
    del j0
    s = _compress(t0, n, oversample, scale=lambda rows: jac)
    b = _compress(t0, n, oversample, scale=nodes.normal_products)
    a_dp = _compress(t0, n, derivative=True)
    del t0
    outer = _derivative_on_kept_rows(a_dp, oversample)
    n_mat = k**2 * b + outer / jac[::oversample, None]
    return BoundaryOperators(*map(freeze, (s, k_mat, kt, n_mat)))


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
    return np.fft.ifft(_derivative_symbol(n) * np.fft.fft(density))


def fourier_modes(n: int) -> np.ndarray:
    """Mode numbers -n/2 .. n/2 - 1 matching fourier_coeffs ordering."""
    return np.arange(-(n // 2), (n + 1) // 2)


def fourier_coeffs(density: np.ndarray) -> np.ndarray:
    """Discrete Fourier coefficients c_m, ordered m = -n/2 .. n/2 - 1."""
    density = np.asarray(density)
    n = density.shape[-1]
    return np.fft.fftshift(np.fft.fft(density)) / n
