"""Bessel and Hankel functions for the Helmholtz kernels.

Validated wrappers around scipy.special: principal branch for complex
arguments, explicit domain checks, and overflow reported as an error
instead of silently propagating inf/nan.  Derivatives come from the
recurrence identities F0' = -F1, Fn' = F_{n-1} - (n/z) Fn.

Orders 0 and 1 at real arguments, which is every kernel value at a real
wavenumber, use the real-argument Cephes routines j0, j1, y0 and y1:
about twenty times faster than the complex AMOS routines and within
1e-14 of them for 0 < x <= 256.  Complex arguments, negative reals in
hankel1, arguments past 256 and all other orders go through AMOS.

A Nystrom kernel depends on r = |x(t) - x(tau)| only, so every argument
matrix k r the operators pass in is symmetric.  When an AMOS argument is a
square matrix equal to its transpose, AMOS runs on the upper triangle only
and the values are mirrored: half the points, bit-identical results.  The
test for symmetry compares the two triangles in row bands on the pool.

At a complex wavenumber k every argument k r lies on the ray from 0
through k.  A symmetric complex matrix of at least ``_pool.MIN_ENTRIES``
entries that lies on one ray of the closed first quadrant (tested in the
same banded pass as the symmetry) takes a table instead of AMOS: H_n or
J_n (n = 0, 1) as a function of the ray parameter, the larger of Re z and
Im z, is interpolated at degree 12 on panels 0.5 wide in |z|, from AMOS
values at the panels' Chebyshev points.  The table is built once per call
on the caller's thread and used only when its points number at most 1/16
of the argument's entries.  Entries with |z| < 2, where H_n is log- or
1/z-singular, stay on AMOS, as do off-ray, non-symmetric and smaller
arrays, scalars and every argument of the other functions.  Against
mpmath the table is within 4 eps (1 + |z|) max(|J_n|, |H_n|) on the rays
through 8+4i, 20+10i, 1+0.5i, 30+0.05i and 1+8i for 2 <= |z| <= 70 (AMOS
itself is within 0.6 eps (1 + |z|) there), and a kernel call at N=256
takes a third to a half of the time AMOS takes on the triangle.  Each
entry's value depends on the entry and the table alone, so the results
are bit-identical for any number of pool workers.

Arrays of at least ``_pool.MIN_ENTRIES`` float or complex entries are
evaluated in row bands on the shared thread pool (``_pool.map_blocks``), a
symmetric argument's triangle in bands of equal numbers of its entries,
every other array (and the Cephes path) by rows.  Each band works in
blocks of rows of at most about ``_pool.BAND_ENTRIES`` entries, each block
writing through ``out=`` and checking that its values are finite, so the
temporaries stay that small also when one band covers the array.  The
AMOS and Cephes values are bit-identical to one whole-array call.

Before any evaluation one pass over the argument, in blocks of rows on
the pool, finds what the range and branch checks and the choice of path
need: the extremes of |z|, Re z and Im z, whether z is a symmetric matrix,
and whether it lies on one ray, with its largest ray parameter.  For a
read-only argument (see ``_memo``) the result is kept while the argument
lives, so the four calls an operator set makes on one k r scan it once;
a writeable argument is scanned on every call.  At a read-only real
argument, hankel1(n, z) keeps a copy of the J_n it evaluated for its real
part and hands it to the next bessel_j(n, z) on the same argument, which
returns it instead of evaluating J_n again; the next hankel1, or the
argument's end, drops it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from . import _pool
from ._memo import LastValue
from .geometry import is_integer

EULER_GAMMA = 0.5772156649015329

_MAX_ORDER = 200

# past x = 256 Cephes differs by more than 1e-14 from AMOS, which matches mpmath there
_CEPHES_MAX = 256.0
_CEPHES_J = (_sp.j0, _sp.j1)
_CEPHES_Y = (_sp.y0, _sp.y1)

# complex arguments on one ray: piecewise-Chebyshev tables in the ray parameter (see _RayTable)
_RAY_DEGREE = 12
_RAY_PANEL = 0.5  # panel width in |z|
_RAY_NEAR = 2.0  # |z| below which the entries stay on AMOS
_RAY_MIN_SHARE = 16  # a table has at most 1/16 as many points as the argument has entries
_RAY_TOL = 4.0 * np.finfo(float).eps  # largest relative deviation of an entry's other part from q s
_RAY_MAX_VALUE = 1.0e300  # largest table value; the interpolant stays below overflow

# dtypes whose ufunc results keep the argument's dtype, so blocks can write into a preallocated output
_BANDED = (np.dtype(float), np.dtype(complex))


class SpecialFunctionError(ArithmeticError):
    """Evaluation left the supported range (overflow/underflow)."""


class _NotFinite(Exception):
    """A block of values holds an inf or a NaN; the public function reports the overflow."""


def _require_finite(values) -> None:
    if not np.isfinite(values).all():
        raise _NotFinite


def _overflow_error(name: str, n, z) -> SpecialFunctionError:
    return SpecialFunctionError(f"{name}(n={n}) overflowed at |z| ~ {np.max(np.abs(z)):.3g}")


def _check_finite(name: str, n, z, values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise _overflow_error(name, n, z)
    return values


def _check_order(n, top: int = _MAX_ORDER, name: str = "order") -> None:
    if not (is_integer(n) and 0 <= n <= top):
        raise ValueError(f"{name} must be an integer in [0, {top}], got {n!r}")


def _entrywise(f, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f(z) entrywise, written into out if given; raises _NotFinite unless every value is finite.

    A float or complex array of at least ``_pool.MIN_ENTRIES`` entries is
    filled in blocks of rows on the shared pool, each block through ``out=``.
    """
    if z.ndim == 0 or z.size < _pool.MIN_ENTRIES or z.dtype not in _BANDED:
        values = f(z) if out is None else f(z, out=out)
        _require_finite(values)
        return values
    if out is None:
        out = np.empty(z.shape, z.dtype)

    def block(lo, hi):
        f(z[lo:hi], out=out[lo:hi])
        _require_finite(out[lo:hi])

    _pool.map_blocks(block, len(z), z.size // len(z))
    return out


class _Ray(NamedTuple):
    """The ray from 0 through a point of the closed first quadrant.

    A point of the ray is s (1 + i q) when its real part is the larger
    (``axis`` 0) and s (q + i) otherwise (``axis`` 1): the ray parameter s
    is the larger of Re z and Im z, and 0 <= q <= 1.
    """

    axis: int
    q: float

    @classmethod
    def through(cls, z0: complex) -> _Ray | None:
        re, im = z0.real, z0.imag
        if not (np.isfinite(z0) and re >= 0.0 and im >= 0.0 and max(re, im) > 0.0):
            return None
        return cls(0, im / re) if re >= im else cls(1, re / im)

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ray parameter, other part) of complex z, as views."""
        return (z.real, z.imag) if self.axis == 0 else (z.imag, z.real)

    def point(self, s: np.ndarray) -> np.ndarray:
        """The points of the ray at parameters s."""
        z = np.empty(s.shape, dtype=complex)
        on, other = self.split(z)
        on[...] = s
        np.multiply(self.q, s, out=other)
        return z

    def max_parameter(self, z: np.ndarray) -> float | None:
        """The largest ray parameter of z if every entry lies on the ray, else None.

        An entry lies on the ray when its other part is q s to within a few
        roundings, as in k r for real r, where k's two parts and q each
        carry one.
        """
        s, other = self.split(z)
        with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 is off the ray: a NaN or inf ratio
            ratio = other / s
        tol = _RAY_TOL * self.q
        if not (ratio.min() >= self.q - tol and ratio.max() <= self.q + tol):
            return None
        return s.max()


class _Argument(NamedTuple):
    """What one pass over an argument z finds: all that the checks and the choice of path need.

    The extremes ignore NaN entries; their values come out NaN and are
    reported as an overflow.
    """

    symmetric: bool  # z is a square float or complex matrix equal to its transpose
    ray: _Ray | None  # the ray a symmetric complex matrix of MIN_ENTRIES or more lies on, else None
    s_max: float | None  # the largest ray parameter of z on that ray
    abs_min: float
    abs_max: float
    re_min: float
    im_min: float  # 0 for a real z


def _extremes(v: np.ndarray) -> tuple:
    """(smallest |v|, largest |v|, smallest Re v, smallest Im v) of a non-empty array, NaN ignored."""
    a = np.abs(v)
    if np.iscomplexobj(v):
        re, im = np.fmin.reduce(v.real, axis=None), np.fmin.reduce(v.imag, axis=None)
    else:
        re, im = np.fmin.reduce(v, axis=None), 0.0
    return np.fmin.reduce(a, axis=None), np.fmax.reduce(a, axis=None), re, im


def _scan(z: np.ndarray) -> _Argument:
    """z's ``_Argument``, from one pass in blocks of rows on the shared pool.

    A square float or complex matrix is read by its upper triangle: a block
    of rows lo:hi compares z[lo:hi, lo:] with the same columns read down
    from row lo (NaN equals nothing), so every pair off the diagonal is
    compared, and takes the extremes of its rows; where rows and columns
    differ it takes the columns' too, so an asymmetric matrix is read whole.
    The rows of a complex block are also tested against the ray through
    z[0, -1].  Any other array is read by rows (by entries if
    one-dimensional).  A block holds about ``_pool.BAND_ENTRIES`` entries,
    which bounds the temporaries also when one band runs.
    """
    if z.size == 0:
        return _Argument(False, None, None, np.inf, -np.inf, np.inf, np.inf)
    square = z.ndim == 2 and z.shape[0] == z.shape[1] and z.dtype in _BANDED
    tabulable = square and z.dtype == complex and z.size >= _pool.MIN_ENTRIES
    ray = _Ray.through(z[0, -1]) if tabulable else None
    found = []  # (rows equal columns, largest ray parameter, extremes) of each block

    if square:

        def block(lo, hi):
            rows, cols = z[lo:hi, lo:], z[lo:, lo:hi].T
            if np.array_equal(rows, cols):
                found.append((True, None if ray is None else ray.max_parameter(rows), _extremes(rows)))
            else:
                found.append((False, None, _extremes(rows)))
                found.append((False, None, _extremes(cols)))

        _pool.map_blocks(block, len(z), len(z), np.arange(len(z), 0, -1))
    else:
        rows = z.reshape(len(z), -1) if z.ndim else z.reshape(1, 1)

        def block(lo, hi):
            found.append((False, None, _extremes(rows[lo:hi])))

        _pool.map_blocks(block, *rows.shape)
    symmetric = square and all(same for same, _, _ in found)
    parts = [s for _, s, _ in found]
    on_ray = symmetric and ray is not None and None not in parts
    lo, hi, re, im = zip(*(e for _, _, e in found))
    return _Argument(
        symmetric,
        ray if on_ray else None,
        max(parts) if on_ray else None,
        functools.reduce(np.fmin, lo),
        functools.reduce(np.fmax, hi),
        functools.reduce(np.fmin, re),
        functools.reduce(np.fmin, im),
    )


# the scan of the last read-only argument, and J_n of the last read-only real argument of
# hankel1, kept for the next bessel_j(n, z); each holds its argument weakly
_ARGUMENTS = LastValue()
_J_HANDOFF = LastValue()


def _argument(z: np.ndarray) -> _Argument:
    """z's scan, kept while a read-only z lives (a writeable z is scanned again)."""
    return _ARGUMENTS.get((z,), (), lambda: _scan(z))


def _interpolation_matrices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """From values at the Chebyshev points 2 y_k - 1 to the monomial coefficients of their interpolant.

    The first matrix takes the values to Chebyshev coefficients (a discrete
    cosine transform), the second those to the coefficients of x^j, by the
    integer coefficients of T_0 .. T_d.
    """
    theta = np.pi * np.arange(d, -1, -1) / d  # 2 y_k - 1 = cos(theta_k)
    to_cheb = (2.0 / d) * np.cos(np.outer(np.arange(d + 1), theta))
    to_cheb[:, [0, -1]] *= 0.5
    to_cheb[[0, -1]] *= 0.5
    cheb_to_mono = np.zeros((d + 1, d + 1))
    for k in range(d + 1):
        cheb_to_mono[: k + 1, k] = np.polynomial.chebyshev.cheb2poly(np.eye(d + 1)[k])[: k + 1]
    return to_cheb, cheb_to_mono


# Chebyshev points of the second kind on [0, 1] (a panel), ascending
_CHEB_Y = (1.0 - np.cos(np.pi * np.arange(_RAY_DEGREE + 1) / _RAY_DEGREE)) / 2.0
_VALUES_TO_CHEB, _CHEB_TO_MONO = _interpolation_matrices(_RAY_DEGREE)


class _RayTable:
    """f(n, z) for z on a ray: piecewise polynomial in the ray parameter, AMOS near 0.

    Panels _RAY_PANEL wide in |z| cover _RAY_NEAR <= |z| up to the largest
    entry.  On each, f is interpolated at degree _RAY_DEGREE in its values
    at the panel's Chebyshev points, neighbours sharing their ends, and the
    interpolant is evaluated by Horner's rule in x in [-1, 1] across the
    panel.  Entries with |z| below _RAY_NEAR, where H_n is log- or
    1/z-singular, are passed to f itself.
    """

    def __init__(self, f, n: int, ray: _Ray, values: np.ndarray, h: float, s_near: float):
        self.f, self.n, self.ray, self.h, self.s_near = f, n, ray, h, s_near
        d = _RAY_DEGREE
        panel_values = np.lib.stride_tricks.sliding_window_view(values, d + 1)[::d]
        # einsum, not BLAS, whose summation order may follow its thread count; the
        # Chebyshev coefficients decay fast on a panel, so the monomial ones are well conditioned
        cheb = np.einsum("pk,jk->jp", panel_values, _VALUES_TO_CHEB)
        self.coef = np.einsum("jk,kp->jp", _CHEB_TO_MONO, cheb)

    @classmethod
    def build(cls, f, n: int, ray: _Ray, s_max: float, entries: int) -> _RayTable | None:
        """The table for entries up to s_max, or None where AMOS on the entries is the better call.

        That is when every entry is near 0, when the table would need more
        than 1/_RAY_MIN_SHARE of the entries' points, and when a value at the
        table's points is not finite or so large that the interpolant could
        overflow (there AMOS gives each entry its own value or overflow).
        """
        scale = np.hypot(1.0, ray.q)  # |z| / s
        h, s_near = _RAY_PANEL / scale, _RAY_NEAR / scale
        if not s_max >= s_near:
            return None
        panels = int((s_max - s_near) / h) + 1
        if (_RAY_DEGREE * panels + 1) * _RAY_MIN_SHARE > entries:
            return None
        u = np.append(np.add.outer(np.arange(panels), _CHEB_Y[:-1]).ravel(), panels)
        values = f(n, ray.point(s_near + h * u))
        if not np.max(np.abs(values)) < _RAY_MAX_VALUE:
            return None
        return cls(f, n, ray, values, h, s_near)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """f(n, z) for a one-dimensional array z of points on the ray."""
        s = self.ray.split(z)[0]
        u = (s - self.s_near) / self.h
        np.maximum(u, 0.0, out=u)  # near entries: any panel, replaced below
        p = u.astype(np.intp)
        u -= p
        u *= 2.0
        u -= 1.0
        x = np.repeat(u, 2)  # for the real and the imaginary part of each value
        out, c = np.empty(len(z), dtype=complex), np.empty(len(z), dtype=complex)
        outf, cf = out.view(float), c.view(float)
        self.coef[-1].take(p, out=out, mode="clip")
        for a in self.coef[-2::-1]:
            outf *= x
            a.take(p, out=c, mode="clip")
            outf += cf
        near = s < self.s_near
        if near.any():
            out[near] = self.f(self.n, z[near])
        return out


def _amos(f, n: int, z: np.ndarray, arg: _Argument) -> np.ndarray:
    """f(n, z) entrywise, evaluated on one triangle when z is a symmetric matrix.

    arg is z's scan.  The triangle is split into row bands holding equal
    numbers of its entries, and each band into blocks of rows of at most
    about ``_pool.BAND_ENTRIES`` entries.  A block evaluates its rows of the
    triangle, checks and writes them, and then copies them to their mirror
    image.  A complex triangle of order 0 or 1 on one ray is evaluated from
    a ``_RayTable`` built first, on the caller's thread, when the table
    pays.  Raises _NotFinite unless every value is finite.
    """
    if not arg.symmetric:
        return _entrywise(functools.partial(f, n), z)
    m = len(z)
    table = None if n > 1 or arg.ray is None else _RayTable.build(f, n, arg.ray, arg.s_max, z.size)
    evaluate = functools.partial(f, n) if table is None else table
    out = np.empty(z.shape, z.dtype)

    def block(lo, hi):
        vals = evaluate(np.concatenate([z[i, i:] for i in range(lo, hi)]))
        _require_finite(vals)
        start = 0
        for i in range(lo, hi):
            out[i, i:] = vals[start : start + m - i]
            start += m - i
        # the mirror image: the diagonal block column by column, the rest as one block
        for i in range(lo, hi):
            out[i + 1 : hi, i] = out[i, i + 1 : hi]
        out[hi:, lo:hi] = out[lo:hi, hi:].T

    _pool.map_blocks(block, m, m, np.arange(m, 0, -1))
    return out


def bessel_j(n: int, z) -> np.ndarray | complex:
    """J_n(z) for integer n >= 0 and real or complex z (scalar or array).

    At a read-only real z this is the J_n that hankel1(n, z) computed just
    before, if it did.
    """
    _check_order(n)
    z = np.asarray(z)
    arg = _argument(z)
    if arg.abs_max > 1.0e4:
        raise ValueError("argument outside supported range |z| <= 1e4")
    try:
        if n < 2 and np.isrealobj(z) and arg.abs_max <= _CEPHES_MAX:
            out = _J_HANDOFF.take((z,), (n,))
            if out is None:
                out = _entrywise(_CEPHES_J[n], z)
        else:
            out = _amos(_sp.jv, n, z, arg)
    except _NotFinite:
        raise _overflow_error("bessel_j", n, z) from None
    return out[()]


def bessel_y(n: int, x) -> np.ndarray | float:
    """Y_n(x) for integer n >= 0 and real x > 0."""
    _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("Y_n requires x > 0 (logarithmic singularity at 0)")
    out = _sp.yv(n, x)
    return _check_finite("bessel_y", n, x, out)[()]


def hankel1(n: int, z) -> np.ndarray | complex:
    """H_n^(1)(z) for n in {0, 1} on the closed upper half plane.

    The log-split kernels only ever need orders 0 and 1; higher orders go
    through hankel1_seq.  At a read-only real z in the Cephes range, J_n is
    kept for the next bessel_j(n, z).
    """
    _check_order(n, top=1)
    z = np.asarray(z)
    arg = _argument(z)
    if arg.abs_min < 1.0e-14:
        raise ValueError("argument too close to the singular point z = 0")
    if arg.abs_max > 1.0e4:
        raise ValueError("argument outside supported range |z| <= 1e4")
    try:
        if np.isrealobj(z) and arg.re_min > 0 and arg.abs_max <= _CEPHES_MAX:
            out = np.empty(z.shape, dtype=complex)
            _entrywise(_CEPHES_J[n], z, out.real)
            _entrywise(_CEPHES_Y[n], z, out.imag)
            _J_HANDOFF.put((z,), (n,), out.real.copy)
        else:
            if arg.im_min < 0:
                raise ValueError("H_n^(1) supported only for Im z >= 0")
            # no copy of an argument that is already complex
            out = _amos(_sp.hankel1, n, np.asarray(z, dtype=complex), arg)
    except _NotFinite:
        raise _overflow_error("hankel1", n, z) from None
    return out[()]


def hankel1_seq(n_max: int, z: complex) -> np.ndarray:
    """H_0^(1)(z) .. H_{n_max}^(1)(z) for a single argument z.

    The returned values satisfy the three-term recurrence
    H_{n+1} = (2n/z) H_n - H_{n-1} to working accuracy.
    """
    _check_order(n_max, name="n_max")
    z = complex(z)
    if not 1.0e-14 <= abs(z) <= 1.0e4:
        raise ValueError("argument outside supported range 1e-14 <= |z| <= 1e4")
    if z.imag < 0:
        raise ValueError("H_n^(1) supported only for Im z >= 0")
    out = _sp.hankel1(np.arange(n_max + 1), z)
    return _check_finite("hankel1_seq", n_max, z, np.asarray(out, dtype=complex))


def bessel_j_seq(n_max: int, z: complex) -> np.ndarray:
    """J_0(z) .. J_{n_max}(z) for a single real or complex argument."""
    _check_order(n_max, name="n_max")
    out = _sp.jv(np.arange(n_max + 1), z)
    return _check_finite("bessel_j_seq", n_max, z, np.asarray(out, dtype=complex))


def derivative_seq(values: np.ndarray, z: complex) -> np.ndarray:
    """Order-wise derivatives of a cylinder-function sequence F_0..F_m.

    Uses F_0' = -F_1 and F_n' = F_{n-1} - (n/z) F_n; valid for J, Y and
    H^(1) alike.
    """
    values = np.asarray(values)
    if values.size < 2:
        raise ValueError("need at least orders 0 and 1 to form derivatives")
    d = np.empty_like(values)
    d[0] = -values[1]
    ns = np.arange(1, values.size)
    d[1:] = values[:-1] - (ns / z) * values[1:]
    return d
