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

hankel1 and bessel_j take a scalar or an array z, evaluated in one call
after whole-array reductions that find the extremes of |z|, Re z and
Im z for the range and branch checks, or a ``KernelArgument``: the
argument k r of a Nystrom kernel, from the wavenumber k and the symmetric
distance matrix r = |x(t) - x(tau)|, checked once when it is built.  No
complex k r matrix is stored; k r is formed from r block by block and
evaluated on the upper triangle, the values mirrored: half the points,
bit-identical results.  At a complex k, where every entry lies on the ray
from 0 through k, orders 0 and 1 come from a table when the argument has
at least ``_pool.MIN_ENTRIES`` entries: H_n or J_n as a function of the
ray parameter, the larger of Re z and Im z, is interpolated at degree 12
on panels 0.5 wide in |z|, from AMOS values at the panels' Chebyshev
points.  The table is built once per call on the caller's thread and used
only when its points number at most 1/16 of the argument's entries.
Entries with |z| < 2, where H_n is log- or 1/z-singular, stay on AMOS.
Against mpmath the table is within 4 eps (1 + |z|) max(|J_n|, |H_n|) on
the rays through 8+4i, 20+10i, 1+0.5i, 30+0.05i and 1+8i for
2 <= |z| <= 70 (AMOS itself is within 0.6 eps (1 + |z|) there), and a
kernel call at N=256 takes a third to a half of the time AMOS takes on
the triangle.  Each entry's value depends on the entry and the table
alone, so the results are bit-identical for any number of pool workers.

At a real k, hankel1(n, arg) leaves a copy of its J_n on arg, and the
next bessel_j(n, arg) returns it to one caller instead of evaluating J_n
again.  The module itself keeps no state between calls.

One loop, ``_evaluate``, fills every result.  An array takes one call,
so a caller with much array work, such as a potential at many points,
splits it into blocks itself.  A kernel argument's triangle is filled in
blocks of rows holding equal numbers of its entries, about
``_pool.BAND_ENTRIES`` each, on the shared thread pool
(``_pool.map_blocks``); each block checks that its values are finite, so
the temporaries stay that small.  The AMOS and Cephes values are
bit-identical to one whole-array call.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from . import _pool
from ._memo import freeze
from .geometry import is_integer

EULER_GAMMA = 0.5772156649015329

_MAX_ORDER = 200
_MAX_ABS = 1.0e4  # largest supported |z|
_MAX_IM_J = 700.92  # AMOS's exponent limit: J_n(z) at complex z overflows past this Im z

# past x = 256 Cephes differs by more than 1e-14 from AMOS, which matches mpmath there
_CEPHES_MAX = 256.0
_CEPHES_J = (_sp.j0, _sp.j1)
_CEPHES_Y = (_sp.y0, _sp.y1)

# complex arguments on one ray: piecewise-Chebyshev tables in the ray parameter (see _RayTable)
_RAY_DEGREE = 12
_RAY_PANEL = 0.5  # panel width in |z|
_RAY_NEAR = 2.0  # |z| below which the entries stay on AMOS
_RAY_MIN_SHARE = 16  # a table has at most 1/16 as many points as the argument has entries
_RAY_MAX_VALUE = 1.0e300  # largest table value; the interpolant stays below overflow


class SpecialFunctionError(ArithmeticError):
    """Evaluation left the supported range (overflow/underflow)."""


class _NotFinite(Exception):
    """A block of values holds an inf or a NaN; the public function reports the overflow."""


def _require_finite(values):
    """values, if every one is finite; raises _NotFinite otherwise."""
    if not np.isfinite(values).all():
        raise _NotFinite
    return values


@contextlib.contextmanager
def _overflow_reported(name: str, n, abs_max):
    """Reports a _NotFinite raised inside as the overflow of name(n) at |z| ~ abs_max."""
    try:
        yield
    except _NotFinite:
        raise SpecialFunctionError(f"{name}(n={n}) overflowed at |z| ~ {abs_max:.3g}") from None


def _check_order(n, top: int = _MAX_ORDER, name: str = "order") -> None:
    if not (is_integer(n) and 0 <= n <= top):
        raise ValueError(f"{name} must be an integer in [0, {top}], got {n!r}")


class _Extremes(NamedTuple):
    """What the range and branch checks and the choice of path need of an argument z.

    NaN entries are ignored; their values come out NaN and are reported
    as an overflow.
    """

    abs_min: float
    abs_max: float
    re_min: float
    im_min: float  # 0 for a real z


def _extremes(z: np.ndarray) -> _Extremes:
    """z's ``_Extremes``, from NaN-skipping reductions over the whole array."""
    if z.size == 0:
        return _Extremes(np.inf, -np.inf, np.inf, np.inf)
    a, low = np.abs(z), functools.partial(np.fmin.reduce, axis=None)
    im = low(z.imag) if np.iscomplexobj(z) else 0.0
    return _Extremes(low(a), np.fmax.reduce(a, axis=None), low(z.real), im)


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


class KernelArgument:
    """The argument k r of a Nystrom kernel, from a wavenumber k and a symmetric distance matrix r.

    k must be finite with Im k >= 0, and r a non-empty square float matrix
    that equals its transpose, is finite and is >= 0; anything else raises
    ``ValueError``.  One pass over r's upper triangle, in blocks of rows
    holding equal numbers of its entries on the shared pool, checks r and
    takes its extremes.  r is frozen (see ``_memo``), not copied, and what
    is found here holds only while it stays unchanged.

    ``k`` is a float at a real wavenumber (Im k = 0), and the argument is
    then real.  ``size`` is r's, and ``extremes`` holds the extremes of
    |k r|, Re k r and Im k r.  A complex argument of at least
    ``_pool.MIN_ENTRIES`` entries carries the ray through k r[0, -1]
    (None if k is off the closed first quadrant) and ``s_max``, the
    largest ray parameter of its entries.
    """

    def __init__(self, k, r):
        k = complex(k)
        if not (cmath.isfinite(k) and k.imag >= 0):
            raise ValueError(f"wavenumber must be finite with Im k >= 0, got {k!r}")
        r = np.asarray(r)
        if not (r.dtype == float and r.ndim == 2 and r.shape[0] == r.shape[1] and r.size):
            raise ValueError(f"distances must be a non-empty square float matrix, got {r.dtype} {r.shape}")
        m = len(r)
        found = []  # (rows equal columns, smallest, largest) of each block of rows of the triangle

        def block(lo, hi):
            rows = r[lo:hi, lo:]
            found.append((np.array_equal(rows, r[lo:, lo:hi].T), rows.min(), rows.max()))

        _pool.map_blocks(block, m, m, np.arange(m, 0, -1))
        same, lo, hi = zip(*found)
        r_min, r_max = np.min(lo), np.max(hi)
        if not (r_min >= 0 and np.isfinite(r_max)):
            raise ValueError(f"distances must be finite and >= 0, got a range [{r_min}, {r_max}]")
        if not all(same):
            raise ValueError("distances must equal their transpose")

        self.k = k.real if k.imag == 0 else k
        self.r = freeze(r)
        self.shape, self.size, self.dtype = r.shape, r.size, np.dtype(type(self.k))
        # |k r|, Re k r and Im k r are monotone in r >= 0, and so are their roundings
        ends = self.k * np.array([r_min, r_max])
        mags = np.abs(ends)
        self.extremes = _Extremes(mags[0], mags[1], ends.real.min(), ends.imag.min())
        self.ray = self.s_max = None
        if self.dtype == complex and self.size >= _pool.MIN_ENTRIES:
            self.ray = _Ray.through(self.k * r[0, -1])
            if self.ray is not None:
                self.s_max = self.ray.split(ends)[0][1]
        self._j = {}  # n -> the J_n that hankel1(n, self) left for bessel_j(n, self)


def _with_extremes(z) -> tuple[KernelArgument | np.ndarray, _Extremes]:
    """z as a ``KernelArgument`` or an array, and its extremes; ValueError past |z| = _MAX_ABS."""
    ext = z.extremes if isinstance(z, KernelArgument) else _extremes(z := np.asarray(z))
    if ext.abs_max > _MAX_ABS:
        raise ValueError("argument outside supported range |z| <= 1e4")
    return z, ext


def _evaluate(f, z, dtype) -> np.ndarray:
    """f at every entry of z, as an array of dtype; raises _NotFinite unless every value is finite.

    f(x) returns its values at the entries of an array x.  An array is
    evaluated in one call.  A ``KernelArgument`` is evaluated on its upper
    triangle: its rows are cut into blocks holding equal numbers of the
    triangle's entries, and each block of rows lo:hi makes one call on k r
    over the triangle of its diagonal block and the rectangle right of it,
    checks the values, writes them and copies them to their mirror image.
    """
    if not isinstance(z, KernelArgument):
        return _require_finite(np.asarray(f(z), dtype))
    m = len(z.r)
    out = np.empty(z.shape, dtype)

    def block(lo, hi):
        upper = np.triu_indices(hi - lo)
        corner, right = slice(lo, hi), slice(hi, None)
        x = z.k * np.concatenate((z.r[corner, corner][upper], z.r[corner, right].ravel()))
        values = _require_finite(f(x))
        t = len(upper[0])
        out[corner, corner][upper] = out[corner, corner].T[upper] = values[:t]
        out[corner, right] = values[t:].reshape(hi - lo, m - hi)
        out[right, corner] = out[corner, right].T

    _pool.map_blocks(block, m, m, np.arange(m, 0, -1))
    return out


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


def _amos(f, n: int, z, dtype) -> np.ndarray:
    """f(n, z) entrywise as an array of dtype; raises _NotFinite unless every value is finite.

    A complex kernel argument of order 0 or 1 with a ray is evaluated from
    a ``_RayTable`` built first, on the caller's thread, when the table
    pays.  An array is converted to dtype first.
    """
    if not isinstance(z, KernelArgument):
        return _evaluate(functools.partial(f, n), np.asarray(z, dtype), dtype)
    table = None if n > 1 or z.ray is None else _RayTable.build(f, n, z.ray, z.s_max, z.size)
    return _evaluate(functools.partial(f, n) if table is None else table, z, dtype)


def _cephes_hankel1(n: int, x) -> np.ndarray:
    """H_n^(1)(x) = J_n(x) + i Y_n(x) for real x > 0 from Cephes."""
    out = np.empty(np.shape(x), dtype=complex)
    _CEPHES_J[n](x, out=out.real)
    _CEPHES_Y[n](x, out=out.imag)
    return out


def bessel_j(n: int, z) -> np.ndarray | complex:
    """J_n(z) for integer n >= 0 and real or complex z (scalar, array or ``KernelArgument``).

    At a real kernel argument this is the J_n that hankel1(n, z) left on it
    just before, if it did.
    """
    _check_order(n)
    z, ext = _with_extremes(z)
    dtype = complex if np.iscomplexobj(z) else float
    with _overflow_reported("bessel_j", n, ext.abs_max):
        if n < 2 and dtype == float and ext.abs_max <= _CEPHES_MAX:
            out = z._j.pop(n, None) if isinstance(z, KernelArgument) else None
            if out is None:
                out = _evaluate(_CEPHES_J[n], z, float)
        else:
            out = _amos(_sp.jv, n, z, dtype)
    return out[()]


def bessel_y(n: int, x) -> np.ndarray | float:
    """Y_n(x) for integer n >= 0 and real x > 0."""
    _check_order(n)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("Y_n requires x > 0 (logarithmic singularity at 0)")
    with _overflow_reported("bessel_y", n, np.max(x, initial=0.0)):
        return _require_finite(_sp.yv(n, x))[()]


def hankel1(n: int, z) -> np.ndarray | complex:
    """H_n^(1)(z) for n in {0, 1} on the closed upper half plane (scalar, array or ``KernelArgument``).

    The log-split kernels only ever need orders 0 and 1; higher orders go
    through hankel1_seq.  At a real kernel argument in the Cephes range, a
    copy of J_n is left on it for the next bessel_j(n, z).
    """
    _check_order(n, top=1)
    z, ext = _with_extremes(z)
    if ext.abs_min < 1.0e-14:
        raise ValueError("argument too close to the singular point z = 0")
    with _overflow_reported("hankel1", n, ext.abs_max):
        if np.isrealobj(z) and ext.re_min > 0 and ext.abs_max <= _CEPHES_MAX:
            out = _evaluate(functools.partial(_cephes_hankel1, n), z, complex)
            if isinstance(z, KernelArgument):
                z._j = {n: out.real.copy()}
        else:
            if ext.im_min < 0:
                raise ValueError("H_n^(1) supported only for Im z >= 0")
            out = _amos(_sp.hankel1, n, z, complex)
    return out[()]


def hankel1_seq(n_max: int, z: complex) -> np.ndarray:
    """H_0^(1)(z) .. H_{n_max}^(1)(z) for a single argument z.

    The returned values satisfy the three-term recurrence
    H_{n+1} = (2n/z) H_n - H_{n-1} to working accuracy.
    """
    _check_order(n_max, name="n_max")
    z = complex(z)
    if not 1.0e-14 <= abs(z) <= _MAX_ABS:
        raise ValueError("argument outside supported range 1e-14 <= |z| <= 1e4")
    if z.imag < 0:
        raise ValueError("H_n^(1) supported only for Im z >= 0")
    with _overflow_reported("hankel1_seq", n_max, abs(z)):
        return _require_finite(np.asarray(_sp.hankel1(np.arange(n_max + 1), z), dtype=complex))


def bessel_j_seq(n_max: int, z: complex) -> np.ndarray:
    """J_0(z) .. J_{n_max}(z) for a single real or complex argument."""
    _check_order(n_max, name="n_max")
    with _overflow_reported("bessel_j_seq", n_max, np.max(np.abs(z))):
        return _require_finite(np.asarray(_sp.jv(np.arange(n_max + 1), z), dtype=complex))


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
