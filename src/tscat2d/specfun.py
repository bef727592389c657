"""Bessel and Hankel functions for the Helmholtz kernels.

Validated wrappers around scipy.special: principal branch for complex
arguments, explicit domain checks, and overflow reported as an error
instead of silently propagating inf/nan.  Derivatives come from the
recurrence identities F0' = -F1, Fn' = F_{n-1} - (n/z) Fn.

Orders 0 and 1 at plain real arrays use the real-argument Cephes
routines j0, j1, y0 and y1: 8-12 times faster than the complex AMOS
routines (j0 about 40 ns an entry, AMOS 300-480 ns, one CPU) and within
1e-14 of them for 0 < x <= 256.  Complex arrays, negative reals in
hankel1, arrays past 256 and all other orders go through AMOS, and so
does every kernel argument (below), at a real wavenumber too.  A
potential's blocks of points are plain arrays and keep Cephes: a table
per block measured slower there (single- plus double-layer potential of
the kite at k = 8, N=256, on 2,000 points: medians of 57-71 ms with
Cephes, 65-84 ms with tables, 2 vCPU).

hankel1 and bessel_j take a scalar or an array z, evaluated in one call
after whole-array reductions that find the extremes of |z|, Re z and
Im z for the range and branch checks, or a ``KernelArgument``: the
argument k r of a Nystrom kernel, from the wavenumber k and the node
positions, whose distance matrix r = |x(t) - x(tau)| it builds once on
its upper triangle and mirrors.  No complex k r matrix is stored; every
kernel value depends on r alone, so each call evaluates the upper
triangle of r and mirrors the values: half the points, bit-identical
results.  At any k, real or complex, orders 0 and 1 come from a table
when the argument has at least ``_pool.MIN_ENTRIES`` entries: H_n(k r)
or J_n(k r) as a function of r is interpolated at degree 9 on panels
0.25 / |k| wide in r, from AMOS values at the panels' Chebyshev points.
The table is built once per call on the caller's thread and used only
when its points number at most 1/10 of the argument's entries; otherwise
AMOS evaluates every entry of the triangle.  J_n, entire, is tabulated
from r = 0; H_n from |k r| = 2, and its entries below that, where it is
log- or 1/z-singular, stay on AMOS.  Against mpmath the table is within
3 eps (1 + |z|) max(|J_n|, |H_n|) for k = 8+4i, 20+10i, 1+0.5i,
30+0.05i, 1+8i, -8+4i, 8, 30 and -8 and |k r| <= 70 (AMOS itself is
within 0.6 eps (1 + |z|) at the first five), and a complex-k kernel call
at N=256 takes at most a fifth of the time AMOS takes on the triangle.
Each entry's value depends on the entry and the table alone, so the
results are bit-identical for any number of pool workers.

At a real k > 0, J_n(k r) = Re H_n(k r): bessel_j(n, arg) returns the
real part of hankel1's route, and hankel1(n, arg) leaves a copy of it on
arg, which the next bessel_j(n, arg) returns to one caller instead of
evaluating H_n again, with the same bits.  At a real k < 0, where
Re H_n(k r) = -J_n(k r), and at a complex k, J_n has its own route.
Besides the read-only indices that ``_triangle`` caches, the module
keeps no state between calls.

One loop, ``_evaluate``, fills every result.  An array takes one call,
so a caller with much array work, such as a potential at many points,
splits it into blocks itself.  A kernel argument's triangle is filled in
blocks of rows holding equal numbers of its entries, about
``_pool.BAND_ENTRIES`` each, on the shared thread pool
(``_pool.map_blocks``); each block forms k r from its distances and
checks that its values are finite, so the temporaries stay that small.
A block gathers and writes the triangle of its diagonal square through
flat indices cached per block size (``_triangle``).  A kernel argument's
AMOS values are bit-identical to one whole-array call on k r.
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
_MIN_ABS_H = 1.0e-14  # smallest |z| of H_n^(1), singular at 0
_MAX_IM_J = 700.92  # AMOS's exponent limit: J_n(z) at complex z overflows past this Im z

# past x = 256 Cephes differs by more than 1e-14 from AMOS, which matches mpmath there
_CEPHES_MAX = 256.0
_CEPHES_J = (_sp.j0, _sp.j1)
_CEPHES_Y = (_sp.y0, _sp.y1)

# complex kernel arguments: piecewise-Chebyshev tables in the distance r (see _RayTable)
_RAY_DEGREE = 9
_RAY_PANEL = 0.25  # panel width in |k r|
_RAY_NEAR = 2.0  # |k r| below which H_n's entries stay on AMOS; J_n, entire, is tabulated from 0
# a table has at most 1/10 as many points as the argument has entries: at 36 points per unit of
# |k r|, about the reach of 1/16 at degree 12 on panels 0.5 wide (24 per unit)
_RAY_MIN_SHARE = 10
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


class KernelArgument:
    """The argument k r of a Nystrom kernel: a wavenumber k and the distances r between m nodes.

    k must be finite with Im k >= 0, and points a non-empty finite float
    array of the m node positions, one row (x, y) each; anything else
    raises ``ValueError``.  One pass over r's upper triangle, in blocks of
    rows holding equal numbers of its entries on the shared pool, fills
    r = sqrt(dx^2 + dy^2), mirrors it and takes its extremes over pairs of
    distinct nodes.  The diagonal holds r's largest distance, a placeholder
    that every kernel evaluates where it is defined and that operators
    overwrite with the kernel's limit; an argument of one node holds 1.  r
    is symmetric bit for bit and frozen (see ``_memo``).

    ``k`` is a float at a real wavenumber (Im k = 0), and the argument is
    then real.  ``shape`` and ``size`` are r's, ``r_max`` its largest
    entry (the nodes' diameter), and ``extremes`` holds the extremes of
    |k r|, Re k r and Im k r.
    """

    def __init__(self, k, points):
        k = complex(k)
        if not (cmath.isfinite(k) and k.imag >= 0):
            raise ValueError(f"wavenumber must be finite with Im k >= 0, got {k!r}")
        points = np.asarray(points)
        if not (points.dtype == float and points.ndim == 2 and points.shape[1] == 2 and len(points)):
            raise ValueError(
                f"node positions must be a non-empty float array of shape (m, 2), got {points.dtype} {points.shape}"
            )
        if not np.isfinite(points).all():
            raise ValueError("node positions must be finite")
        x, y = np.ascontiguousarray(points.T)
        m = len(points)
        r = np.empty((m, m))
        found = []  # (smallest, largest) of each block of rows of the triangle

        def block(lo, hi):
            rows = r[lo:hi, lo:]
            np.subtract(x[lo:hi, None], x[None, lo:], out=rows)
            rows **= 2
            dy = y[lo:hi, None] - y[None, lo:]
            dy **= 2
            rows += dy
            del dy  # before the mirror's copy: one temporary of the block's size at a time
            np.sqrt(rows, out=rows)
            largest = rows.max()  # the diagonal is 0
            rows[np.arange(hi - lo), np.arange(hi - lo)] = np.inf
            r[hi:, lo:hi] = rows[:, hi - lo :].T
            found.append((rows.min(), largest))

        _pool.map_blocks(block, m, m, np.arange(m, 0, -1))
        r_min, r_max = (np.min(found, axis=0)[0], np.max(found, axis=0)[1]) if m > 1 else (1.0, 1.0)
        np.fill_diagonal(r, r_max)

        self.k = k.real if k.imag == 0 else k
        self.r, self.r_max = freeze(r), r_max
        self.shape, self.size, self.dtype = r.shape, r.size, np.dtype(type(self.k))
        # |k r|, Re k r and Im k r are monotone in r >= 0, and so are their roundings
        ends = self.k * np.array([r_min, r_max])
        mags = np.abs(ends)
        self.extremes = _Extremes(mags[0], mags[1], ends.real.min(), ends.imag.min())
        # J_n = Re H_n at a real k > 0 (not at k < 0: Re H_n(k r) = -J_n(k r)) that hankel1 accepts
        self._j_from_h = self.dtype == float and self.k > 0 and mags[0] >= _MIN_ABS_H
        self._j = {}  # n -> the J_n that hankel1(n, self) left for bessel_j(n, self)


def _with_extremes(z) -> tuple[KernelArgument | np.ndarray, _Extremes]:
    """z as a ``KernelArgument`` or an array, and its extremes; ValueError past |z| = _MAX_ABS."""
    ext = z.extremes if isinstance(z, KernelArgument) else _extremes(z := np.asarray(z))
    if ext.abs_max > _MAX_ABS:
        raise ValueError("argument outside supported range |z| <= 1e4")
    return z, ext


@functools.lru_cache(maxsize=64)
def _triangle(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into a b x b square of its upper triangle, row by row, and of each entry's mirror image.

    Read-only and cached per block size: the calls on one kernel argument
    cut its rows into the same blocks, so each size is built once.
    """
    i, j = np.triu_indices(b)
    upper, lower = i * b + j, j * b + i
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def _evaluate(f, z, dtype) -> np.ndarray:
    """f at every entry of z, as an array of dtype; raises _NotFinite unless every value is finite.

    f(x) returns its values at the entries of an array x: of z itself for
    an array, evaluated in one call, and of the distances r for a
    ``KernelArgument`` (see ``_of_distances``).  A kernel argument is
    evaluated on its upper triangle: its rows are cut into blocks holding
    equal numbers of the triangle's entries, and each block of rows lo:hi
    makes one call on r over the triangle of its diagonal block and the
    rectangle right of it, checks the values, writes them and copies them
    to their mirror image.
    """
    if not isinstance(z, KernelArgument):
        return _require_finite(np.asarray(f(z), dtype))
    m = len(z.r)
    out = np.empty(z.shape, dtype)

    def block(lo, hi):
        b, (upper, lower) = hi - lo, _triangle(hi - lo)
        corner, right = slice(lo, hi), slice(hi, None)
        values = _require_finite(f(np.concatenate((z.r[corner, corner].take(upper), z.r[corner, right].ravel()))))
        t = len(upper)
        square = np.empty(b * b, dtype)
        square[upper] = square[lower] = values[:t]
        out[corner, corner] = square.reshape(b, b)
        out[corner, right] = values[t:].reshape(b, m - hi)
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
    """f(n, k r) as a function of r >= 0: piecewise polynomial, for H_n AMOS near 0.

    Panels _RAY_PANEL / |k| wide cover r from r_near up to the largest
    entry: from 0 for the entire J_n, and from |k r| = _RAY_NEAR for H_n,
    whose entries below it, where H_n is log- or 1/z-singular, are passed
    to f itself.  On each panel f is interpolated at degree _RAY_DEGREE in
    its values at the panel's Chebyshev points, neighbours sharing their
    ends, and the interpolant is evaluated by Horner's rule in x in
    [-1, 1] across the panel.  Its values are complex, or real where f's
    are (J_n at a real k).
    """

    def __init__(self, f, n: int, k: complex, values: np.ndarray, h: float, r_near: float):
        self.f, self.n, self.k, self.h, self.r_near = f, n, k, h, r_near
        d = _RAY_DEGREE
        panel_values = np.lib.stride_tricks.sliding_window_view(values, d + 1)[::d]
        # einsum, not BLAS, whose summation order may follow its thread count; the
        # Chebyshev coefficients decay fast on a panel, so the monomial ones are well conditioned
        cheb = np.einsum("pk,jk->jp", panel_values, _VALUES_TO_CHEB)
        self.coef = np.einsum("jk,kp->jp", _CHEB_TO_MONO, cheb)

    @classmethod
    def build(cls, f, n: int, k: complex, r_max: float, entries: int, entire: bool) -> _RayTable | None:
        """The table for distances up to r_max, or None where AMOS on the entries is the better call.

        An entire f (J_n) is tabulated from r = 0, any other from |k r| =
        _RAY_NEAR.  None is returned when every entry is near 0, when the
        table would need more than 1/_RAY_MIN_SHARE of the entries' points,
        and when a value at the table's points is not finite or so large
        that the interpolant could overflow (there AMOS gives each entry its
        own value or overflow).
        """
        h, r_near = _RAY_PANEL / abs(k), 0.0 if entire else _RAY_NEAR / abs(k)
        if not r_max >= r_near:
            return None
        panels = int((r_max - r_near) / h) + 1
        if (_RAY_DEGREE * panels + 1) * _RAY_MIN_SHARE > entries:
            return None
        u = np.append(np.add.outer(np.arange(panels), _CHEB_Y[:-1]).ravel(), panels)
        values = f(n, k * (r_near + h * u))
        if not np.max(np.abs(values)) < _RAY_MAX_VALUE:
            return None
        return cls(f, n, k, values, h, r_near)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """f(n, k r) for a one-dimensional array r of distances."""
        u = (r - self.r_near) / self.h
        np.maximum(u, 0.0, out=u)  # H_n's near entries: any panel, replaced below
        p = u.astype(np.intp)
        u -= p
        u *= 2.0
        u -= 1.0
        x = np.repeat(u, self.coef.itemsize // u.itemsize)  # once per float of a value: twice if complex
        out, c = np.empty(len(r), self.coef.dtype), np.empty(len(r), self.coef.dtype)
        outf, cf = out.view(float), c.view(float)
        self.coef[-1].take(p, out=out, mode="clip")
        for a in self.coef[-2::-1]:
            outf *= x
            a.take(p, out=c, mode="clip")
            outf += cf
        if self.r_near:  # H_n's table: its near entries go to f
            near = r < self.r_near
            if near.any():
                out[near] = self.f(self.n, self.k * r[near])
        return out


def _amos(f, n: int, z, dtype, entire: bool) -> np.ndarray:
    """f(n, z) entrywise as an array of dtype; raises _NotFinite unless every value is finite.

    A kernel argument of order 0 or 1 with at least ``_pool.MIN_ENTRIES``
    entries, at a real or a complex k, is evaluated from a ``_RayTable``
    built first, on the caller's thread, when the table pays, and on AMOS
    at every entry of its triangle otherwise; an entire f (J_n) is
    tabulated from r = 0.  An array is converted to dtype first.
    """
    if not isinstance(z, KernelArgument):
        return _evaluate(functools.partial(f, n), np.asarray(z, dtype), dtype)
    table = _RayTable.build(f, n, z.k, z.r_max, z.size, entire) if n < 2 and z.size >= _pool.MIN_ENTRIES else None
    return _evaluate((lambda r: f(n, z.k * r)) if table is None else table, z, dtype)


def _cephes_hankel1(n: int, x) -> np.ndarray:
    """H_n^(1)(x) = J_n(x) + i Y_n(x) for real x > 0 from Cephes."""
    out = np.empty(np.shape(x), dtype=complex)
    _CEPHES_J[n](x, out=out.real)
    _CEPHES_Y[n](x, out=out.imag)
    return out


def bessel_j(n: int, z) -> np.ndarray | complex:
    """J_n(z) for integer n >= 0 and real or complex z (scalar, array or ``KernelArgument``).

    At a kernel argument of a real k > 0, orders 0 and 1 are Re H_n(z) by
    hankel1's route: the J_n that hankel1(n, z) left on it just before, if
    it did, and otherwise evaluated so, with the same bits.  A kernel
    argument whose Im k r_max passes 700.92, where AMOS's J_n overflows, is
    reported as an overflow before anything is evaluated.
    """
    _check_order(n)
    z, ext = _with_extremes(z)
    dtype = complex if np.iscomplexobj(z) else float
    with _overflow_reported("bessel_j", n, ext.abs_max):
        if isinstance(z, KernelArgument) and z.k.imag * z.r_max > _MAX_IM_J:
            raise _NotFinite  # before any table or AMOS call: every route overflows there
        if n < 2 and isinstance(z, KernelArgument) and z._j_from_h:
            if (out := z._j.pop(n, None)) is None:  # the real part of hankel1's route
                out = _amos(_sp.hankel1, n, z, complex, entire=False).real.copy()
        elif n < 2 and not isinstance(z, KernelArgument) and dtype == float and ext.abs_max <= _CEPHES_MAX:
            out = _evaluate(_CEPHES_J[n], z, float)
        else:
            out = _amos(_sp.jv, n, z, dtype, entire=True)
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
    through hankel1_seq.  A real scalar or array in (0, 256] takes Cephes; a
    kernel argument, at any k, takes the ray table or AMOS.  At a kernel
    argument of a real k > 0, a copy of J_n = Re H_n is left on it for the
    next bessel_j(n, z).
    """
    _check_order(n, top=1)
    z, ext = _with_extremes(z)
    if ext.abs_min < _MIN_ABS_H:
        raise ValueError("argument too close to the singular point z = 0")
    if ext.im_min < 0:
        raise ValueError("H_n^(1) supported only for Im z >= 0")
    with _overflow_reported("hankel1", n, ext.abs_max):
        if not isinstance(z, KernelArgument) and np.isrealobj(z) and ext.re_min > 0 and ext.abs_max <= _CEPHES_MAX:
            out = _evaluate(functools.partial(_cephes_hankel1, n), z, complex)
        else:
            out = _amos(_sp.hankel1, n, z, complex, entire=False)
            if isinstance(z, KernelArgument) and z._j_from_h:
                z._j = {n: out.real.copy()}
    return out[()]


def hankel1_seq(n_max: int, z: complex) -> np.ndarray:
    """H_0^(1)(z) .. H_{n_max}^(1)(z) for a single argument z.

    The returned values satisfy the three-term recurrence
    H_{n+1} = (2n/z) H_n - H_{n-1} to working accuracy.
    """
    _check_order(n_max, name="n_max")
    z = complex(z)
    if not _MIN_ABS_H <= abs(z) <= _MAX_ABS:
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
