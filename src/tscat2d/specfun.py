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
and the values are mirrored: half the points, bit-identical results.

Arrays of at least ``_pool.MIN_ENTRIES`` float or complex entries are
evaluated in row bands on the shared thread pool: a symmetric argument's
triangle in bands of equal numbers of its entries, every other array
(and the Cephes path) by rows, each band writing through ``out=``.  The
values are bit-identical to one whole-array call.  Each public function
is still one call on the caller's thread, and the range, branch and
finiteness checks still see the whole array.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import special as _sp

from . import _pool

EULER_GAMMA = 0.5772156649015329

_MAX_ORDER = 200

# past x = 256 Cephes differs by more than 1e-14 from AMOS, which matches mpmath there
_CEPHES_MAX = 256.0
_CEPHES_J = (_sp.j0, _sp.j1)
_CEPHES_Y = (_sp.y0, _sp.y1)

# dtypes whose ufunc results keep the argument's dtype, so bands can write into a preallocated output
_BANDED = (np.dtype(float), np.dtype(complex))


class SpecialFunctionError(ArithmeticError):
    """Evaluation left the supported range (overflow/underflow)."""


def _check_finite(name: str, n, z, values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise SpecialFunctionError(f"{name}(n={n}) overflowed at |z| ~ {np.max(np.abs(z)):.3g}")
    return values


def _entrywise(f, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """f(z) entrywise, written into out if given.

    A float or complex array of at least ``_pool.MIN_ENTRIES`` entries is
    filled in row bands on the shared pool, each band through ``out=``.
    """
    if z.ndim == 0 or z.size < _pool.MIN_ENTRIES or z.dtype not in _BANDED:
        return f(z) if out is None else f(z, out=out)
    if out is None:
        out = np.empty(z.shape, z.dtype)

    def band(lo, hi):
        f(z[lo:hi], out=out[lo:hi])

    _pool.map_bands(band, len(z), z.size)
    return out


def _amos(f, n: int, z: np.ndarray) -> np.ndarray:
    """f(n, z) entrywise, evaluated on one triangle when z is a symmetric matrix.

    The triangle is split into row bands holding equal numbers of its
    entries; each band evaluates its entries and writes them and their
    mirror images.
    """
    if (
        z.ndim != 2
        or z.shape[0] != z.shape[1]
        or z.dtype not in _BANDED
        or not np.array_equal(z, z.T)
    ):
        return _entrywise(functools.partial(f, n), z)
    m = len(z)
    iu, ju = np.triu_indices(m)
    row_work = np.arange(m, 0, -1)  # upper-triangle entries of each row
    first = np.concatenate(([0], np.cumsum(row_work)))  # offset of each row's first entry
    out = np.empty(z.shape, z.dtype)

    def band(lo, hi):
        rows, cols = iu[first[lo] : first[hi]], ju[first[lo] : first[hi]]
        vals = f(n, z[rows, cols])
        out[rows, cols] = vals
        out[cols, rows] = vals

    _pool.map_bands(band, m, iu.size, row_work)
    return out


def bessel_j(n: int, z) -> np.ndarray | complex:
    """J_n(z) for integer n >= 0 and real or complex z (scalar or array)."""
    if n < 0 or n > _MAX_ORDER:
        raise ValueError(f"order must be in [0, {_MAX_ORDER}], got {n}")
    z = np.asarray(z)
    a = np.abs(z)
    if np.any(a > 1.0e4):
        raise ValueError("argument outside supported range |z| <= 1e4")
    if n < 2 and np.isrealobj(z) and np.all(a <= _CEPHES_MAX):
        out = _entrywise(_CEPHES_J[n], z)
    else:
        out = _amos(_sp.jv, n, z)
    return _check_finite("bessel_j", n, z, out)[()]


def bessel_y(n: int, x) -> np.ndarray | float:
    """Y_n(x) for integer n >= 0 and real x > 0."""
    if n < 0 or n > _MAX_ORDER:
        raise ValueError(f"order must be in [0, {_MAX_ORDER}], got {n}")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("Y_n requires x > 0 (logarithmic singularity at 0)")
    out = _sp.yv(n, x)
    return _check_finite("bessel_y", n, x, out)[()]


def hankel1(n: int, z) -> np.ndarray | complex:
    """H_n^(1)(z) for n in {0, 1} on the closed upper half plane.

    The log-split kernels only ever need orders 0 and 1; higher orders go
    through hankel1_seq.
    """
    if n not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {n}")
    z = np.asarray(z)
    a = np.abs(z)
    if np.any(a < 1.0e-14):
        raise ValueError("argument too close to the singular point z = 0")
    if np.any(a > 1.0e4):
        raise ValueError("argument outside supported range |z| <= 1e4")
    if np.isrealobj(z) and np.all(z > 0) and np.all(a <= _CEPHES_MAX):
        out = np.empty(z.shape, dtype=complex)
        _entrywise(_CEPHES_J[n], z, out.real)
        _entrywise(_CEPHES_Y[n], z, out.imag)
    else:
        z = z.astype(complex)
        if np.any(z.imag < 0):
            raise ValueError("H_n^(1) supported only for Im z >= 0")
        out = _amos(_sp.hankel1, n, z)
    return _check_finite("hankel1", n, z, out)[()]


def hankel1_seq(n_max: int, z: complex) -> np.ndarray:
    """H_0^(1)(z) .. H_{n_max}^(1)(z) for a single argument z.

    The returned values satisfy the three-term recurrence
    H_{n+1} = (2n/z) H_n - H_{n-1} to working accuracy.
    """
    if n_max < 0 or n_max > _MAX_ORDER:
        raise ValueError(f"n_max must be in [0, {_MAX_ORDER}], got {n_max}")
    z = complex(z)
    if not 1.0e-14 <= abs(z) <= 1.0e4:
        raise ValueError("argument outside supported range 1e-14 <= |z| <= 1e4")
    if z.imag < 0:
        raise ValueError("H_n^(1) supported only for Im z >= 0")
    out = _sp.hankel1(np.arange(n_max + 1), z)
    return _check_finite("hankel1_seq", n_max, z, np.asarray(out, dtype=complex))


def bessel_j_seq(n_max: int, z: complex) -> np.ndarray:
    """J_0(z) .. J_{n_max}(z) for a single real or complex argument."""
    if n_max < 0 or n_max > _MAX_ORDER:
        raise ValueError(f"n_max must be in [0, {_MAX_ORDER}], got {n_max}")
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
