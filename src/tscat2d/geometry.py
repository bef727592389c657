"""Smooth closed planar curves and equispaced parameter grids.

Every curve is a regular 2*pi-periodic parametrization t -> x(t) of a
smooth closed boundary.  The outward unit normal is the clockwise rotation
(x2', -x1')/|x'| of the tangent; for the built-in curves it points into
the unbounded exterior domain.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

Vec2Fun = Callable[[np.ndarray], np.ndarray]


def is_finite_real(v) -> bool:
    """True for a finite real number; bools are rejected although Python counts them as ints."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def is_integer(v) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True, eq=False)
class Curve:
    """Parametrized boundary with analytic first and second derivatives.

    ``x``, ``dx`` and ``ddx`` map parameter arrays of shape (...,) to
    point arrays of shape (..., 2).
    """

    kind: str
    x: Vec2Fun
    dx: Vec2Fun
    ddx: Vec2Fun

    def jacobian(self, t) -> np.ndarray:
        """Arc-length element |x'(t)|."""
        return np.linalg.norm(self.dx(t), axis=-1)

    def normal(self, t) -> np.ndarray:
        """Outward unit normal (x2', -x1')/|x'|, shape (..., 2)."""
        d = self.dx(t)
        n = np.stack([d[..., 1], -d[..., 0]], axis=-1)
        return n / np.linalg.norm(d, axis=-1)[..., None]

    def curvature(self, t) -> np.ndarray:
        """Signed curvature (x1' x2'' - x2' x1'')/|x'|^3 (diagnostic)."""
        d, dd = self.dx(t), self.ddx(t)
        num = d[..., 0] * dd[..., 1] - d[..., 1] * dd[..., 0]
        return num / np.linalg.norm(d, axis=-1) ** 3


@dataclass(frozen=True, eq=False)
class NodeGrid:
    """Equispaced nodes t_j = 2*pi*j/n, j = 0..n-1, with n even."""

    n: int
    nodes: np.ndarray

    @property
    def weight(self) -> float:
        """Trapezoid weight 2*pi/n of the periodic rule."""
        return 2.0 * np.pi / self.n


def grid(n: int) -> NodeGrid:
    """Equispaced parameter grid with an even number of nodes.

    Even n is required by the spectral differentiation and the split
    log-quadrature; fewer than 4 nodes leaves no quadrature rule at all.
    """
    n = int(n)
    if n % 2 != 0:
        raise ValueError(f"grid size must be even, got {n}")
    if n < 4:
        raise ValueError(f"grid size must be at least 4, got {n}")
    return NodeGrid(n=n, nodes=2.0 * np.pi * np.arange(n) / n)


def make_circle(radius: float) -> Curve:
    """Circle of given radius centered at the origin."""
    if not (is_finite_real(radius) and radius > 0):
        raise ValueError(f"radius must be a finite positive number, got {radius!r}")
    r = float(radius)

    def x(t):
        t = np.asarray(t, dtype=float)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def dx(t):
        t = np.asarray(t, dtype=float)
        return np.stack([-r * np.sin(t), r * np.cos(t)], axis=-1)

    def ddx(t):
        return -x(t)

    return Curve(kind="circle", x=x, dx=dx, ddx=ddx)


def make_ellipse(a: float, b: float) -> Curve:
    """Axis-aligned ellipse (a cos t, b sin t)."""
    if not all(is_finite_real(v) and v > 0 for v in (a, b)):
        raise ValueError(f"semi-axes must be finite positive numbers, got a={a!r}, b={b!r}")
    a, b = float(a), float(b)

    def x(t):
        t = np.asarray(t, dtype=float)
        return np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)

    def dx(t):
        t = np.asarray(t, dtype=float)
        return np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)

    def ddx(t):
        return -x(t)

    return Curve(kind="ellipse", x=x, dx=dx, ddx=ddx)


def make_kite() -> Curve:
    """Non-convex kite benchmark (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""

    def x(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [np.cos(t) + 0.65 * np.cos(2 * t) - 0.65, 1.5 * np.sin(t)], axis=-1
        )

    def dx(t):
        t = np.asarray(t, dtype=float)
        return np.stack([-np.sin(t) - 1.3 * np.sin(2 * t), 1.5 * np.cos(t)], axis=-1)

    def ddx(t):
        t = np.asarray(t, dtype=float)
        return np.stack([-np.cos(t) - 2.6 * np.cos(2 * t), -1.5 * np.sin(t)], axis=-1)

    return Curve(kind="kite", x=x, dx=dx, ddx=ddx)


_MAKERS = {
    "circle": make_circle,
    "ellipse": make_ellipse,
    "kite": make_kite,
}


def make_curve(kind: str, **params) -> Curve:
    """Build a named curve; used by config-driven entry points."""
    try:
        maker = _MAKERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown curve kind {kind!r}; expected one of {sorted(_MAKERS)}"
        ) from None
    return maker(**params)
