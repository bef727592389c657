"""Analytic references on a circle of radius R.

Everything in this module is closed-form arithmetic on Bessel/Hankel
values: the separation-of-variables (Mie) solution of the transmission
problem, the rotation-invariant symbols of the four boundary operators,
the exterior/interior Dirichlet-to-Neumann symbols, the exact and
smoothed admittance-block symbols, and least-squares log-log slope fits
used to measure how fast symbol differences decay with the mode number.
The smoothed regularizer and the combined-source block algebra are the
ones in ``formulations``, applied to per-mode symbols.

Conventions (all verified against the Nystrom assembly):

    S_n = (i pi R / 2) J_n(kR) H_n(kR)
    K_n = K^T_n = 1/2 + (i pi k R / 2) J_n(kR) H_n'(kR)
    N_n = (i pi k^2 R / 2) J_n'(kR) H_n'(kR)
    Y1_n = k H_n'(k R) / H_n(k R)      (exterior, radiating)
    Y2_n = k J_n'(k R) / J_n(k R)      (interior)

with H_n = H_n^(1) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from .formulations import combined_source_blocks, smoothed_regularizer
from .operators import BoundaryOperators


class InteriorPoleError(ValueError):
    """Interior Dirichlet eigenvalue: J_n(k R) vanishes to working accuracy."""


def _cyl_values(n: int, z: complex):
    """J_n, J_n', H_n, H_n' at a single argument (n >= 0)."""
    m = max(n, 1)
    js = specfun.bessel_j_seq(m + 1, z)
    hs = specfun.hankel1_seq(m + 1, z)
    jp = specfun.derivative_seq(js, z)
    hp = specfun.derivative_seq(hs, z)
    return js[n], jp[n], hs[n], hp[n]


def circle_operator_symbol(op_tag: str, radius: float, k: complex, n: int) -> complex:
    """Eigenvalue of S, K, KT or N on e^{i n t} for the circle.

    Symbols depend on |n| only (rotation invariance plus parity of the
    cylinder functions).
    """
    n = abs(int(n))
    z = k * radius
    j, jp, h, hp = _cyl_values(n, z)
    if op_tag == "S":
        return 1j * np.pi * radius / 2.0 * j * h
    if op_tag in ("K", "KT"):
        return 0.5 + 1j * np.pi * k * radius / 2.0 * j * hp
    if op_tag == "N":
        return 1j * np.pi * k**2 * radius / 2.0 * jp * hp
    raise ValueError(f"unknown operator tag {op_tag!r}; expected S, K, KT or N")


def circle_dtn_symbol(side: str, radius: float, k: complex, n: int) -> complex:
    """Per-mode Dirichlet-to-Neumann map of the circle.

    side="exterior": radiating solution, Y1_n = k H_n'(kR)/H_n(kR);
    side="interior": regular solution, Y2_n = k J_n'(kR)/J_n(kR).
    """
    n = abs(int(n))
    z = k * radius
    j, jp, h, hp = _cyl_values(n, z)
    if side == "exterior":
        return k * hp / h
    if side == "interior":
        # relative test: at an interior Dirichlet eigenvalue J_n vanishes
        # while J_n' stays of normal size; for n >> kR both decay together
        # and the ratio (the symbol) remains perfectly well defined
        scale = max(abs(j), abs(jp))
        if scale == 0.0 or abs(j) < 1e-13 * scale:
            raise InteriorPoleError(
                f"J_{n}({z}) = {j:.3e}: interior Dirichlet eigenvalue, DtN symbol undefined"
            )
        return k * jp / j
    raise ValueError(f"unknown side {side!r}; expected 'exterior' or 'interior'")


def exact_admittance_symbols(
    radius: float, k1: float, k2: float, nu: float, n: int
) -> tuple[complex, complex, complex, complex]:
    """Per-mode blocks (R11, R12, R21, R22) of the exact admittance map.

    R12 = (Y1 - nu Y2)^{-1}, R11 = -nu R12 Y2, R21 = Y1 R11, R22 = Y1 R12.
    """
    y1 = circle_dtn_symbol("exterior", radius, k1, n)
    y2 = circle_dtn_symbol("interior", radius, k2, n)
    den = y1 - nu * y2
    if abs(den) < 1e-12:
        raise InteriorPoleError(f"Y1 - nu*Y2 = {den:.3e} at mode {n}: admittance pole")
    r12 = 1.0 / den
    r11 = -nu * r12 * y2
    return r11, r12, y1 * r11, y1 * r12


def approx_admittance_symbols(
    radius: float, kappa: complex, nu: float, n: int
) -> tuple[complex, complex, complex, complex]:
    """Per-mode blocks of the smoothed admittance map built from S and N.

    R11 = nu/(1+nu), R12 = -2 S_kappa/(1+nu), R21 = 2 nu N_kappa/(1+nu),
    R22 = 1/(1+nu), from ``formulations.smoothed_regularizer``.
    """
    s = circle_operator_symbol("S", radius, kappa, n)
    nn = circle_operator_symbol("N", radius, kappa, n)
    return smoothed_regularizer(s, nn, nu)


def _symbol_set(radius: float, k: complex, n: int) -> BoundaryOperators:
    """S, K, KT and N symbols of mode n as 1x1 arrays."""
    return BoundaryOperators(
        *(np.array([[circle_operator_symbol(tag, radius, k, n)]]) for tag in ("S", "K", "KT", "N"))
    )


def combined_source_symbol_matrix(
    radius: float,
    k1: float,
    k2: float,
    nu: float,
    kappa: complex,
    n: int,
    regularizer: str = "smoothed",
) -> np.ndarray:
    """2x2 per-mode symbol of the combined-source system matrix.

    Runs ``formulations.combined_source_blocks``, the block algebra of the
    assembled system, on 1x1 symbol arrays; its stacked result is the
    2x2 matrix.  With regularizer="exact" the
    admittance blocks make the matrix the identity; with "smoothed" it is
    identity plus decaying blocks.
    """
    if regularizer == "exact":
        r = [np.array([[x]]) for x in exact_admittance_symbols(radius, k1, k2, nu, n)]
    elif regularizer == "smoothed":
        ok = _symbol_set(radius, kappa, n)
        r = smoothed_regularizer(ok.s, ok.n, nu)
    else:
        raise ValueError(f"unknown regularizer {regularizer!r}")
    return combined_source_blocks(_symbol_set(radius, k1, n), _symbol_set(radius, k2, n), r, nu)


def smoothing_order(samples) -> float:
    """Least-squares slope of log|magnitude| against log n.

    samples: iterable of (n, magnitude) pairs with n increasing; at least
    four samples, all magnitudes nonzero.
    """
    ns = np.array([float(p[0]) for p in samples])
    mags = np.array([float(p[1]) for p in samples])
    if ns.size < 4:
        raise ValueError(f"need at least 4 samples to fit a slope, got {ns.size}")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("mode numbers must be strictly increasing")
    if np.any(mags == 0):
        raise ValueError("zero magnitudes cannot be fit on a log scale")
    return float(np.polyfit(np.log(ns), np.log(mags), 1)[0])


@dataclass(frozen=True, eq=False)
class MieSolution:
    """Transmission solution of the circle by separation of variables.

    The scattered exterior field is sum_n a_n H_n(k1 r) e^{i n theta} and
    the interior field sum_n b_n J_n(k2 r) e^{i n theta}, n from -n_max
    to n_max (coefficient arrays indexed by n + n_max).
    """

    radius: float
    k1: float
    k2: float
    nu: float
    alpha: float
    n_max: int
    a: np.ndarray
    b: np.ndarray

    def _modes(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    def incident(self, r, theta) -> np.ndarray:
        """Plane wave e^{i k1 d.x} with d = (cos alpha, sin alpha)."""
        r, theta = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
        return np.exp(1j * self.k1 * r * np.cos(theta - self.alpha))

    def incident_dr(self, r, theta) -> np.ndarray:
        """Radial derivative of the incident plane wave."""
        r, theta = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
        return 1j * self.k1 * np.cos(theta - self.alpha) * self.incident(r, theta)

    def _series(self, coeffs, radial, theta):
        theta = np.asarray(theta, dtype=float)
        phases = np.exp(1j * np.outer(self._modes(), theta))
        return (coeffs[:, None] * radial[:, None] * phases).sum(axis=0)

    def _radial(self, kind: str, k: float, r: float, derivative: bool) -> np.ndarray:
        z = k * r
        if kind == "H":
            seq = specfun.hankel1_seq(self.n_max + 1, z)
        else:
            seq = specfun.bessel_j_seq(self.n_max + 1, z)
        if derivative:
            seq = k * specfun.derivative_seq(seq, z)
        m = self._modes()
        # negative orders: F_{-n} = (-1)^n F_n
        return seq[np.abs(m)] * np.where((m < 0) & (m % 2 != 0), -1.0, 1.0)

    def scattered(self, r: float, theta) -> np.ndarray:
        """Scattered exterior field at radius r (r > radius)."""
        return self._series(self.a, self._radial("H", self.k1, r, False), theta)

    def scattered_dr(self, r: float, theta) -> np.ndarray:
        return self._series(self.a, self._radial("H", self.k1, r, True), theta)

    def interior(self, r: float, theta) -> np.ndarray:
        """Interior field at radius r (r < radius)."""
        return self._series(self.b, self._radial("J", self.k2, r, False), theta)

    def interior_dr(self, r: float, theta) -> np.ndarray:
        return self._series(self.b, self._radial("J", self.k2, r, True), theta)

    def far_field(self, theta) -> np.ndarray:
        """u_inf(theta) in the convention u ~ e^{i k1 r}/sqrt(r) u_inf.

        From the large-argument Hankel asymptotics: u_inf =
        sqrt(2/(pi k1)) e^{-i pi/4} sum_n a_n (-i)^n e^{i n theta}.
        """
        m = self._modes()
        coeffs = self.a * np.exp(-0.5j * np.pi * m)
        pref = np.sqrt(2.0 / (np.pi * self.k1)) * np.exp(-1j * np.pi / 4)
        theta = np.asarray(theta, dtype=float)
        phases = np.exp(1j * np.outer(m, theta))
        return pref * (coeffs[:, None] * phases).sum(axis=0)


def mie_solve(
    radius: float,
    k1: float,
    k2: float,
    nu: float,
    alpha: float = 0.0,
    n_max: int | None = None,
) -> MieSolution:
    """Solve the circular transmission problem mode by mode.

    Enforces continuity of the total field and of (1, nu)-weighted normal
    derivatives across the interface; the scattered field uses outgoing
    Hankel functions only.
    """
    if radius <= 0 or k1 <= 0 or k2 <= 0 or nu <= 0:
        raise ValueError("radius, k1, k2 and nu must all be positive")
    if n_max is None:
        n_max = int(np.ceil(max(k1, k2) * radius)) + 20
    z1, z2 = k1 * radius, k2 * radius
    j1 = specfun.bessel_j_seq(n_max + 1, z1)
    h1 = specfun.hankel1_seq(n_max + 1, z1)
    j2 = specfun.bessel_j_seq(n_max + 1, z2)
    j1p = k1 * specfun.derivative_seq(j1, z1)
    h1p = k1 * specfun.derivative_seq(h1, z1)
    j2p = k2 * specfun.derivative_seq(j2, z2)

    # unit-amplitude solve per order m >= 0; incident coefficient applied after
    a_unit = np.empty(n_max + 1, dtype=complex)
    b_unit = np.empty(n_max + 1, dtype=complex)
    for m in range(n_max + 1):
        det = -h1[m] * nu * j2p[m] + j2[m] * h1p[m]
        if abs(det) < 1e-13:
            raise InteriorPoleError(f"mode {m}: transmission determinant {det:.3e}")
        rhs0, rhs1 = -j1[m], -j1p[m]
        a_unit[m] = (rhs0 * (-nu * j2p[m]) - (-j2[m]) * rhs1) / det
        b_unit[m] = (h1[m] * rhs1 - rhs0 * h1p[m]) / det

    modes = np.arange(-n_max, n_max + 1)
    inc = np.exp(0.5j * np.pi * modes) * np.exp(-1j * modes * alpha)
    # F_{-m} = (-1)^m F_m scales every entry of the 2x2 system alike, so
    # the unit solution carries over to negative orders unchanged
    a = inc * a_unit[np.abs(modes)]
    b = inc * b_unit[np.abs(modes)]

    sol = MieSolution(
        radius=radius, k1=k1, k2=k2, nu=nu, alpha=alpha, n_max=n_max, a=a, b=b
    )
    tail = max(abs(a[0]), abs(a[-1]))
    if tail > 1e-14 * max(np.abs(a).max(), 1e-300):
        raise ValueError(
            f"Mie truncation n_max={n_max} not converged: tail/max = {tail / np.abs(a).max():.2e}"
        )
    return sol
