"""Field reconstruction, far fields and boundary quadratic forms.

Potentials are evaluated off the boundary with the plain periodic
trapezoid rule, which is spectrally accurate at distance from the curve;
points closer than 0.1 to the boundary are rejected rather than treated
with near-singular quadrature.

Far-field convention: u(x) ~ (e^{i k1 r}/sqrt(r)) (u_inf(x_hat) + O(1/r)).
For a single-layer density phi this gives

    u_inf = e^{i pi/4}/sqrt(8 pi k1) * int e^{-i k1 x_hat.y} phi ds,

and the double-layer kernel carries the extra factor -i k1 x_hat.n(y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from ._memo import LastValue
from .formulations import (
    IncidentWave,
    TransmissionConfig,
    incident_traces,
    operator_sets,
    smoothed_regularizer,
)
from .geometry import NodeGrid

MIN_EVAL_DISTANCE = 0.1


@dataclass(frozen=True, eq=False)
class FarField:
    """Far-field pattern sampled at observation angles."""

    angles: np.ndarray
    values: np.ndarray
    convention: str = "sqrt(r) * exp(-i k1 r) * u(r x_hat) -> u_inf(x_hat)"


def _check_distance(curve, grid: NodeGrid, points: np.ndarray):
    pos = curve.x(grid.nodes)
    d = np.linalg.norm(points[:, None, :] - pos[None, :, :], axis=-1)
    dmin = d.min()
    if dmin < MIN_EVAL_DISTANCE:
        raise ValueError(
            f"evaluation point at distance {dmin:.3g} from the boundary; "
            f"minimum supported distance is {MIN_EVAL_DISTANCE}"
        )


def single_layer_potential(curve, grid: NodeGrid, k: complex, density, points) -> np.ndarray:
    """SL_k[density] at points away from the curve (trapezoid rule)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_distance(curve, grid, points)
    pos = curve.x(grid.nodes)
    jac = curve.jacobian(grid.nodes)
    r = np.linalg.norm(points[:, None, :] - pos[None, :, :], axis=-1)
    kern = 0.25j * specfun.hankel1(0, k * r)
    return grid.weight * (kern * jac[None, :]) @ np.asarray(density)


def double_layer_potential(curve, grid: NodeGrid, k: complex, density, points) -> np.ndarray:
    """DL_k[density] at points away from the curve (trapezoid rule)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_distance(curve, grid, points)
    pos = curve.x(grid.nodes)
    nrm = curve.normal(grid.nodes)
    jac = curve.jacobian(grid.nodes)
    diff = points[:, None, :] - pos[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    dot = diff[..., 0] * nrm[None, :, 0] + diff[..., 1] * nrm[None, :, 1]
    kern = 0.25j * k * specfun.hankel1(1, k * r) * dot / r
    return grid.weight * (kern * jac[None, :]) @ np.asarray(density)


def _regularized_densities(a, b, config: TransmissionConfig, grid: NodeGrid, ops=None):
    """Double- and single-layer densities of the combined-source ansatz."""
    kap = complex(config.kappa)
    ok = operator_sets(config, grid, [kap], ops)[kap]
    # the blocks are linear in S_kappa and N_kappa: fed S b and N a, the
    # regularizer returns R12 b and R21 a without scaling whole matrices
    r11, r12_b, r21_a, r22 = smoothed_regularizer(ok.s @ b, ok.n @ a, config.nu)
    return r11 * a + r12_b, r21_a + r22 * b


def exterior_densities(
    solution,
    config: TransmissionConfig,
    grid: NodeGrid,
    incident: IncidentWave,
    formulation: str,
    ops=None,
):
    """(double-layer, single-layer) densities of the exterior representation.

    Combined-source: u1 = DL1(dl) - SL1(sl) with the regularized
    densities.  Classical: u1 = DL1(phi - f) - SL1(nu psi - g) from the
    Green representation and the transmission conditions.
    """
    a, b = solution
    if formulation in ("gcsie", "gcsie-explicit"):
        return _regularized_densities(a, b, config, grid, ops)
    if formulation == "classical":
        f, g = incident_traces(incident, config.curve, grid)
        return a - f, config.nu * b - g
    raise ValueError(f"unknown formulation {formulation!r}")


def gcsie_fields(
    solution,
    config: TransmissionConfig,
    grid: NodeGrid,
    points,
    side: str,
    ops=None,
) -> np.ndarray:
    """Evaluate the combined-source field representation off the boundary.

    side="exterior": u1 = DL1(dl) - SL1(sl);
    side="interior": u2 = -DL2(dl - a) + SL2(sl - b)/nu.
    """
    a, b = solution
    dl, sl = _regularized_densities(a, b, config, grid, ops)
    curve = config.curve
    if side == "exterior":
        return double_layer_potential(curve, grid, config.k1, dl, points) - \
            single_layer_potential(curve, grid, config.k1, sl, points)
    if side == "interior":
        return -double_layer_potential(curve, grid, config.k2, dl - a, points) + \
            single_layer_potential(curve, grid, config.k2, (sl - b) / config.nu, points)
    raise ValueError(f"unknown side {side!r}; expected 'exterior' or 'interior'")


# the last jac-weighted plane-wave kernels, while their curve lives
_PLANE_WAVE_KERNELS = LastValue()


def _plane_wave_kernels(curve, grid: NodeGrid, k1: float, angles: np.ndarray):
    """Double- and single-layer far-field kernels times the arc-length Jacobian."""
    pos = curve.x(grid.nodes)
    nrm = curve.normal(grid.nodes)
    jac = curve.jacobian(grid.nodes)
    xhat = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    # a real product for the phase: with OpenBLAS on an AVX-512 Xeon, exp right
    # after a complex matmul ran about 10x slower (same values, 128 x 256)
    phase = np.exp(-1j * (k1 * (xhat @ pos.T)))
    dl_kernel = -1j * k1 * (xhat @ nrm.T) * phase
    return dl_kernel * jac[None, :], phase * jac[None, :]


def far_field_from_densities(curve, grid: NodeGrid, k1: float, dl, sl, angles) -> FarField:
    """Far field of DL(dl) - SL(sl) by the plane-wave kernel quadrature.

    The kernels depend on the curve, the grid size, k1 and the angles only;
    those of the last call are reused while its curve lives and the other
    three are equal.
    """
    angles = np.asarray(angles, dtype=float)
    dl_kernel, sl_kernel = _PLANE_WAVE_KERNELS.get(
        [curve],
        (grid.n, k1, angles.shape, angles.tobytes()),
        lambda: _plane_wave_kernels(curve, grid, k1, angles),
    )
    pref = np.exp(1j * np.pi / 4) / np.sqrt(8.0 * np.pi * k1)
    vals = pref * grid.weight * (dl_kernel @ np.asarray(dl) - sl_kernel @ np.asarray(sl))
    return FarField(angles=angles, values=vals)


def far_field(
    solution,
    config: TransmissionConfig,
    grid: NodeGrid,
    incident: IncidentWave,
    angles,
    formulation: str = "gcsie",
    ops=None,
) -> FarField:
    """Far field of the scattered exterior field for any formulation."""
    dl, sl = exterior_densities(solution, config, grid, incident, formulation, ops)
    return far_field_from_densities(config.curve, grid, config.k1, dl, sl, angles)


def quadratic_form(matrix: np.ndarray, curve, grid: NodeGrid, density) -> complex:
    """Discrete boundary pairing int (A phi) conj(phi) dsigma.

    Trapezoid rule with the arc-length Jacobian of the curve the matrix
    was assembled on.
    """
    density = np.asarray(density)
    if density.shape != (grid.n,):
        raise ValueError(
            f"density shape {density.shape} does not match grid size {grid.n}"
        )
    jac = curve.jacobian(grid.nodes)
    return complex(grid.weight * np.sum((matrix @ density) * np.conj(density) * jac))
