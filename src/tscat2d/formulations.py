"""Block systems for the 2D acoustic transmission problem.

Three assemblies of the same physics:

  * combined-source ("gcsie"): the exterior field is sought as
    DL1(R11 a + R12 b) - SL1(R21 a + R22 b) and the interior field as
    -DL2(R11 a + R12 b - a) + SL2(R21 a + R22 b - b)/nu, with the
    smoothed admittance blocks R11 = nu/(1+nu) I, R12 = -2 S_kappa/(1+nu),
    R21 = 2 nu N_kappa/(1+nu), R22 = I/(1+nu) at a complex wavenumber
    kappa.  Enforcing the jump conditions yields a 2x2 system that is a
    compact perturbation of the identity.

  * combined-source, Calderon-simplified ("gcsie-explicit"): the same
    system with the operator products expanded through the Calderon
    identities S N = K^2 - I/4 etc.; analytically equal to the composed
    form, discretely equal up to quadrature error.

  * classical ("classical"): the direct second-kind system in the
    interior Cauchy data (phi, psi) = (Dirichlet, Neumann traces of the
    interior field), obtained by adding the exterior and interior trace
    relations of the Green representations.

Right-hand sides come from incident plane-wave traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .geometry import Curve, NodeGrid
from .operators import BoundaryOperators, boundary_operator_set

FORMULATIONS = ("gcsie", "gcsie-explicit", "classical")


@dataclass(frozen=True, eq=False)
class TransmissionConfig:
    """Physical and discretization data of one transmission solve.

    delta1/delta2 select optional correction terms of the generic
    regularizer family; only the smoothed two-dimensional choice
    delta1 = delta2 = 0 is implemented here.
    """

    curve: Curve
    k1: float
    k2: float
    nu: float
    kappa: complex | None = None
    n_nodes: int = 128
    delta1: int = 0
    delta2: int = 0

    def __post_init__(self):
        for name in ("k1", "k2", "nu"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v}")
        if self.kappa is None:
            object.__setattr__(self, "kappa", complex(self.k1, 0.5 * self.k1))
        kap = complex(self.kappa)
        object.__setattr__(self, "kappa", kap)
        if not np.isfinite(kap) or kap.real < 0 or kap.imag <= 0:
            raise ValueError(
                f"kappa must be finite with Re kappa >= 0 and Im kappa > 0, got {kap}"
            )
        if self.delta1 != 0 or self.delta2 != 0:
            raise ValueError("only delta1 = delta2 = 0 is supported")
        if self.n_nodes % 2 != 0 or self.n_nodes < 4:
            raise ValueError(f"n_nodes must be even and >= 4, got {self.n_nodes}")


@dataclass(frozen=True)
class IncidentWave:
    """Plane wave e^{i k1 d.x} with unit direction d = (cos alpha, sin alpha)."""

    angle: float
    k1: float

    @property
    def direction(self) -> np.ndarray:
        return np.array([np.cos(self.angle), np.sin(self.angle)])


def incident_traces(wave: IncidentWave, curve: Curve, grid: NodeGrid):
    """Dirichlet and Neumann traces (f, g) of the incident wave on the curve."""
    pos = curve.x(grid.nodes)
    nrm = curve.normal(grid.nodes)
    phase = np.exp(1j * wave.k1 * pos @ wave.direction)
    return phase, 1j * wave.k1 * (nrm @ wave.direction) * phase


@dataclass(frozen=True, eq=False)
class BlockSystem:
    """2x2 block operator with right-hand side on a shared grid."""

    d11: np.ndarray
    d12: np.ndarray
    d21: np.ndarray
    d22: np.ndarray
    rhs: np.ndarray
    formulation: str
    grid: NodeGrid

    def __post_init__(self):
        n = self.grid.n
        for name in ("d11", "d12", "d21", "d22"):
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"block {name} does not match grid size {n}")
        if self.rhs.shape != (2 * n,):
            raise ValueError(f"rhs length {self.rhs.shape} != {2 * n}")

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.d11, self.d12], [self.d21, self.d22]])

    def split(self, x: np.ndarray):
        """Split a stacked solution vector into its two densities."""
        n = self.grid.n
        return x[:n], x[n:]


def operator_sets(
    config: TransmissionConfig,
    grid: NodeGrid,
    wavenumbers,
    ops: Mapping[complex, BoundaryOperators] | None = None,
) -> dict[complex, BoundaryOperators]:
    """Operator sets keyed by wavenumber, reusing those in ``ops``."""
    out = {}
    for k in map(complex, wavenumbers):
        if k in out:
            continue
        if ops is not None and k in ops:
            out[k] = ops[k]
        else:
            out[k] = boundary_operator_set(config.curve, grid, k)
    return out


def smoothed_regularizer(s_kappa, n_kappa, nu: float):
    """Smoothed admittance blocks (R11, R12, R21, R22) from S_kappa and N_kappa.

    R11 = nu/(1+nu) and R22 = 1/(1+nu) are multiples of I and returned as
    scalars; R12 = -2 S_kappa/(1+nu) and R21 = 2 nu N_kappa/(1+nu) have
    the type of their arguments (matrices, or per-mode circle symbols).
    """
    c = 1.0 + nu
    return nu / c, -2.0 / c * s_kappa, 2.0 * nu / c * n_kappa, 1.0 / c


def combined_source_blocks(o1: BoundaryOperators, o2: BoundaryOperators, r, nu: float):
    """Composed form of the combined-source blocks.

    D11 = I/2 - K2 + (K1 + K2) R11 - (S1 + S2/nu) R21, and analogously
    for the other three blocks.  The operators are square arrays: Nystrom
    matrices, or 1x1 per-mode symbols on the circle.  R12 and R21 are
    applied with ``@``; R11 and R22 are applied with ``*``, so they are
    scalars (multiples of I) or, on the circle, 1x1 symbols.
    """
    r11, r12, r21, r22 = r
    eye = np.eye(o1.s.shape[0])
    sum_s = o1.s + o2.s / nu
    sum_k = o1.k + o2.k
    sum_kt = o1.kt + o2.kt
    sum_n = o1.n + nu * o2.n

    d11 = 0.5 * eye - o2.k + r11 * sum_k - sum_s @ r21
    d12 = o2.s / nu + sum_k @ r12 - r22 * sum_s
    d21 = -nu * o2.n + r11 * sum_n - sum_kt @ r21
    d22 = 0.5 * eye + o2.kt + sum_n @ r12 - r22 * sum_kt
    return d11, d12, d21, d22


def combined_source_blocks_explicit(
    o1: BoundaryOperators,
    o2: BoundaryOperators,
    ok: BoundaryOperators,
    nu: float,
):
    """Calderon-simplified form of the combined-source blocks.

    Equal to the composed form for the exact operators; the discrete
    difference is the residual of the discrete Calderon identities.
    """
    eye = np.eye(o1.s.shape[0])
    c = 1.0 + nu
    s1, k1m, kt1, n1 = o1
    s2, k2m, kt2, n2 = o2
    sk, nk, ktk = ok.s, ok.n, ok.kt

    d11 = (
        eye
        - k2m / c
        + nu / c * k1m
        - 2.0 * nu / c * (s1 @ (nk - n1))
        - 2.0 * nu / c * (k1m @ k1m)
        - 2.0 / c * (s2 @ (nk - n2))
        - 2.0 / c * (k2m @ k2m)
    )
    d12 = (s2 - s1) / c - 2.0 / c * ((k1m + k2m) @ sk)
    d21 = nu / c * (n1 - n2) - 2.0 * nu / c * ((kt1 + kt2) @ nk)
    d22 = (
        eye
        + nu / c * kt2
        - kt1 / c
        - 2.0 / c * ((n1 - nk) @ sk)
        - 2.0 * nu / c * ((n2 - nk) @ sk)
        - 2.0 * (ktk @ ktk)
    )
    return d11, d12, d21, d22


def classical_blocks(o1: BoundaryOperators, o2: BoundaryOperators, nu: float):
    """Direct second-kind blocks in the interior Cauchy data (phi, psi)."""
    eye = np.eye(o1.s.shape[0])
    d11 = eye - o1.k + o2.k
    d12 = nu * o1.s - o2.s
    d21 = o2.n - o1.n
    d22 = 0.5 * (1.0 + nu) * eye + nu * o1.kt - o2.kt
    return d11, d12, d21, d22


def assemble(
    config: TransmissionConfig,
    grid: NodeGrid,
    incident: IncidentWave,
    formulation: str,
    ops: Mapping[complex, BoundaryOperators] | None = None,
) -> BlockSystem:
    """Block system of one formulation (gcsie | gcsie-explicit | classical).

    The combined-source right-hand side is minus the incident traces.
    The classical system adds the exterior and interior Dirichlet trace
    relations in row one and the Neumann ones in row two:

        (I - K1 + K2) phi + (nu S1 - S2) psi = (I/2 - K1) f + S1 g
        (N2 - N1) phi + ((1+nu)/2 I + nu K1^T - K2^T) psi
                                             = -N1 f + (I/2 + K1^T) g
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}")
    k1, k2, kappa = complex(config.k1), complex(config.k2), complex(config.kappa)
    wavenumbers = [k1, k2] if formulation == "classical" else [k1, k2, kappa]
    sets = operator_sets(config, grid, wavenumbers, ops)
    o1, o2 = sets[k1], sets[k2]
    f, g = incident_traces(incident, config.curve, grid)
    if formulation == "classical":
        blocks = classical_blocks(o1, o2, config.nu)
        rhs1 = 0.5 * f - o1.k @ f + o1.s @ g
        rhs2 = -(o1.n @ f) + 0.5 * g + o1.kt @ g
        rhs = np.concatenate([rhs1, rhs2])
    else:
        ok = sets[kappa]
        if formulation == "gcsie":
            r = smoothed_regularizer(ok.s, ok.n, config.nu)
            blocks = combined_source_blocks(o1, o2, r, config.nu)
        else:
            blocks = combined_source_blocks_explicit(o1, o2, ok, config.nu)
        rhs = np.concatenate([-f, -g])
    d11, d12, d21, d22 = blocks
    return BlockSystem(
        d11=d11, d12=d12, d21=d21, d22=d22, rhs=rhs, formulation=formulation, grid=grid
    )
