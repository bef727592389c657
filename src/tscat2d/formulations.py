"""Block systems for the 2D acoustic transmission problem.

Three assemblies of the same physics:

  * combined-source ("gcsie"): the exterior field is sought as
    DL1(R11 a + R12 b) - SL1(R21 a + R22 b) and the interior field as
    -DL2(R11 a + R12 b - a) + SL2(R21 a + R22 b - b)/nu, with the
    smoothed admittance blocks R11 = nu/(1+nu) I, R12 = -2 S_kappa/(1+nu),
    R21 = 2 nu N_kappa/(1+nu), R22 = I/(1+nu) at a complex wavenumber
    kappa.  Enforcing the jump conditions yields a 2x2 system that is a
    compact perturbation of the identity.

  * combined-source, Calderon-simplified ("gcsie-explicit"): the paper's
    expansion of the same system through the Calderon identities
    S N = K^2 - I/4 and N S = (K^T)^2 - I/4, built as the composed system
    plus the discrete Calderon residuals in D11 and D22; analytically equal
    to the composed form, discretely equal up to those residuals, which
    are quadrature error.

  * classical ("classical"): the direct second-kind system in the
    interior Cauchy data (phi, psi) = (Dirichlet, Neumann traces of the
    interior field), obtained by adding the exterior and interior trace
    relations of the Green representations.

Right-hand sides come from incident plane-wave traces.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._memo import LastValue, freeze
from .geometry import Curve, NodeGrid, is_finite_real, is_integer
from .operators import BoundaryOperators, boundary_operator_set

FORMULATIONS = ("gcsie", "gcsie-explicit", "classical")


class ConfigError(ValueError):
    """An input violates its field's type or range; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True, eq=False)
class TransmissionConfig:
    """Physical and discretization data of one transmission solve.

    Every field is checked here, for type and value, and nowhere else; a
    violation raises ConfigError with the field name as its path.  kappa
    defaults to k1 + i k1/2.
    """

    curve: Curve
    k1: float
    k2: float
    nu: float
    kappa: complex | None = None
    n_nodes: int = 128

    def __post_init__(self):
        for name in ("k1", "k2", "nu"):
            v = getattr(self, name)
            if not (is_finite_real(v) and v > 0):
                raise ConfigError(name, f"must be a finite positive number, got {v!r}")
            object.__setattr__(self, name, float(v))
        kap = complex(self.k1, 0.5 * self.k1) if self.kappa is None else self.kappa
        if isinstance(kap, bool) or not isinstance(kap, numbers.Complex) or not cmath.isfinite(kap):
            raise ConfigError("kappa", f"must be a finite number, got {kap!r}")
        if kap.real < 0 or kap.imag <= 0:
            raise ConfigError("kappa", f"must have Re kappa >= 0 and Im kappa > 0, got {kap!r}")
        object.__setattr__(self, "kappa", complex(kap))
        n = self.n_nodes
        if not (is_integer(n) and n % 2 == 0 and n >= 4):
            raise ConfigError("n_nodes", f"must be an even integer >= 4, got {n!r}")
        object.__setattr__(self, "n_nodes", int(n))


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


def _check_k1(config: TransmissionConfig, incident: IncidentWave) -> None:
    """ValueError unless the incident wave travels at the configuration's exterior wavenumber."""
    if incident.k1 != config.k1:
        raise ValueError(f"incident wave has k1 = {incident.k1!r}, the configuration k1 = {config.k1!r}")


def _check_grid(config: TransmissionConfig, grid: NodeGrid) -> None:
    """ValueError unless the grid has the configuration's n_nodes nodes."""
    if grid.n != config.n_nodes:
        raise ValueError(f"grid has {grid.n} nodes, the configuration n_nodes = {config.n_nodes}")


def _block(i: int, j: int) -> property:
    def view(self) -> np.ndarray:
        n = self.grid.n
        return self.matrix[i * n : (i + 1) * n, j * n : (j + 1) * n]

    return property(view, doc=f"Block ({i + 1}, {j + 1}), a view of ``matrix``.")


@dataclass(frozen=True, eq=False)
class BlockSystem:
    """2x2 block system with right-hand side on a shared grid.

    The stacked 2N x 2N matrix is stored once; d11, d12, d21 and d22 are
    views of its quarters.  ``assemble`` returns it read-only, and returns
    the same matrix object for every incident wave of a sweep over one set
    of operator arrays.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    formulation: str
    grid: NodeGrid

    d11 = _block(0, 0)
    d12 = _block(0, 1)
    d21 = _block(1, 0)
    d22 = _block(1, 1)

    def __post_init__(self):
        n = self.grid.n
        if self.matrix.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match grid size {n}")
        if self.rhs.shape != (2 * n,):
            raise ValueError(f"rhs length {self.rhs.shape} != {2 * n}")

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
    ops = ops or {}
    return {
        k: ops[k] if k in ops else boundary_operator_set(config.curve, grid, k)
        for k in dict.fromkeys(map(complex, wavenumbers))
    }


def smoothed_regularizer(s_kappa, n_kappa, nu: float):
    """Smoothed admittance blocks (R11, R12, R21, R22) from S_kappa and N_kappa.

    R11 = nu/(1+nu) and R22 = 1/(1+nu) are multiples of I and returned as
    scalars; R12 = -2 S_kappa/(1+nu) and R21 = 2 nu N_kappa/(1+nu) have
    the type of their arguments (matrices, or per-mode circle symbols).
    """
    c = 1.0 + nu
    return nu / c, -2.0 / c * s_kappa, 2.0 * nu / c * n_kappa, 1.0 / c


def _stacked(n: int):
    """A zero 2n x 2n complex matrix and its four n x n quarters, as views."""
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    return out, (out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:])


def combined_source_blocks(o1: BoundaryOperators, o2: BoundaryOperators, r, nu: float):
    """Composed form of the combined-source system, as the stacked 2N x 2N matrix.

    D11 = I/2 - K2 + (K1 + K2) R11 - (S1 + S2/nu) R21, and analogously
    for the other three blocks.  The operators are square arrays: Nystrom
    matrices, or 1x1 per-mode symbols on the circle.  R12 and R21 are
    applied with ``@``; R11 and R22 are applied with ``*``, so they are
    scalars (multiples of I) or, on the circle, 1x1 symbols.  Each block is
    written into its quarter of one array, one block row at a time.
    """
    r11, r12, r21, r22 = r
    out, (d11, d12, d21, d22) = _stacked(o1.s.shape[0])
    np.fill_diagonal(out, 0.5)  # I/2 in D11 and D22

    d12[...] = o2.s / nu
    sum_s = o1.s + d12
    sum_k = o1.k + o2.k
    d11 -= o2.k
    d11 += r11 * sum_k
    d11 -= sum_s @ r21
    d12 += sum_k @ r12
    d12 -= r22 * sum_s
    del sum_s, sum_k

    sum_kt = o1.kt + o2.kt
    sum_n = o1.n + nu * o2.n
    d21[...] = -nu * o2.n
    d21 += r11 * sum_n
    d21 -= sum_kt @ r21
    d22 += o2.kt
    d22 += sum_n @ r12
    d22 -= r22 * sum_kt
    return out


def _calderon_residual(a, b, e):
    """a b - e e + I/4, which the Calderon identities S N = K^2 - I/4 and N S = (K^T)^2 - I/4 make zero."""
    out = a @ b
    out -= e @ e
    out[np.diag_indices_from(out)] += 0.25
    return out


def combined_source_blocks_explicit(
    o1: BoundaryOperators,
    o2: BoundaryOperators,
    ok: BoundaryOperators,
    nu: float,
):
    """Calderon-simplified form of the combined-source system, as the stacked matrix.

    The composed system plus the discrete Calderon residuals C(a, b, e) =
    a b - e e + I/4: D11 gains 2 R11 C(S1, N1, K1) + 2 R22 C(S2, N2, K2),
    D22 gains 2 C(N_kappa, S_kappa, K_kappa^T).  For any matrices, and for
    1x1 circle symbols, this is the paper's expansion of the products
    through S N = K^2 - I/4 and N S = (K^T)^2 - I/4.
    """
    r11, _, _, r22 = r = smoothed_regularizer(ok.s, ok.n, nu)
    out = combined_source_blocks(o1, o2, r, nu)
    n = o1.s.shape[0]
    out[:n, :n] += 2.0 * r11 * _calderon_residual(o1.s, o1.n, o1.k)
    out[:n, :n] += 2.0 * r22 * _calderon_residual(o2.s, o2.n, o2.k)
    out[n:, n:] += 2.0 * _calderon_residual(ok.n, ok.s, ok.kt)
    return out


def classical_blocks(o1: BoundaryOperators, o2: BoundaryOperators, nu: float):
    """Direct second-kind system in the interior Cauchy data (phi, psi), as the stacked matrix."""
    out, (d11, d12, d21, d22) = _stacked(o1.s.shape[0])
    np.fill_diagonal(d11, 1.0)
    d11 -= o1.k
    d11 += o2.k
    np.subtract(nu * o1.s, o2.s, out=d12)
    np.subtract(o2.n, o1.n, out=d21)
    np.fill_diagonal(d22, 0.5 * (1.0 + nu))
    d22 += nu * o1.kt
    d22 -= o2.kt
    return out


# the last composed matrix, while its operator arrays live
_SYSTEM_MATRIX = LastValue()


def _composed_matrix(formulation: str, used, nu: float) -> np.ndarray:
    """Stacked read-only 2N x 2N matrix of one formulation from its operator sets."""
    if formulation == "classical":
        return freeze(classical_blocks(*used, nu))
    o1, o2, ok = used
    if formulation == "gcsie":
        return freeze(combined_source_blocks(o1, o2, smoothed_regularizer(ok.s, ok.n, nu), nu))
    return freeze(combined_source_blocks_explicit(o1, o2, ok, nu))


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

    The matrix depends on the operator arrays, the formulation and nu, not
    on the incident wave.  Called again with the same read-only arrays (as
    ``boundary_operator_set`` returns them) and equal formulation and nu, it
    returns the matrix object of the last call instead of composing anew.
    An incident wave at another k1 than the configuration's, or a grid of
    another size than its n_nodes, raises ValueError.
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}")
    _check_k1(config, incident)
    _check_grid(config, grid)
    k1, k2, kappa = complex(config.k1), complex(config.k2), complex(config.kappa)
    wavenumbers = [k1, k2] if formulation == "classical" else [k1, k2, kappa]
    sets = operator_sets(config, grid, wavenumbers, ops)
    used = [sets[k] for k in wavenumbers]
    matrix = _SYSTEM_MATRIX.get(
        [m for o in used for m in o],
        (formulation, config.nu),
        lambda: _composed_matrix(formulation, used, config.nu),
    )
    f, g = incident_traces(incident, config.curve, grid)
    if formulation == "classical":
        o1 = sets[k1]
        rhs1 = 0.5 * f - o1.k @ f + o1.s @ g
        rhs2 = -(o1.n @ f) + 0.5 * g + o1.kt @ g
        rhs = np.concatenate([rhs1, rhs2])
    else:
        rhs = np.concatenate([-f, -g])
    return BlockSystem(matrix=matrix, rhs=rhs, formulation=formulation, grid=grid)
