"""Boundary-integral solver for 2D acoustic transmission scattering.

Nystrom discretization of the Helmholtz layer operators on smooth closed
curves, a regularized combined-source formulation alongside a classical
second-kind baseline, dense direct/GMRES solvers, and analytic circle
references (Mie series, operator symbols) for validation.
"""

from .analytic import (
    InteriorPoleError,
    MieSolution,
    approx_admittance_symbols,
    circle_dtn_symbol,
    circle_operator_symbol,
    combined_source_symbol_matrix,
    exact_admittance_symbols,
    mie_solve,
    smoothing_order,
)
from .formulations import (
    BlockSystem,
    ConfigError,
    IncidentWave,
    TransmissionConfig,
    assemble,
    combined_source_blocks,
    incident_traces,
    smoothed_regularizer,
)
from .geometry import Curve, NodeGrid, grid, make_circle, make_curve, make_ellipse, make_kite
from .operators import (
    BoundaryOperators,
    boundary_operator_set,
    fourier_coeffs,
    fourier_modes,
    kress_log_weights,
    spectral_derivative,
    spectral_derivative_matrix,
)
from .postprocess import (
    FarField,
    double_layer_potential,
    far_field,
    far_field_from_densities,
    gcsie_fields,
    quadratic_form,
    single_layer_potential,
)
from .solver import SolveReport, gmres, lu_solve, norm2_estimate, sigma_min_estimate
from .specfun import (
    EULER_GAMMA,
    SpecialFunctionError,
    bessel_j,
    bessel_j_seq,
    bessel_y,
    derivative_seq,
    hankel1,
    hankel1_seq,
)

__version__ = "0.1.0"
