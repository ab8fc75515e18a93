"""Desk-scale laboratory for free-boundary resistive MHD in flow-map form.

The package advances the tangentially mollified, linearized system with
frozen ring coefficients, iterates it to the nonlinear fixed point, and
audits every run against the energy functionals and structural
identities the construction rests on.
"""

from .correction import correction_field, harmonic_extension
from .diagnostics import (
    EnergyReport,
    LemmaReport,
    alinhac_residual,
    constraint_residuals,
    difference_energy,
    divergence_monitor,
    energy_functionals,
    lemma_suite,
    map_norm,
    nonlinear_residuals,
    physical_energy_balance,
    wave_equation_residual,
)
from .geometry import (
    DegenerateMapError,
    GeometryCache,
    build_geometry,
    cov_div,
    cov_grad,
    cov_grad_vector,
    cov_laplacian,
    piola_residual,
)
from .grid import FieldShapeError, Grid, GridSpec
from .linear_step import (
    BreakdownError,
    CflError,
    DiffusionSolveError,
    FrozenCoefficients,
    Trajectory,
    advance_linearized,
    implicit_diffusion_solve,
    trivial_trajectory,
)
from .picard import (
    IterationLog,
    NonContractionError,
    SweepReport,
    kappa_sweep,
    solve_nonlinear_kappa,
)
from .smoothing import commutator, mollify
from .state import (
    EquationOfState,
    FlowState,
    InitialDataError,
    PRESETS,
    check_compatibility,
    make_initial_data,
    taylor_sign_margin,
)

__version__ = "0.1.0"

__all__ = [
    "BreakdownError",
    "CflError",
    "DegenerateMapError",
    "DiffusionSolveError",
    "EnergyReport",
    "EquationOfState",
    "FieldShapeError",
    "FlowState",
    "FrozenCoefficients",
    "GeometryCache",
    "Grid",
    "GridSpec",
    "InitialDataError",
    "IterationLog",
    "LemmaReport",
    "NonContractionError",
    "PRESETS",
    "SweepReport",
    "Trajectory",
    "advance_linearized",
    "alinhac_residual",
    "build_geometry",
    "check_compatibility",
    "commutator",
    "constraint_residuals",
    "correction_field",
    "cov_div",
    "cov_grad",
    "cov_grad_vector",
    "cov_laplacian",
    "difference_energy",
    "divergence_monitor",
    "energy_functionals",
    "harmonic_extension",
    "implicit_diffusion_solve",
    "kappa_sweep",
    "lemma_suite",
    "make_initial_data",
    "map_norm",
    "mollify",
    "nonlinear_residuals",
    "physical_energy_balance",
    "piola_residual",
    "solve_nonlinear_kappa",
    "taylor_sign_margin",
    "trivial_trajectory",
    "wave_equation_residual",
]
