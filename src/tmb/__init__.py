"""Radial nodal solutions and blow-up diagnostics for the critical
exponential-nonlinearity problem -u'' - u'/r = lambda*u*exp(u^2 + alpha*|u|^beta)
on the unit disk.
"""

from .nonlinearity import (
    OVERFLOW_BUDGET,
    ProblemParams,
    primitive_F,
)
from .ode import (
    RadialState,
    SolverSettings,
    Trajectory,
    integrate_radial,
)
from .bessel import Eigenpair, eigenpairs, j0, j0_zero
from .shooting import RadialSolution, lambda_of_s, nodal_solution, solve_unit_lambda
from .analysis import (
    EnergyReport,
    NodalDomain,
    boundary_flux,
    decompose,
    energy_report,
    identity_residual,
    nehari_residual,
    sturm_bound_check,
)
from .bubbles import (
    BubbleDiagnostics,
    derivative_bound_check,
    liouville_reference,
    log_gamma_scale,
    rescale_profile,
)
from .families import (
    FamilySpec,
    FormulaReport,
    SequenceExperiment,
    estimate_limit,
    run_family,
    verify_formulas,
)

__version__ = "0.1.0"

__all__ = [
    "OVERFLOW_BUDGET",
    "ProblemParams",
    "primitive_F",
    "RadialState",
    "SolverSettings",
    "Trajectory",
    "integrate_radial",
    "Eigenpair",
    "eigenpairs",
    "j0",
    "j0_zero",
    "RadialSolution",
    "lambda_of_s",
    "nodal_solution",
    "solve_unit_lambda",
    "EnergyReport",
    "NodalDomain",
    "boundary_flux",
    "decompose",
    "energy_report",
    "identity_residual",
    "nehari_residual",
    "sturm_bound_check",
    "BubbleDiagnostics",
    "derivative_bound_check",
    "liouville_reference",
    "log_gamma_scale",
    "rescale_profile",
    "FamilySpec",
    "FormulaReport",
    "SequenceExperiment",
    "estimate_limit",
    "run_family",
    "verify_formulas",
    "__version__",
]
