"""Radial nodal solutions and blow-up diagnostics for the critical
exponential-nonlinearity problem -u'' - u'/r = lambda*u*exp(u^2 + alpha*|u|^beta)
on the unit disk.

The namespace is lazy (PEP 562): `import tmb` loads no submodule, and the
first use of an exported name imports only the module that defines it.
`tmb.lambda_of_s` thus needs errors, nonlinearity, records, ode and
shooting, but not the family, diagnostics or Bessel code.
"""

import importlib

_EXPORTS = {
    "nonlinearity": ("ProblemParams",),
    "ode": ("SolverSettings", "Trajectory", "integrate_radial"),
    "bessel": ("Eigenpair", "eigenpairs", "j0", "j0_zero"),
    "shooting": ("RadialSolution", "Trace", "lambda_of_s", "nodal_solution",
                 "solution_at", "solve_unit_lambda", "trace"),
    "analysis": ("NodalDomain", "boundary_flux", "decompose", "energy_report",
                 "identity_residual", "nehari_residual", "sturm_bound_check"),
    "bubbles": ("BubbleDiagnostics", "liouville_reference", "log_gamma_scale",
                "rescale_profile"),
    "families": ("FamilySpec", "FormulaReport", "SolutionSummary", "estimate_limit",
                 "run_family", "summarize", "verify_formulas"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
