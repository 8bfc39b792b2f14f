"""Problem parameters and the primitive F of the nonlinearity
f(t) = t*exp(t^2 + alpha*|t|^beta).

The integrator evaluates f(u) itself, at lambda = 1, as one exponent in
the log radius (see ode), and the dilation applies lambda (see shooting),
so f has no standalone form here.  F is off the solve
path too: the potential energy is read off the integrator's flux channel
at zeros of u, and primitive_F is the independent reference for F that
the tests check that channel against.  It evaluates F by quadrature in
binary64 and budgets its exponent before integrating: it is the only place
OverflowBudgetError is raised.  All functions are pure.
"""

from __future__ import annotations

import math

from .errors import OverflowBudgetError
from .quadrature import adaptive_quadrature
from .records import record

# Exponent budget for binary64 work (safety margin below log(DBL_MAX) ~ 709.78).
OVERFLOW_BUDGET = 700.0
# Relative tolerance of primitive_F's quadrature.
PRIMITIVE_REL_TOL = 1e-10


@record
class ProblemParams:
    """The triple (alpha, beta, lambda) defining the equation.

    alpha > 0 is the perturbation strength, beta in (0, 2) the perturbation
    exponent, lam > 0 the eigenparameter; alpha and lam are finite.
    log_lambda (derived, not a field) is ln(lam).
    """

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (0.0 < self.beta < 2.0):
            raise ValueError(f"beta must lie in (0, 2), got {self.beta!r}")
        if not (0.0 < self.lam < math.inf):
            raise ValueError(f"lambda must be positive and finite, got {self.lam!r}")
        object.__setattr__(self, "log_lambda", math.log(self.lam))


def primitive_F(t: float, p: ProblemParams) -> float:
    """Integral of s*exp(s^2 + alpha*s^beta) over s in [0, |t|]; even in t.

    Adaptive quadrature to relative tolerance PRIMITIVE_REL_TOL.
    """
    if t == 0.0:
        return 0.0
    at = abs(t)
    if not math.isfinite(at):
        raise ValueError(f"t must be finite, got {t!r}")
    # Budget the integrand peak, at s = |t|.
    total = at * at + p.alpha * at ** p.beta + math.log(at)
    if total > OVERFLOW_BUDGET:
        raise OverflowBudgetError(total)

    alpha, beta = p.alpha, p.beta

    def integrand(s: float) -> float:
        return s * math.exp(s * s + alpha * s ** beta)

    return adaptive_quadrature(integrand, 0.0, at, rel_tol=PRIMITIVE_REL_TOL)
