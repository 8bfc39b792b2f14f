"""Overflow-safe evaluation of the nonlinearity t*exp(t^2 + alpha*|t|^beta).

The growth is doubly exponential in the amplitudes of interest, so every
operation here budgets the exponent before exponentiating.  `scaled_lambda_f`
additionally folds the eigenparameter into the exponent so that a tiny
lambda cancels a huge exp(t^2) *before* any exp() call.  All functions
are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import OverflowBudgetError
from .quadrature import adaptive_quadrature

# Exponent budget for binary64 work (safety margin below log(DBL_MAX) ~ 709.78).
OVERFLOW_BUDGET = 700.0


@dataclass(frozen=True)
class ProblemParams:
    """The triple (alpha, beta, lambda) defining the equation.

    alpha > 0 is the perturbation strength, beta in (0, 2) the perturbation
    exponent, lam > 0 the eigenparameter.  log_lambda caches ln(lam).
    """

    alpha: float
    beta: float
    lam: float
    log_lambda: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not (0.0 < self.beta < 2.0):
            raise ValueError(f"beta must lie in (0, 2), got {self.beta!r}")
        if not (self.lam > 0.0):
            raise ValueError(f"lambda must be positive, got {self.lam!r}")
        log_lam = math.log(self.lam)
        if self.log_lambda is None:
            object.__setattr__(self, "log_lambda", log_lam)
        elif abs(self.log_lambda - log_lam) > 1e-12 * max(1.0, abs(log_lam)):
            raise ValueError(
                f"log_lambda={self.log_lambda!r} inconsistent with lambda={self.lam!r}"
            )


def nonlinearity_f(t: float, p: ProblemParams) -> float:
    """t * exp(t^2 + alpha*|t|^beta); odd in t.

    Raises OverflowBudgetError when t^2 + alpha|t|^beta + ln|t| exceeds the
    budget; callers in that regime must use scaled_lambda_f instead.
    """
    if t == 0.0:
        return 0.0
    at = abs(t)
    expo = t * t + p.alpha * at ** p.beta
    total = expo + math.log(at)
    if total > OVERFLOW_BUDGET:
        raise OverflowBudgetError(total)
    return t * math.exp(expo)


def scaled_lambda_f(t: float, p: ProblemParams) -> float:
    """lambda * nonlinearity_f(t), evaluated as sign(t)*exp(ln|t| + t^2 + alpha|t|^beta + ln lambda).

    Representable in regimes where the naive product lambda*f(t) overflows
    (tiny lambda against huge exp(t^2)) or underflows.
    """
    if t == 0.0:
        return 0.0
    at = abs(t)
    combined = math.log(at) + t * t + p.alpha * at ** p.beta + p.log_lambda
    if combined > OVERFLOW_BUDGET:
        raise OverflowBudgetError(combined)
    if combined < -745.0:
        return math.copysign(0.0, t)
    return math.copysign(math.exp(combined), t)


def log_abs_lambda_f(t: float, p: ProblemParams) -> float:
    """ln(lambda*|f(t)|) without exponentiating; t must be nonzero."""
    at = abs(t)
    return math.log(at) + t * t + p.alpha * at ** p.beta + p.log_lambda


def primitive_F(t: float, p: ProblemParams, rel_tol: float = 1e-10) -> float:
    """Integral of s*exp(s^2 + alpha*s^beta) over s in [0, |t|]; even in t.

    Adaptive quadrature to relative tolerance 1e-10 (bisection, max depth 40).
    """
    if t == 0.0:
        return 0.0
    at = abs(t)
    if not math.isfinite(at):
        raise ValueError(f"t must be finite, got {t!r}")
    # Budget the integrand peak (at s = |t|), same form as nonlinearity_f.
    total = at * at + p.alpha * at ** p.beta + math.log(at)
    if total > OVERFLOW_BUDGET:
        raise OverflowBudgetError(total)

    alpha, beta = p.alpha, p.beta

    def integrand(s: float) -> float:
        return s * math.exp(s * s + alpha * s ** beta)

    return adaptive_quadrature(integrand, 0.0, at, rel_tol=rel_tol)
