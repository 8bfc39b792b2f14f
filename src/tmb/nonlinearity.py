"""Problem parameters of the equation -u'' - u'/r = lambda*f(u), with
f(t) = t*exp(t^2 + alpha*|t|^beta).

The integrator evaluates f(u) itself, at lambda = 1, as one exponent in
the log radius (see ode), and the dilation applies lambda (see shooting),
so f has no standalone form here.  Nor has its primitive F: the potential
energy is read off the integrator's flux channel at zeros of u, and the
independent reference for F that the tests check that channel against
lives in the tests.
"""

from __future__ import annotations

import math

from .records import record


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
