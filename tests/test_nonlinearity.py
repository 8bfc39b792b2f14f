"""Scalar layer: parameters, primitive quadrature, overflow budget."""

import math

import pytest

from tmb.errors import OverflowBudgetError
from tmb.nonlinearity import (
    OVERFLOW_BUDGET,
    ProblemParams,
    primitive_F,
)

P11 = ProblemParams(alpha=1.0, beta=1.0, lam=1.0)

# frozen with mpmath at 40 digits
PRIMITIVE_1_11 = 1.8245680359338611       # int_0^1 s e^{s^2+s} ds
HALF_E_MINUS_1 = 0.8591409142295226       # (e-1)/2


class TestParams:
    def test_log_lambda_cached(self):
        p = ProblemParams(1.0, 1.2, 1e-6)
        assert p.log_lambda == pytest.approx(math.log(1e-6), rel=1e-15)

    @pytest.mark.parametrize("alpha,beta,lam", [
        (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
        (1.0, 0.0, 1.0), (1.0, 2.0, 1.0), (1.0, 2.5, 1.0),
        (1.0, 1.0, 0.0), (1.0, 1.0, -2.0),
        (math.inf, 1.2, 1.0), (1.0, 1.2, math.inf),
        (math.nan, 1.2, 1.0), (1.0, math.nan, 1.0), (1.0, 1.2, math.nan),
    ])
    def test_invalid_rejected(self, alpha, beta, lam):
        with pytest.raises(ValueError):
            ProblemParams(alpha, beta, lam)


class TestPrimitive:
    def test_zero(self):
        assert primitive_F(0.0, P11) == 0.0

    def test_infinite_argument_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            primitive_F(math.inf, P11)

    def test_alpha_disabled_closed_form(self):
        # alpha so small the perturbation term vanishes in floats
        p = ProblemParams(alpha=1e-300, beta=1.0, lam=1.0)
        assert primitive_F(1.0, p) == pytest.approx(HALF_E_MINUS_1, rel=1e-12)

    def test_against_40_digit_value(self):
        assert primitive_F(1.0, P11) == pytest.approx(PRIMITIVE_1_11, rel=1e-12)

    def test_even(self):
        p = ProblemParams(alpha=0.5, beta=1.5, lam=1.0)
        assert primitive_F(-2.0, p) == primitive_F(2.0, p)

    def test_derivative_consistency(self):
        p = ProblemParams(alpha=1.0, beta=1.2, lam=1.0)
        for j in range(1, 21):
            t = 0.17 * j
            h = 1e-5 * max(1.0, t)
            fd = (primitive_F(t + h, p) - primitive_F(t - h, p)) / (2 * h)
            f = t * math.exp(t * t + p.alpha * t ** p.beta)
            assert fd == pytest.approx(f, rel=1e-6)

    def test_deep_amplitude_stays_finite(self):
        assert math.isfinite(primitive_F(24.0, P11))

    def test_overflow_budget(self):
        with pytest.raises(OverflowBudgetError) as exc:
            primitive_F(27.0, P11)
        assert exc.value.exponent > OVERFLOW_BUDGET
