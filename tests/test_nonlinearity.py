"""Scalar layer: closed forms, overflow budget, primitive quadrature."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tmb.errors import OverflowBudgetError
from tmb.nonlinearity import (
    OVERFLOW_BUDGET,
    ProblemParams,
    nonlinearity_f,
    primitive_F,
    scaled_lambda_f,
)
from tmb.quadrature import fixed_composite_gauss

P11 = ProblemParams(alpha=1.0, beta=1.0, lam=1.0)

# frozen with mpmath at 40 digits
F_2_HALF_1P5 = 449.1517226093553          # 2*exp(4 + 0.5*2^1.5)
SCALED_20 = 5.066550724721436e+177        # exp(ln 20 + 400 + 20 + ln 1e-6)
PRIMITIVE_1_11 = 1.8245680359338611       # int_0^1 s e^{s^2+s} ds
HALF_E_MINUS_1 = 0.8591409142295226       # (e-1)/2


class TestParams:
    def test_log_lambda_cached(self):
        p = ProblemParams(1.0, 1.2, 1e-6)
        assert p.log_lambda == pytest.approx(math.log(1e-6), rel=1e-15)

    def test_log_lambda_consistency_enforced(self):
        with pytest.raises(ValueError):
            ProblemParams(1.0, 1.2, 1e-6, log_lambda=0.0)

    @pytest.mark.parametrize("alpha,beta,lam", [
        (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
        (1.0, 0.0, 1.0), (1.0, 2.0, 1.0), (1.0, 2.5, 1.0),
        (1.0, 1.0, 0.0), (1.0, 1.0, -2.0),
    ])
    def test_invalid_rejected(self, alpha, beta, lam):
        with pytest.raises(ValueError):
            ProblemParams(alpha, beta, lam)


class TestNonlinearityF:
    def test_zero(self):
        assert nonlinearity_f(0.0, P11) == 0.0

    def test_unit_value(self):
        assert nonlinearity_f(1.0, P11) == pytest.approx(math.e ** 2, rel=1e-14)

    def test_frozen_value(self):
        p = ProblemParams(alpha=0.5, beta=1.5, lam=1.0)
        assert nonlinearity_f(2.0, p) == pytest.approx(F_2_HALF_1P5, rel=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=20.0,
                     allow_nan=False, allow_subnormal=False))
    def test_odd(self, t):
        p = ProblemParams(alpha=1.3, beta=0.8, lam=1.0)
        assert nonlinearity_f(-t, p) == -nonlinearity_f(t, p)

    def test_monotone_on_grid(self):
        p = ProblemParams(alpha=2.0, beta=0.5, lam=1.0)
        grid = [0.01 * j for j in range(0, 1500)]
        vals = [nonlinearity_f(t, p) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_overflow_budget(self):
        with pytest.raises(OverflowBudgetError) as exc:
            nonlinearity_f(27.0, P11)
        assert exc.value.exponent > OVERFLOW_BUDGET


class TestScaledLambdaF:
    def test_zero(self):
        p = ProblemParams(1.0, 1.0, 1e-6)
        assert scaled_lambda_f(0.0, p) == 0.0

    def test_frozen_deep_value(self):
        p = ProblemParams(1.0, 1.0, 1e-6)
        assert scaled_lambda_f(20.0, p) == pytest.approx(SCALED_20, rel=1e-12)
        # the naive product is still representable here and must agree
        assert scaled_lambda_f(20.0, p) == pytest.approx(
            1e-6 * nonlinearity_f(20.0, p), rel=1e-12)

    def test_reduces_to_f_at_unit_lambda(self):
        assert scaled_lambda_f(1.0, P11) == pytest.approx(math.e ** 2, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.05, max_value=18.0, allow_subnormal=False),
           st.floats(min_value=-18.0, max_value=2.0, allow_subnormal=False))
    def test_ratio_is_lambda(self, t, log10_lam):
        lam = 10.0 ** log10_lam
        p = ProblemParams(alpha=1.0, beta=1.2, lam=lam)
        naive = lam * nonlinearity_f(t, p)
        if naive == 0.0 or math.isinf(naive):
            return
        assert scaled_lambda_f(t, p) / nonlinearity_f(t, p) == pytest.approx(
            lam, rel=1e-12)

    def test_overflow_reports_exponent(self):
        p = ProblemParams(1.0, 1.0, 1e6)
        with pytest.raises(OverflowBudgetError) as exc:
            scaled_lambda_f(26.5, p)
        assert exc.value.exponent > OVERFLOW_BUDGET

    def test_representable_where_naive_product_is_not(self):
        # lambda*f(t) with t=25: f alone busts the double budget, the
        # combined exponent does not
        p = ProblemParams(1.0, 1.0, 1e-60)
        with pytest.raises(OverflowBudgetError):
            nonlinearity_f(26.0, p)
        assert math.isfinite(scaled_lambda_f(26.0, p))


class TestPrimitive:
    def test_zero(self):
        assert primitive_F(0.0, P11) == 0.0

    def test_alpha_disabled_closed_form(self):
        # alpha so small the perturbation term vanishes in floats
        p = ProblemParams(alpha=1e-300, beta=1.0, lam=1.0)
        assert primitive_F(1.0, p) == pytest.approx(HALF_E_MINUS_1, rel=1e-12)

    def test_against_fixed_order_composite(self):
        val = primitive_F(1.0, P11)
        oracle = fixed_composite_gauss(
            lambda s: s * math.exp(s * s + s), 0.0, 1.0, panels=64)
        assert val == pytest.approx(oracle, rel=1e-9)
        assert val == pytest.approx(PRIMITIVE_1_11, rel=1e-12)

    def test_even(self):
        p = ProblemParams(alpha=0.5, beta=1.5, lam=1.0)
        assert primitive_F(-2.0, p) == primitive_F(2.0, p)

    def test_derivative_consistency(self):
        p = ProblemParams(alpha=1.0, beta=1.2, lam=1.0)
        for j in range(1, 21):
            t = 0.17 * j
            h = 1e-5 * max(1.0, t)
            fd = (primitive_F(t + h, p) - primitive_F(t - h, p)) / (2 * h)
            assert fd == pytest.approx(nonlinearity_f(t, p), rel=1e-6)

    def test_deep_amplitude_stays_finite(self):
        assert math.isfinite(primitive_F(24.0, P11))

    def test_overflow_budget(self):
        with pytest.raises(OverflowBudgetError):
            primitive_F(27.0, P11)
