"""Adaptive Gauss-Kronrod integrator."""

import math

import pytest

from tmb.errors import QuadratureFailureError
from tmb.quadrature import _gk15, adaptive_quadrature


def test_weights_integrate_constants():
    val, err = _gk15(lambda x: 1.0, -1.0, 1.0)
    assert val == pytest.approx(2.0, abs=1e-14)
    assert err < 1e-14


def test_polynomial_exactness():
    # K15 is exact through degree 22
    val, _ = _gk15(lambda x: x ** 20, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 21.0, rel=1e-13)


@pytest.mark.parametrize("f,a,b,exact", [
    (math.sin, 0.0, math.pi, 2.0),
    (lambda x: math.exp(-x * x), 0.0, 10.0, 0.5 * math.sqrt(math.pi)),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
])
def test_known_integrals(f, a, b, exact):
    assert adaptive_quadrature([(f, a, b)], rel_tol=1e-12) == pytest.approx(
        exact, rel=1e-11)


def test_sharp_peak_resolved():
    # narrow Gaussian inside a wide interval; cutting it into 32 pieces
    # keeps the peak visible to the error estimator, after which refinement
    # localizes it
    def bump(x):
        return math.exp(-((x - 0.3) / 1e-3) ** 2)

    val = adaptive_quadrature([(bump, j / 32, (j + 1) / 32) for j in range(32)],
                              rel_tol=1e-10)
    assert val == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-8)


def test_many_pieces_under_one_tolerance():
    # 5,000 pieces meet the tolerance on their own and one bump needs
    # bisection: MAX_INTERVALS bounds the bisections, not the pieces
    pieces = [(math.sin, 0.0, 0.5 * math.pi)] * 5000
    pieces.append((lambda x: math.exp(-((x - 0.3) / 1e-2) ** 2), 0.0, 1.0))
    val = adaptive_quadrature(pieces, rel_tol=1e-12)
    assert val == pytest.approx(5000.0 + 1e-2 * math.sqrt(math.pi), rel=1e-12)


def test_empty_interval():
    assert adaptive_quadrature([(math.sin, 2.0, 2.0)]) == 0.0


def test_failure_on_depth_exhaustion():
    # a discontinuity the bisection cannot tame at this tolerance within
    # MAX_DEPTH halvings
    with pytest.raises(QuadratureFailureError, match="bisection depth 40"):
        adaptive_quadrature([(lambda x: 1.0 if x < 1.0 / 3.0 else 0.0, 0.0, 1.0)],
                            rel_tol=1e-13)


def test_failure_on_interval_budget():
    # 318 jumps: each needs its own run of bisections, and together they
    # exhaust MAX_INTERVALS before the depth limit
    with pytest.raises(QuadratureFailureError, match="interval budget 4000"):
        adaptive_quadrature(
            [(lambda x: 1.0 if math.sin(1000.0 * x) > 0.0 else 0.0, 0.0, 1.0)],
            rel_tol=1e-13)


def test_failure_on_unsplittable_interval():
    # no float lies between 1 and 1 + ulp; the nodes left of the centre round
    # to the float below 1, so the jump at 1 still shows in the error estimate
    b = math.nextafter(1.0, 2.0)
    with pytest.raises(QuadratureFailureError, match="no longer splittable"):
        adaptive_quadrature([(lambda x: 1.0 if x < 1.0 else 0.0, 1.0, b)], rel_tol=1e-13)


def test_steep_integrand_closed_form():
    # int_0^2 x e^{x^2} dx = (e^4 - 1)/2
    a = adaptive_quadrature([(lambda x: x * math.exp(x * x), 0.0, 2.0)], rel_tol=1e-12)
    assert a == pytest.approx(0.5 * math.expm1(4.0), rel=1e-12)
