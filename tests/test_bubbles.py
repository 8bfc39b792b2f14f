"""Rescaled bubble profiles against the Liouville limit shape."""

import math
from types import SimpleNamespace

import pytest

from tmb.bubbles import (
    PROFILE_GRID,
    derivative_bound_check,
    liouville_reference,
    log_gamma_scale,
    rescale_profile,
)
from tmb.errors import WindowTooLargeError
from tmb.families import FamilySpec
from tmb.nonlinearity import ProblemParams
from tmb.quadrature import adaptive_quadrature
from tmb.shooting import RadialSolution

from conftest import run_family_keeping_solutions

GAMMA_5_1E3 = 1.3680367662340201e-06  # exp(-(ln2 + ln 1e-3 + 2 ln 5 + 30)/2)


class TestGammaScale:
    def test_frozen_value(self):
        p = ProblemParams(1.0, 1.0, 1e-3)
        assert math.exp(log_gamma_scale(5.0, p)) == pytest.approx(GAMMA_5_1E3,
                                                                  rel=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 3.0, 10.0, 20.0])
    def test_defining_identity_in_logs(self, mu):
        # 2*lambda*mu*f(mu)*gamma^2 = 1, assembled in log space
        p = ProblemParams(1.0, 1.2, 1e-4)
        log_lambda_f = math.log(mu) + mu * mu + p.alpha * mu ** p.beta + p.log_lambda
        total = (math.log(2.0) + math.log(mu) + log_lambda_f
                 + 2.0 * log_gamma_scale(mu, p))
        assert abs(total) <= 1e-12 * max(1.0, mu * mu)

    def test_strictly_decreasing_in_mu(self):
        p = ProblemParams(1.0, 1.2, 1e-3)
        vals = [log_gamma_scale(0.5 * j, p) for j in range(1, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma_scale(0.0, ProblemParams(1.0, 1.0, 1.0))

    def test_finite_where_gamma_underflows(self):
        # gamma itself is ~exp(-5e7) here
        assert math.isfinite(log_gamma_scale(1e4, ProblemParams(1.0, 1.2, 1e-3)))


class TestLiouvilleReference:
    def test_origin_values(self):
        z, phi = liouville_reference(0.0, 1.2, 1.0)
        assert z == 0.0
        assert phi == 0.0

    def test_sqrt8_value(self):
        z, _ = liouville_reference(math.sqrt(8.0), 1.2, 1.0)
        assert z == pytest.approx(-math.log(4.0), rel=1e-14)

    def test_mass_is_four(self):
        val = adaptive_quadrature(
            lambda r: math.exp(liouville_reference(r, 1.0, 1.0)[0]) * r,
            0.0, 1e5, rel_tol=1e-10)
        # tail beyond R: 32/(8+R^2)
        assert val == pytest.approx(4.0, abs=1e-8)

    def test_limit_equation(self):
        # -z'' - z'/r = e^z by central differences
        h = 1e-4
        for r in (0.5, 1.7, 4.0):
            z = lambda x: liouville_reference(x, 1.0, 1.0)[0]
            d1 = (z(r + h) - z(r - h)) / (2 * h)
            d2 = (z(r + h) - 2 * z(r) + z(r - h)) / (h * h)
            assert -d2 - d1 / r == pytest.approx(math.exp(z(r)), rel=1e-5)

    def test_correction_shape(self):
        # phi scales linearly in alpha*beta and vanishes only at 0
        _, a = liouville_reference(2.0, 1.2, 1.0)
        _, b = liouville_reference(2.0, 0.6, 2.0)
        assert a == pytest.approx(b, rel=1e-14)
        assert a > 0.0


class TestRescaleProfile:
    def test_peak_value_exactly_zero(self, sol_deep):
        diag = rescale_profile(sol_deep, 1)
        assert diag.samples[0][:2] == (0.0, 0.0)

    def test_profile_nonpositive(self, sol_deep):
        diag = rescale_profile(sol_deep, 1)
        assert all(zv <= 0.0 for _, zv, *_ in diag.samples)

    def test_rows_carry_the_reference(self, sol_deep):
        # each row is (r, z_n, z, phi), the profile CSVs' columns
        p = sol_deep.params
        diag = rescale_profile(sol_deep, 1)
        assert [r for r, *_ in diag.samples] == list(PROFILE_GRID)
        for r, _, z, phi in diag.samples:
            assert (z, phi) == liouville_reference(r, p.beta, p.alpha)

    def test_window_too_large(self, sol_k1):
        # the outer domain's bubble at lambda = 3 is too wide: the window
        # reaches log radius 0.699, past the boundary at 0
        with pytest.raises(WindowTooLargeError):
            rescale_profile(sol_k1, 2)

    def test_default_grid(self):
        assert len(PROFILE_GRID) == 61
        assert PROFILE_GRID[0] == 0.0 and PROFILE_GRID[-1] == 6.0

    def test_sup_deviation_decreases_along_family(self, reference_family):
        sups = [rec.bubbles[0].sup_deviation for rec in reference_family.records]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_correction_fit_converges(self, reference_family):
        recs = reference_family.records
        first, last = recs[0].bubbles[0], recs[-1].bubbles[0]
        assert recs[-1].peak_values[0] >= 12.0
        assert abs(last.coefficient_ratio - 1.0) <= 0.10
        assert abs(last.coefficient_ratio - 1.0) < abs(first.coefficient_ratio - 1.0)

    def test_bad_domain_index(self, sol_mid):
        with pytest.raises(ValueError):
            rescale_profile(sol_mid, 2)


class TestDerivativeBound:
    def test_every_bubble(self, reference_family):
        for rec, sol in zip(reference_family.records, reference_family.solutions):
            assert derivative_bound_check(rec.bubbles[0], sol, 1)

    def test_inner_window_second_domain(self, two_bubble_deep):
        # the outer bubble of the lambda = 1e-4 member, whose peak sits off
        # the origin (rho/gamma = 0.042)
        recs, sols = two_bubble_deep
        assert derivative_bound_check(recs[-1].bubbles[1], sols[-1], 2)

    def test_bad_domain_index(self, sol_mid):
        diag = rescale_profile(sol_mid, 1)
        for i in (0, 2):
            with pytest.raises(ValueError, match="out of range"):
                derivative_bound_check(diag, sol_mid, i)

    def test_wrong_sign_fails(self, sol_mid):
        # a fake trajectory whose r*u' has the wrong sign: z_n would rise
        # from the peak, below the bound's lower side
        traj = sol_mid.trajectory
        flipped = SimpleNamespace(ru_log=lambda t: -traj.ru_log(t))
        sol = RadialSolution(sol_mid.params, flipped, sol_mid.log_nodal_radii,
                             sol_mid.log_peak_radii, sol_mid.peak_values,
                             sol_mid.boundary_ru)
        diag = rescale_profile(sol_mid, 1)
        assert derivative_bound_check(diag, sol_mid, 1)
        assert not derivative_bound_check(diag, sol, 1)

    def test_exact_profile_satisfies_bound(self):
        # -z'(r) = 4r/(8+r^2) <= r/2 for the limit profile itself
        for r in (0.1, 1.0, 3.0, 10.0):
            assert 4.0 * r / (8.0 + r * r) <= 0.5 * r + 1e-15


def _family_records(k, beta, lams):
    """(records, the solution each record summarises)."""
    spec = FamilySpec(k=k, alpha=1.0, lambda_schedule=lams,
                      beta_schedule=(beta,) * len(lams))
    exp, solutions = run_family_keeping_solutions(spec)
    return exp.records, solutions


@pytest.fixture(scope="module")
def two_bubble_deep():
    """The two_bubble_deep schedule: k = 1, beta = 1.3, lambda = 0.1 ... 1e-4."""
    return _family_records(1, 1.3, (0.1, 0.01, 0.001, 0.0001))


class TestDeepRegime:
    """The limit profile where it is sharpest: criterion 4's shape on
    bubbles whose gamma underflows binary64."""

    def test_k0_profile_converges(self):
        # peaks from ~45 to ~490
        recs, sols = _family_records(0, 1.2, (1e-20, 1e-50, 1e-100, 1e-200, 1e-300))
        assert len(recs) == 5
        diags = [rec.bubbles[0] for rec in recs]
        assert all(d is not None for d in diags)
        sups = [d.sup_deviation for d in diags]
        assert all(b < a for a, b in zip(sups, sups[1:]))
        devs = [abs(d.coefficient_ratio - 1.0) for d in diags]
        assert max(devs) <= 0.10
        assert devs[-1] < devs[0]
        for sol, d in zip(sols, diags):
            assert derivative_bound_check(d, sol, 1)

    def test_two_bubble_inner_profile_converges(self, two_bubble_deep):
        # inner peaks from ~7e2 to ~4e4
        recs, sols = two_bubble_deep
        assert len(recs) == 4
        diags = [rec.bubbles[0] for rec in recs]
        assert all(d is not None for d in diags)
        sups = [d.sup_deviation for d in diags]
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert all(abs(d.coefficient_ratio - 1.0) <= 0.10 for d in diags)
        for sol, d in zip(sols, diags):
            assert derivative_bound_check(d, sol, 1)
