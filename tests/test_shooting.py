"""Shooting construction: eigenvalue limits, dilation, branch finding."""

import math

import pytest

from tmb.errors import NoSolutionInRangeError, ZeroNotReachedError
from tmb.nonlinearity import ProblemParams
from tmb import shooting
from tmb.ode import SolverSettings, first_integral_residual
from tmb.shooting import (
    amplitude_budget,
    lambda_of_s,
    nodal_solution,
    solve_unit_lambda,
)

from conftest import L1, SCAN_POINTS, T1, T2

P12 = ProblemParams(alpha=1.0, beta=1.2, lam=1.0)


class TestUnitShooting:
    def test_first_zero_linear_limit(self):
        zeros, _ = solve_unit_lambda(1e-8, 0, P12)
        assert zeros[0] == pytest.approx(T1, abs=1e-4)

    def test_second_zero_linear_limit(self):
        zeros, _ = solve_unit_lambda(1e-8, 1, P12)
        assert zeros[1] == pytest.approx(T2, abs=1e-3)

    def test_zeros_strictly_increase(self):
        zeros, _ = solve_unit_lambda(3.0, 2, P12)
        assert all(b > a for a, b in zip(zeros, zeros[1:]))

    def test_requires_unit_lambda(self):
        with pytest.raises(ValueError):
            solve_unit_lambda(1.0, 0, ProblemParams(1.0, 1.2, 2.0))


class TestLambdaOfS:
    def test_eigenvalue_limit_k0(self):
        lam = lambda_of_s(1e-6, 0, P12)
        assert lam == pytest.approx(L1, rel=1e-3)

    def test_eigenvalue_limit_k1(self):
        lam = lambda_of_s(1e-6, 1, P12)
        assert lam == pytest.approx(T2 * T2, rel=1e-2)

    def test_large_amplitude_trend(self):
        vals = [lambda_of_s(s, 0, P12) for s in (10.0, 12.25, 15.0)]
        assert vals[-1] < 1e-2
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestNodalSolution:
    def test_roundtrip(self, sol_mid):
        lam = lambda_of_s(sol_mid.amplitude, 0, P12)
        assert lam == pytest.approx(1e-3, rel=1e-10)

    def test_bifurcation_from_first_eigenvalue(self):
        sols = nodal_solution(0, L1 * (1 - 1e-4), P12, scan_points=SCAN_POINTS)
        assert len(sols) >= 1
        assert sols[0].amplitude < 1e-1
        assert sols[0].peak_values[0] == sols[0].amplitude

    def test_scan_noise_bracket_dropped(self, monkeypatch):
        # at scan tolerance lambda(s) - target changes sign on this bracket
        # near Lambda_1, but at full tolerance there is no root in it: the
        # full-tolerance secant stalls and the bracket is dropped without
        # re-evaluating its ends (the real root is found by
        # test_bifurcation_from_first_eigenvalue).  The coarse secant runs
        # to its cap here: 2 end evaluations + 12 iterations at scan tolerance
        full = SolverSettings()
        calls, scan_calls = [], []

        def counting(s, k, p0, settings=None):
            (calls if settings is full else scan_calls).append(s)
            return solve_unit_lambda(s, k, p0, settings)

        monkeypatch.setattr(shooting, "solve_unit_lambda", counting)
        traj = shooting._polish_bracket(0, L1 * (1 - 1e-4), P12, 1e-6,
                                        1.43736615134483e-6, full)
        assert traj is None
        assert len(calls) <= 4
        assert len(scan_calls) <= 14

    def test_no_solution_beyond_range(self):
        # 7.0 lies above the k=0 branch, whose eigenvalues stay below
        # Lambda_1 = 5.78 (small targets such as 1e-15 are now reached)
        with pytest.raises(NoSolutionInRangeError) as exc:
            nodal_solution(0, 7.0, P12, scan_points=SCAN_POINTS)
        lo, hi = exc.value.lam_range
        assert 0.0 < lo < hi < 7.0  # diagnostic carries the scanned lambda range

    def test_solution_structure(self, sol_mid):
        assert sol_mid.k == 0
        assert sol_mid.nodal_radii == (1.0,)
        assert sol_mid.peak_radii == (0.0,)
        assert sol_mid.boundary_slopes[0] < 0.0
        # maximum at the origin for the one-domain class
        traj = sol_mid.trajectory
        assert all(abs(traj.u(j / 40.0)) <= sol_mid.amplitude * (1 + 1e-12)
                   for j in range(1, 40))

    def test_dilation_preserves_first_integral(self, sol_mid):
        assert first_integral_residual(sol_mid.trajectory) <= 1e-8

    def test_rescaled_equation_residual(self, sol_mid):
        # -u'' - u'/r = lambda f(u) on the unit ball; u'' is differenced
        # from the derivative channel (second differences of the dense
        # interpolant amplify its error past the tiny right-hand side)
        from tmb.nonlinearity import scaled_lambda_f

        traj = sol_mid.trajectory
        h = 1e-4
        for r in (0.3, 0.55, 0.8):
            d1 = traj.du(r)
            d2 = (traj.du(r + h) - traj.du(r - h)) / (2 * h)
            lhs = -d2 - d1 / r
            rhs = scaled_lambda_f(traj.u(r), sol_mid.params)
            # -u'' and u'/r nearly cancel in the tail: measure the
            # residual against the dominant term
            scale = max(abs(d2), abs(d1 / r), abs(rhs))
            assert abs(lhs - rhs) <= 1e-6 * scale

    def test_k1_structure(self, sol_k1):
        assert sol_k1.k == 1
        assert len(sol_k1.nodal_radii) == 2
        assert sol_k1.nodal_radii[1] == 1.0
        assert 0.0 < sol_k1.nodal_radii[0] < sol_k1.peak_radii[1] < 1.0
        # sign alternation: positive cap, negative annulus
        traj = sol_k1.trajectory
        r1 = sol_k1.nodal_radii[0]
        assert traj.u(0.5 * r1) > 0.0
        assert traj.u(sol_k1.peak_radii[1]) < 0.0

    def test_continuation_matches_fresh_scan(self):
        fresh = nodal_solution(0, 3e-3, P12, scan_points=SCAN_POINTS)[0]
        seeded = nodal_solution(0, 3e-3, P12, seed_amplitude=fresh.amplitude * 1.1)[0]
        assert seeded.amplitude == pytest.approx(fresh.amplitude, rel=1e-8)


class TestAmplitudeBudget:
    def test_budget_solves_equation(self):
        s = amplitude_budget(P12)
        val = math.log(s) + s * s + s ** 1.2
        assert val == pytest.approx(699.5, abs=1e-5)

    def test_overflow_translated(self):
        # no overflow wall in log radius: s = 30 reaches its zero ...
        zeros, traj = solve_unit_lambda(30.0, 0, P12)
        assert len(zeros) == 1
        # ... and a run stopped by its own caps still reports the zero as
        # not reached
        z = math.exp(traj.log_zeros[0][0])
        with pytest.raises(ZeroNotReachedError):
            solve_unit_lambda(30.0, 0, P12, SolverSettings(max_radius=0.5 * z))
        with pytest.raises(ZeroNotReachedError):
            solve_unit_lambda(30.0, 0, P12, SolverSettings(max_steps=20))

    def test_lambda_past_former_amplitude_wall(self):
        # past the former binary64 wall (s = 25.1) at default settings;
        # the concentration law puts lambda(25.52) near 7.6e-12
        lam = lambda_of_s(25.52, 0, P12)
        assert 0.0 < lam < 1e-10


class TestDeepAmplitudes:
    """The two-bubble family lambda = 0.1 .. 1e-4 at beta = 1.3 lives at
    s ~ 7e2 .. 4e4, where u^2 cannot be formed from the amplitude without
    losing the digits the bubble depends on."""

    P13 = ProblemParams(alpha=1.0, beta=1.3, lam=1.0)

    @pytest.mark.parametrize("s", [700.0, 3e4])
    def test_lambda_stable_under_halved_tolerances(self, s):
        base = lambda_of_s(s, 1, self.P13)
        half = lambda_of_s(s, 1, self.P13,
                           SolverSettings(rel_tol=5e-11, abs_tol=5e-13))
        assert half == pytest.approx(base, rel=1e-8)

    def test_lambda_rerun_identical(self):
        assert lambda_of_s(3e4, 1, self.P13) == lambda_of_s(3e4, 1, self.P13)

    def test_underflowed_radius_kept_as_log(self):
        # r_1 ~ exp(-880) underflows binary64: the radius reads 0.0 and the
        # slope there -inf, and the CSV writer prints them as 0 and -inf,
        # while the stored log radius stays finite
        from tmb.cli import _fmt
        from tmb.ode import integrate_radial

        traj = integrate_radial(700.0, self.P13, 2)
        sol = shooting._build_solution(traj, 1, self.P13)
        assert sol.nodal_radii[0] == 0.0
        assert sol.peak_radii[0] == 0.0
        assert sol.boundary_slopes[0] == -math.inf
        assert sol.log_nodal_radii[0] == pytest.approx(-879.5, abs=0.1)
        assert _fmt(sol.nodal_radii[0]) == "0"
        assert _fmt(sol.boundary_slopes[0]) == "-inf"
