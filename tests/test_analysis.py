"""Nodal decomposition, energies, and the exact-identity residuals."""

import math
from types import SimpleNamespace

import pytest

from tmb.analysis import (
    boundary_flux,
    decompose,
    energy_report,
    identity_residual,
    nehari_residual,
    sturm_bound_check,
)
from tmb.bessel import _j01, j0_zero
from tmb.nonlinearity import ProblemParams
from tmb.shooting import RadialSolution, nodal_solution


P12 = ProblemParams(alpha=1.0, beta=1.2, lam=1.0)


class TestDecompose:
    def test_single_domain(self, sol_mid):
        doms = decompose(sol_mid)
        assert len(doms) == 1
        d = doms[0]
        _, _, e_dir, e_neh, q_flux, _ = sol_mid.trajectory.eval_log(
            sol_mid.log_nodal_radii[0])
        assert (d.dirichlet, d.nehari, d.potential) == (e_dir, e_neh, -0.5 * q_flux)
        assert d.dirichlet > 0.0 and d.potential > 0.0

    def test_k1_signs(self, sol_k1):
        # a domain's sign is the solution's: u(0) > 0, then u at each
        # interior peak has the sign domain_sign gives
        assert len(decompose(sol_k1)) == 2
        assert [sol_k1.domain_sign(i) for i in (1, 2)] == [1, -1]
        assert sol_k1.amplitude > 0.0
        u_peak = sol_k1.trajectory.u_log(sol_k1.log_peak_radii[1])
        assert u_peak == pytest.approx(-sol_k1.peak_values[1], rel=1e-9)

    def test_telescoping(self, sol_k1):
        doms = decompose(sol_k1)
        e_dir = sol_k1.trajectory.eval_log(sol_k1.log_nodal_radii[-1])[2]
        total = sum(d.dirichlet for d in doms)
        assert abs(total - e_dir) <= 1e-12 * e_dir

    def test_per_domain_nehari_identity(self, sol_k1, sol_deep):
        for sol in (sol_k1, sol_deep):
            for d in decompose(sol):
                assert abs(d.dirichlet - d.nehari) <= 1e-8 * d.dirichlet


class TestEnergyReport:
    def test_invariants(self, sol_deep):
        # the functional is half the full Dirichlet energy less a positive
        # potential
        doms = decompose(sol_deep)
        full_dirichlet = 2.0 * math.pi * sum(d.dirichlet for d in doms)
        assert full_dirichlet > 0.0
        assert energy_report(doms) < 0.5 * full_dirichlet


class TestPeakIdentity:
    def test_accepted_solutions(self, sol_mid, sol_deep, sol_k1):
        for sol in (sol_mid, sol_deep, sol_k1):
            for i in range(1, sol.k + 2):
                assert identity_residual(sol, i) <= 1e-6

    def test_outer_only_for_first_domain(self, sol_mid):
        # i=1 evaluates just the outer identity; the call must succeed with
        # rho_1 = 0 as the lower endpoint
        assert identity_residual(sol_mid, 1) <= 1e-6

    def test_perturbation_sensitivity(self, sol_mid):
        # scaling u by 1.01 breaks the identity well past 1e-3; evaluated
        # with an independent composite Simpson rule in log radius
        sol = sol_mid
        traj = sol.trajectory
        mu = 1.01 * sol.peak_values[0]
        r1 = sol.nodal_radii[0]
        n = 4000
        lo, hi = traj.t_start, math.log(r1)
        hstep = (hi - lo) / n

        p = sol.params

        def g(tau):
            # lambda*f(u)*r^2 at the scaled u, as one exponent
            u = 1.01 * traj.u_log(tau)
            return (p.lam * u * math.exp(u * u + p.alpha * abs(u) ** p.beta + 2.0 * tau)
                    * (hi - tau))

        acc = g(lo) + g(hi)
        for j in range(1, n):
            acc += (4.0 if j % 2 else 2.0) * g(lo + j * hstep)
        integral = acc * hstep / 3.0
        residual = abs(integral - mu) / mu
        assert residual > 1e-3

    def test_bad_index(self, sol_mid):
        with pytest.raises(ValueError):
            identity_residual(sol_mid, 2)


class TestBoundaryFlux:
    def test_deep_regime_window(self, sol_deep):
        assert 1.8 <= boundary_flux(sol_deep, 1) <= 2.2

    def test_exact_first_integral(self, sol_deep, sol_k1):
        for sol in (sol_deep, sol_k1):
            for t in sol.log_nodal_radii:
                _, ru, _, _, _, e_src = sol.trajectory.eval_log(t)
                assert abs(ru + e_src) <= 1e-8

    def test_near_linear_regime(self):
        # u ~ mu * J0(t1 r): flux = mu^2 * t1 * |J0'(t1)| = mu^2 * t1 * |J1(t1)|
        from conftest import L1

        sols = nodal_solution(0, ProblemParams(1.0, 1.2, L1 * (1.0 - 1e-4)))
        sol = sols[0]
        mu = sol.peak_values[0]
        t1 = j0_zero(1).t_k
        expected = mu * mu * t1 * abs(_j01(t1)[1])
        assert boundary_flux(sol, 1) == pytest.approx(expected, rel=1e-2)


class TestNehariResidual:
    def test_accepted(self, sol_mid, sol_deep, sol_k1):
        for sol in (sol_mid, sol_deep, sol_k1):
            assert nehari_residual(sol) <= 1e-8

    def test_no_dirichlet_energy_rejected(self, sol_mid):
        # the energy channels of a trajectory on which u vanishes
        flat = SimpleNamespace(eval_log=lambda t: (0.0,) * 6)
        sol = RadialSolution(sol_mid.params, flat, (0.0,), (-math.inf,), (1.0,), (0.0,))
        with pytest.raises(ValueError, match="no Dirichlet energy"):
            nehari_residual(sol)

    def test_degenerate_input_rejected(self, sol_mid):
        # a zero function, with no peak, cannot even be represented as a
        # RadialSolution
        with pytest.raises(ValueError):
            RadialSolution(params=sol_mid.params, trajectory=sol_mid.trajectory,
                           log_nodal_radii=(0.0,), log_peak_radii=(),
                           peak_values=(), boundary_ru=(-1.0,))


class TestSturmBound:
    def test_holds_on_nodal_solutions(self, sol_k1):
        bound, holds = sturm_bound_check(sol_k1)
        assert holds
        assert bound > 1.0

    def test_holds_beta_one(self):
        sol = nodal_solution(1, ProblemParams(1.0, 1.0, 4.0))[-1]
        bound, holds = sturm_bound_check(sol)
        assert holds and bound > 1.0

    def test_requires_nodal(self, sol_mid):
        with pytest.raises(ValueError):
            sturm_bound_check(sol_mid)

    def test_transform_endpoint(self):
        # t = 1 maps to r = 1/(1 - ln 1) = 1: the outer endpoint is fixed
        assert 1.0 / (1.0 - math.log(1.0)) == 1.0
