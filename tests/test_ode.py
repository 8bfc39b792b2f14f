"""Radial integrator: linearization oracle, first integral, events, dense
output, the DOP853 kernel."""

import math
import tracemalloc

import pytest

from tmb import ode, shooting
from tmb.analysis import decompose, first_integral_residual
from tmb.bessel import j0_zero
from tmb.errors import NoSignChangeError, StiffnessError, TmbError, ZeroNotReachedError
from tmb.nonlinearity import ProblemParams
from tmb.ode import SolverSettings, integrate_radial
from tmb.quadrature import adaptive_quadrature
from tmb.shooting import POLISH_TOL, SCAN_SETTINGS, solution_at, solve_unit_lambda

from conftest import T1, primitive_F

P12 = ProblemParams(alpha=1.0, beta=1.2, lam=1.0)


@pytest.fixture(scope="module")
def linear_traj():
    return integrate_radial(1e-8, P12, 1)


@pytest.fixture(scope="module")
def deep_traj():
    return integrate_radial(13.5, P12, 1)


class TestLinearization:
    def test_first_zero_is_bessel(self, linear_traj):
        assert math.exp(linear_traj.log_zeros[0][0]) == pytest.approx(T1, abs=1e-4)

    def test_monotone_decay_before_first_zero(self, linear_traj):
        t_z1 = linear_traj.log_zeros[0][0]
        for st in linear_traj.steps:
            if st.t1 < t_z1:
                assert st.end()[1] < 0.0  # r*u' < 0 on the positive cap

    def test_refined_zero_tight_tolerances(self):
        # absolute tolerance scaled to the tiny amplitude; the zero then
        # agrees with the linearization oracle far below the default wall
        stg = SolverSettings(rel_tol=1e-10, abs_tol=1e-20)
        traj = integrate_radial(1e-8, P12, 1, stg)
        assert math.exp(traj.log_zeros[0][0]) == pytest.approx(T1, abs=1e-6)

    def test_slope_at_first_zero_negative(self, linear_traj):
        assert linear_traj.log_zeros[0][1] < 0.0  # r*u', same sign as u'

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("s", [1e-12, 1e-50, ode.MIN_AMPLITUDE])
    def test_tiny_amplitude_is_bessel(self, s, k):
        # below s = 1 abs_tol is relative to s, the size of u, so the
        # linear limit ln(lambda) = ln j_{0,k+1}^2 holds to rounding; with
        # an absolute abs_tol lambda(1e-12) came out 5.4 Lambda_1 (k = 0).
        # At scan tolerance it holds to 2e-8; with the flight's quiet level
        # E < -60 not lowered by ln s, s = 1e-50 was 0.015 off (k = 0) or
        # never reached its zero (k >= 1)
        p = ProblemParams(alpha=1.0, beta=1.3, lam=1.0)
        ln_j2 = 2.0 * math.log(j0_zero(k + 1).t_k)
        for settings, tol in ((None, 1e-12), (SCAN_SETTINGS, 2e-8)):
            t = integrate_radial(s, p, k + 1, settings).log_zeros[k][0]
            assert abs(2.0 * t - ln_j2) <= tol


class TestFirstIntegral:
    @pytest.mark.parametrize("s", [1e-8, 0.5, 5.0])
    def test_zero_flux_identity(self, s):
        assert first_integral_residual(solution_at(s, 0, P12)) <= 1e-8

    def test_deep_zero_flux(self):
        assert first_integral_residual(solution_at(13.5, 0, P12)) <= 1e-8

    @pytest.mark.parametrize("k, s", [(0, 5.0), (1, 5.0), (2, 6.0), (3, 6.0)])
    def test_loose_solve_flagged(self, k, s):
        """At scan tolerance the quadrature of lambda*f(u) misses r*u' past
        1e-8 (beta = 1.3: 4.5e-8, 4.4e-8, 8.8e-8 and 3.2e-7 at k = 0..3),
        while r*u' + e_src stays below 1e-9: every Runge-Kutta step
        conserves that sum.  Only the maximum over the domains is the
        certificate; a single domain can read lower (at k = 2, domain 3
        reads 7.2e-9 from its peak, 3.6e-8 from the origin)."""
        p = ProblemParams(1.0, 1.3, 1.0)
        sol = shooting._build_solution(solve_unit_lambda(s, k, p, SCAN_SETTINGS), k, p)
        assert first_integral_residual(sol) > 1e-8
        assert max(abs(st.end()[1] + st.end()[5]) for st in sol.trajectory.steps) < 1e-9

    def test_energy_consistency_at_stop_radius(self):
        # r u'(r) = -int_0^r lambda f(u) s ds before the first zero, the
        # integral a quadrature of the dense source in log radius (its head
        # below t_start in closed form, as in analysis), not the e_src
        # channel: every Runge-Kutta step conserves r u' + e_src.  The
        # relative residual reads 8e-15 here, and 2.3e-8 at scan tolerance
        t = math.log(1.2)
        for settings, fails in ((None, False), (SCAN_SETTINGS, True)):
            traj = integrate_radial(0.5, P12, 1, settings)
            assert t < traj.log_zeros[0][0]
            ts = traj.t_start
            quad = adaptive_quadrature(
                [(g, a, b) for g, a, b, _ in traj.source_pieces(ts, t)], rel_tol=1e-12)
            quad += 0.5 * traj.source_log(ts)
            ru = traj.eval_log(t)[1]
            assert (abs(quad + ru) > 1e-8 * abs(ru)) == fails


class TestEvents:
    def test_zeros_strictly_increase(self):
        traj = integrate_radial(5.0, P12, 3)
        radii = [math.exp(t) for t, _ in traj.log_zeros]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_zero_peak_interleaving(self):
        traj = integrate_radial(5.0, P12, 3)
        zeros = [math.exp(t) for t, _ in traj.log_zeros]
        peaks = [math.exp(t) for t, _ in traj.log_peaks]
        # exactly one interior peak strictly between consecutive zeros
        for za, zb in zip(zeros, zeros[1:]):
            inside = [p for p in peaks if za < p < zb]
            assert len(inside) == 1

    def test_zero_value_small_on_interpolant(self):
        traj = integrate_radial(2.0, P12, 2)
        for tz, ru in traj.log_zeros:
            assert abs(traj.u_log(tz)) <= 1e-12 * traj.initial_amplitude
            assert ru != 0.0  # r*u' at the zero: the slope does not vanish

    def test_peak_derivative_vanishes(self):
        # the first integral is read from each interior peak, where r*u'
        # vanishes: at most 9.4e-16 of the domain's |r_i u'(r_i)| on ten
        # members, k = 1..3 and s up to 1e5
        for s, k, p in ((5.0, 1, P12), (1e5, 3, ProblemParams(1.0, 1.3, 1.0))):
            sol = solution_at(s, k, p)
            for tp, ru in zip(sol.log_peak_radii[1:], sol.boundary_ru[1:]):
                assert abs(sol.trajectory.eval_log(tp)[1]) <= 1e-13 * abs(ru)

    @pytest.mark.parametrize("scan, k, alpha, beta, s, log_lam", [
        (False, 2, 1.0, 1.0, 6.78217815593501, 2.938475),
        (False, 2, 10.0, 1.0, 2.3537191849932713, -1.207852),
        (False, 2, 10.0, 1.3, 21.849993373049873, -10.536683),
        (False, 2, 0.1, 1.8, 0.4894321401910078, 4.256343),
        (True, 0, 3.0, 1.0, 14.725896892882366, -27.03827),
        (True, 0, 3.0, 1.3, 12.954140857511838, -34.087866),
        (True, 2, 3.0, 1.0, 14.794639720726416, 1.16294),
    ])
    def test_each_zero_counted_once(self, scan, k, alpha, beta, s, log_lam):
        # at the defaults a step ends on u = 0.0 where u rises, and the next
        # step starts there: both counted that zero.  At scan tolerance one
        # first-bubble step jumped from u ~ s past the first zero, which was
        # never counted.  Either way the (k+1)-th zero was a later one
        traj = solve_unit_lambda(s, k, ProblemParams(alpha, beta, 1.0),
                                 SCAN_SETTINGS if scan else None)
        zeros = [t for t, _ in traj.log_zeros]
        assert len(zeros) == k + 1
        assert all(b > a for a, b in zip(zeros, zeros[1:]))
        assert len(traj.log_peaks) == k
        assert all(st.end()[0] > 0.0 for st in traj.steps if st.frame is not ode._IDENTITY)
        assert 2.0 * zeros[k] == pytest.approx(log_lam, abs=1e-5)

    def test_step_ending_on_a_rising_zero(self):
        p = ProblemParams(1.0, 1.0, 1.0)
        traj = solve_unit_lambda(6.78217815593501, 2, p)
        on_zero = [st.t1 for st in traj.steps if st.end()[0] == 0.0]
        assert [t for t, _ in traj.log_zeros].count(on_zero[0]) == 1
        assert len(solution_at(6.78217815593501, 2, p).peak_values) == 3


class TestSelfConvergence:
    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_halving_tolerances(self, s):
        base = SolverSettings(rel_tol=1e-10, abs_tol=1e-12)
        half = SolverSettings(rel_tol=5e-11, abs_tol=5e-13)
        z1 = math.exp(integrate_radial(s, P12, 1, base).log_zeros[0][0])
        z2 = math.exp(integrate_radial(s, P12, 1, half).log_zeros[0][0])
        assert abs(z2 - z1) < 10.0 * (1e-10 * z1 + 1e-12)

    def test_halving_deep(self):
        # deep trajectories accumulate global error over ~2e4 steps; the
        # shift stays within the step-count-scaled tolerance
        base = SolverSettings(rel_tol=1e-10, abs_tol=1e-12)
        half = SolverSettings(rel_tol=5e-11, abs_tol=5e-13)
        t1 = integrate_radial(13.5, P12, 1, base)
        t2 = integrate_radial(13.5, P12, 1, half)
        z1, z2 = math.exp(t1.log_zeros[0][0]), math.exp(t2.log_zeros[0][0])
        budget = 10.0 * 1e-10 * z1 * math.sqrt(len(t1.steps))
        assert abs(z2 - z1) < budget

    @pytest.mark.parametrize("k, alpha, beta, s", [
        # below s = 1 abs_tol is relative to s: an absolute 1e-14 missed by
        # up to 4.2e-10 at s = 1e-6
        (k, 1.0, beta, s) for k in (0, 1, 2) for beta in (0.5, 1.3, 1.8)
        for s in (1e-6, 1e-4, 0.5, 5.0, 24.0)
    ] + [
        # the kink of alpha*|u|^beta at every zero for beta < 1
        (k, 3.0, 0.3, s) for k in (1, 2) for s in (0.3, 1.0, 2.0, 3.0, 5.0)
    ] + [
        # u*|u|^beta is not smooth at a zero for beta >= 1 either: a step
        # across one costs 2.4e-10 here, and 3.4e-11 (beta = 1) and 4.6e-11
        # (beta = 1.8) at the worst of 60 log-spaced s in [0.5, 24]
        (1, 1.0, 1.3, 10.5002116838444),
    ] + [
        (k, 1.0, beta, s) for k in (1, 2)
        for beta, s in ((1.0, 8.40004117019452), (1.8, 3.1394039598876127))
    ] + [
        # the worst sampled default-tolerance error (SolverSettings): 1.3e-11,
        # 1.7e-11 and 9.7e-12 for k = 0, 1, 2; a point of a 30-point log grid
        # on [0.5, 24], and 1e-13 relative away it is 31-177x smaller
        (k, 1.0, 1.8, 14.070706319014791) for k in (0, 1, 2)
    ])
    def test_defaults_meet_polish_tol(self, k, alpha, beta, s):
        # ln(lambda) = 2 t_{k+1} at the default tolerances agrees with a
        # 10x tighter solve to the tolerance roots are polished to
        p = ProblemParams(alpha=alpha, beta=beta, lam=1.0)
        fine = SolverSettings(rel_tol=1e-13, abs_tol=1e-15)
        base = integrate_radial(s, p, k + 1).log_zeros[k][0]
        ref = integrate_radial(s, p, k + 1, fine).log_zeros[k][0]
        assert abs(2.0 * (base - ref)) <= POLISH_TOL


class TestKernel:
    """The DOP853 tableau and its lazy 7th-order dense output."""

    def test_order_conditions(self):
        # the 8th-order weights (row 12) integrate c^(q-1) exactly, q <= 8
        b, c = ode._A[12], ode._C
        assert len(c) == len(ode._A) == 16 and len(b) == 12
        for q in range(1, 9):
            total = sum(bi * ci ** (q - 1) for bi, ci in zip(b, c))
            assert total == pytest.approx(1.0 / q, rel=1e-14, abs=1e-15)

    def test_nodes_are_row_sums(self):
        for row, ci in zip(ode._A, ode._C):
            assert abs(sum(row) - ci) <= 4.0 * ode._EPS * sum(map(abs, row))

    def test_error_rows_sum_to_zero(self):
        # the 5th-order row, and 8th-order minus 3rd-order weights
        assert abs(sum(ode._ER)) <= 4.0 * ode._EPS * sum(map(abs, ode._ER))
        assert sum(ode._A[12]) - sum(ode._BHH) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("plain", [False, True])  # first-bubble frame or t
    def test_interpolant_ends(self, plain):
        # y0 and y1 at theta = 0 and 1, and dy/dtheta = h*f there (by a
        # complex step: exact up to the rounding of the interpolant's
        # coefficient rows, which reach ~500 h f); f at both ends are the
        # step's first and FSAL stages, kept until the interpolant is read
        traj = integrate_radial(5.0, P12, 2)
        st = next(st for st in traj.steps
                  if (st.frame is ode._IDENTITY) == plain and st._ks is not None)
        f0, f1 = st._ks[0], st._ks[-1]
        eps = 1e-30
        for i in range(len(st.y0)):
            # rounding of y0 + theta*(...) at theta = 1, in units of the terms
            scale = abs(st.y0[i]) + abs(st.y1[i]) + abs(st.h * f0[i]) + abs(st.h * f1[i])
            assert st.value(st.x0, i) == st.y0[i]
            assert abs(st.value(st.x1, i) - st.y1[i]) <= 8.0 * ode._EPS * scale
            for x, f in ((st.x0, f0), (st.x1, f1)):
                slope = st.value(x + 1j * eps * st.h, i).imag / eps
                assert abs(slope - st.h * f[i]) <= 1e-13 * scale

    def test_zero_error_estimate_grows_the_step_sixfold(self):
        # a zero right-hand side makes every error estimate exactly 0: each
        # step is accepted and the next one is 6 times as long
        hs = []

        def on_step(step):
            hs.append(step.h)
            assert step.y1 == step.y0
            return len(hs) == 3

        y = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        _, h = ode._march(lambda x, y: (0.0,) * 8, ode._IDENTITY, 0.0, y, 0.1,
                          lambda x, y, x1, y1: (1.0,) * 6, on_step)
        assert hs == [0.1, 0.1 * 6.0, 0.1 * 6.0 * 6.0] and h == hs[-1] * 6.0


class TestForcing:
    """E, the forcing sign(u) exp(E) and |u| dE/du, each written once."""

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.8])
    @pytest.mark.parametrize("au", [1e-3, 0.5, 3.0, 30.0])
    def test_u_de_du_is_the_derivative_of_the_exponent(self, au, beta):
        # central difference of E in u at fixed t, times |u|
        t, alpha, h = 0.3, 0.7, 1e-5 * au
        de = (ode._exponent(t, au + h, alpha, beta)
              - ode._exponent(t, au - h, alpha, beta)) / (2.0 * h)
        assert ode._u_de_du(au, alpha, beta) == pytest.approx(au * de, rel=1e-6)

    def test_source_is_odd_and_zero_at_zero(self):
        assert ode._source(0.5, 0.0, 1.0, 1.3) == 0.0
        assert ode._source(0.5, -0.0, 1.0, 1.3) == 0.0
        for t, u in ((-3.0, 1e-8), (0.0, 0.4), (0.2, 2.5), (-40.0, 9.0)):
            g = ode._source(t, u, 1.0, 1.3)
            assert g > 0.0 and ode._source(t, -u, 1.0, 1.3) == -g

    def test_source_log_at_an_exact_zero(self):
        # the first zero (k = 1, beta = 1.3, s = 30), stepped in absolute t,
        # is polished to a log radius where u reads exactly 0.0
        traj = integrate_radial(30.0, ProblemParams(1.0, 1.3, 1.0), 2)
        t = traj.log_zeros[0][0]
        assert traj.steps[traj._index(t)].frame is ode._IDENTITY and traj.u_log(t) == 0.0
        assert traj.source_log(t) == 0.0

    def test_source_log_is_each_steps_own_forcing(self):
        # source_log asks the right-hand side each step was taken with, on
        # u (or D) alone: at a bubble step's end it is the forcing of that
        # step's FSAL stage, bit for bit, wherever the end's tau survives
        # the round trip through the log radius, t0 + tau - t0 == tau.  The
        # last bubble step ends where the flight starts; the flight's own
        # right-hand side is the one with the forcing dropped, and
        # source_log reads 0.0 there
        traj = integrate_radial(30.0, ProblemParams(1.0, 1.3, 1.0), 2)
        bubble = [st for st in traj.steps if st.frame is not ode._IDENTITY]
        exact = [st for st in bubble[:-1] if st.t1 - st.frame.t0 == st.x1]
        assert len(exact) >= 5
        for st in exact:
            fsal = st.rhs(st.x1, [st.y1[j] for j in ode._DYN])
            assert traj.source_log(st.t1) == fsal[5] > 0.0
        flight = traj.steps[len(bubble)]
        assert flight.frame is ode._IDENTITY
        # the flight's one step is a line in t: its slope is its own
        # right-hand side, the forcing dropped
        f = flight.rhs(flight.x0, flight.y0)
        assert f[1] == f[3] == f[4] == f[5] == 0.0
        for j, fj in enumerate(f):
            slope = (flight.y1[j] - flight.y0[j]) / flight.h
            assert slope == pytest.approx(fj, rel=1e-12, abs=1e-18)
        for t in (bubble[-1].t1, flight.t0 + 0.5 * flight.h):
            assert traj.source_log(t) == 0.0

    def test_flight_without_a_maximum_of_E_lands_past_its_zero(self, monkeypatch):
        # k = 1, beta = 1, s = 10, alpha = 20: on the flight's line
        # u = sigma (t_z - t), E = 2t + ln u + u^2 + 20u has its maximum where
        # 1/u + 2u + 20 = 2/sigma ~ K/2 = 20.05, which no u > 0 solves, as
        # 1/u + 2u >= 2 sqrt(2).  E falls until the zero, so the maximum's
        # fixed point runs past u at the hand-over and the flight lands past
        # its zero.  Its zeros are those of an integration never quiet
        p = ProblemParams(20.0, 1.0, 1.0)
        traj = integrate_radial(10.0, p, 2)
        flight = traj.steps[sum(st.frame is not ode._IDENTITY for st in traj.steps)]
        assert flight.rhs.__name__ == "rhs_flight"
        assert flight.t0 < traj.log_zeros[0][0] < flight.t1
        monkeypatch.setattr(ode, "_E_QUIET", -math.inf)
        plain = integrate_radial(10.0, p, 2)
        assert all(st.rhs.__name__ != "rhs_flight" for st in plain.steps)
        for (t, _), (t_ref, _) in zip(traj.log_zeros, plain.log_zeros, strict=True):
            assert t == pytest.approx(t_ref, abs=1e-12)


class TestAugmentedChannels:
    def test_channels_nondecreasing(self, deep_traj):
        # (e_dir, e_neh, e_src) at every accepted step end, plus the start
        ends = [deep_traj.steps[0].y0] + [st.y1 for st in deep_traj.steps]
        for a, b in zip(ends, ends[1:]):
            assert b[2] >= a[2]
            assert b[3] >= a[3]
            assert b[5] >= a[5]

    @pytest.mark.parametrize("name", ["sol_mid", "sol_deep", "sol_k1"])
    def test_potential_matches_primitive_quadrature(self, name, request):
        # decompose reads each domain's lambda*int F(u) r dr off the flux
        # channel as -q_flux/2 at its zeros; integrate F(u(t))*lambda*r^2
        # dt directly instead, with the tests' reference quadrature for F
        sol = request.getfixturevalue(name)
        traj, p = sol.trajectory, sol.params

        def g(t):
            return primitive_F(traj.u_log(t), p) * math.exp(p.log_lambda + 2.0 * t)

        lo = traj.t_start
        pot = 0.5 * g(lo)  # analytic head before the first step: u = s there
        for dom, hi in zip(decompose(sol), sol.log_nodal_radii):
            pot += adaptive_quadrature([(lambda x, dt=dt: g(x + dt), a, b)
                                        for _, a, b, dt in traj.source_pieces(lo, hi)])
            assert dom.potential > 0.0
            assert abs(pot - dom.potential) <= 1e-10 * dom.potential
            lo, pot = hi, 0.0

    def test_head_before_first_step(self, sol_mid):
        # no step covers t < t_start: eval_log returns the closed-form head
        # of the Liouville bubble there.  Check it against the equation, on
        # a solution's dilated trajectory, with exp(E) formed from u itself:
        # r*u' = -e_src, and e_dir, e_neh, q_flux and e_src grow at the
        # rates of their integrands (centred differences, O(h^2) = 3e-8)
        traj, p = sol_mid.trajectory, sol_mid.params
        h = 1e-4
        for t in (traj.t_start - 1.0, traj.t_start - 5.0):
            u, ru, *channels = traj.eval_log(t)
            g = math.exp(2.0 * t + p.log_lambda + math.log(u) + u * u
                         + p.alpha * u ** p.beta)
            assert u <= sol_mid.amplitude
            assert ru == pytest.approx(-channels[3], rel=1e-12, abs=0.0)
            for i, rate in enumerate((ru * ru, u * g, g * ru, g)):
                grown = traj.eval_log(t + h)[2 + i] - traj.eval_log(t - h)[2 + i]
                assert grown / (2.0 * h) == pytest.approx(rate, rel=1e-7, abs=0.0)

    def test_dense_matches_endpoint(self, deep_traj):
        st = deep_traj.steps[len(deep_traj.steps) // 2]
        y = deep_traj.eval_log(st.t1)
        for a, b in zip(y, st.end()):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


class TestSensitivityChannel:
    """The channel every integration carries: the kernel lets it move no
    step, and its d ln(lambda)/d ln(s) at the stop zero matches a centred
    difference."""

    FINE = SolverSettings(rel_tol=1e-12, abs_tol=1e-14)

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("beta", [0.5, 1.3])
    def test_channel_moves_no_step(self, beta, k):
        # _march from a first-bubble and a plain step of a trajectory, with
        # that step's own right-hand side but the channel's derivatives
        # (components 6 and 7) set to NaN, then to 0.0: x, h and the first
        # six components agree at every step, so neither a stage nor the
        # error test of another component reads the channel
        traj = integrate_radial(5.0, ProblemParams(1.0, beta, 1.0), k + 1)
        plain = next(st for st in traj.steps if st.rhs.__name__ == "rhs_plain")

        def scale(x, y, x1, y1):
            return tuple(1e-12 + 1e-10 * max(abs(y[j]), abs(y1[j])) for j in range(6))

        for first in (traj.steps[0], plain):
            runs = []
            for v in (math.nan, 0.0):
                seen = []

                def on_step(step):
                    seen.append((step.x1, step.h, step.y1[:6]))
                    return len(seen) == 20

                last, h = ode._march(lambda x, y: first.rhs(x, y)[:6] + (v, v),
                                     first.frame, first.x0, first.y0, first.h,
                                     scale, on_step)
                assert all(c != c for c in last.y1[6:]) == (v != v)
                runs.append((seen, h))
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("k, beta, s, rel", [
        (0, 1.0, 5.0, 1e-6),
        (1, 0.5, 2.0, 1e-6),   # the kink of |u|^beta at the first zero
        (1, 1.3, 24.0, 1e-6),
        (2, 1.8, 100.0, 1e-6),
        (2, 1.8, 3.1394, 1e-6),  # two interior zeros landed at beta >= 1
        (0, 1.3, 1e3, 1e-4),   # stop zero in the closed-form flight
        (1, 1.3, 1e4, 1e-4),   # flight, landing, then absolute t
    ])
    def test_slope_matches_centred_difference(self, k, beta, s, rel):
        p = ProblemParams(alpha=1.0, beta=beta, lam=1.0)

        def log_lambda(x):
            traj = integrate_radial(math.exp(x), p, k + 1, self.FINE)
            return 2.0 * traj.log_zeros[k][0]

        x, h = math.log(s), 1e-3
        cd = [(log_lambda(x + d) - log_lambda(x - d)) / (2.0 * d) for d in (h, h / 2)]
        ref = (4.0 * cd[1] - cd[0]) / 3.0  # Richardson: O(h^4)
        slope = integrate_radial(s, p, k + 1, self.FINE).log_slope
        assert slope == pytest.approx(ref, rel=rel)


class TestStopsAndErrors:
    def test_zero_not_reached_on_radius_cap(self, monkeypatch):
        # at s = 1e-3 the first zero lies near j_{0,1} = 2.405, past the cap
        monkeypatch.setattr(ode, "MAX_RADIUS", 2.0)
        with pytest.raises(ZeroNotReachedError) as exc:
            integrate_radial(1e-3, P12, 1)
        assert exc.value.zeros_found == 0

    @pytest.mark.parametrize("beta, s, n_zeros, last", [
        (1.2, 2.0, 1, "rhs_plain"),   # 93 steps, stop zero in absolute t
        (1.2, 2.0, 2, "rhs_plain"),   # 151 steps
        (1.3, 50.0, 1, "rhs_flight"),  # 113 steps, stop zero in the flight
    ])
    def test_step_budget_holds_on_the_stop_step(self, monkeypatch, beta, s,
                                                n_zeros, last):
        # one step short of a run's count: the step holding the stop zero
        # is not kept, on every stretch alike, and its zero is not counted
        p = ProblemParams(alpha=1.0, beta=beta, lam=1.0)
        steps = integrate_radial(s, p, n_zeros).steps
        assert steps[-1].rhs.__name__ == last
        monkeypatch.setattr(ode, "MAX_STEPS", len(steps) - 1)
        with pytest.raises(ZeroNotReachedError, match="step budget") as exc:
            integrate_radial(s, p, n_zeros)
        assert exc.value.zeros_found == n_zeros - 1

    def test_step_budget_binds_before_half_a_gib(self):
        # the steps a trajectory keeps, with the sensitivity channel, cost
        # about 2.9 kB each (CPython 3.11): the budget ends a runaway
        # integration with ZeroNotReachedError before it holds 0.5 GiB
        # (k = 0, alpha = 3, beta = 1.8, s = 4e4 raised MemoryError under
        # 2.5 GB when the budget was 2e6)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = integrate_radial(2.0, P12, 1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_step = kept / len(traj.steps)
        assert 1e3 < per_step < 1e4
        assert ode.MAX_STEPS * per_step < 0.5 * 2 ** 30

    def test_step_collapse_is_typed(self, monkeypatch):
        t_start = integrate_radial(2.0, P12, 1).t_start
        # a step floor above the first step the integrator tries
        monkeypatch.setattr(ode, "_MIN_STEP", 1.0)
        with pytest.raises(StiffnessError) as exc:
            integrate_radial(2.0, P12, 1)
        assert isinstance(exc.value, TmbError)
        assert exc.value.radius == math.exp(t_start)
        assert 0.0 < exc.value.step <= 1.0

    def test_invalid_amplitude(self):
        # 1e-200 lies below ode.MIN_AMPLITUDE; s^2 underflows to 0.0 there,
        # which was an untyped ZeroDivisionError.  s = inf ended in a
        # StiffnessError at radius 0.0
        for s in (-1.0, 1e-200, math.inf, math.nan):
            with pytest.raises(ValueError, match="amplitude"):
                integrate_radial(s, P12, 1)

    def test_read_past_last_step_raises(self):
        # past its last step a trajectory used to extrapolate that step's
        # interpolant: on the lambda = 1e-3 member of the k = 0, beta = 1.2
        # family (last step ending at r = 1.00245), r*u' at r = 2 read +0.594
        # where a longer integration gives -0.285
        traj = integrate_radial(2.0, P12, 1)
        dt = traj.log_zeros[0][0]
        for tr, shift in ((traj, 0.0), (traj.shifted(dt), dt)):
            end = tr.steps[-1].t1 - shift
            assert math.isfinite(tr.u_log(end))
            for read in (tr.u_log, tr.eval_log, tr.source_log):
                with pytest.raises(ValueError, match="past the last step"):
                    read(math.nextafter(end, math.inf))

    def test_dense_root_needs_a_sign_change(self):
        traj = integrate_radial(2.0, P12, 1)
        st = next(st for st in traj.steps
                  if st.frame is ode._IDENTITY and st.y0[0] * st.y1[0] > 0.0)
        with pytest.raises(NoSignChangeError):
            ode._dense_root(st, 0, 0.0, 1.0)

    def test_dense_root_stops_after_200_iterations(self):
        # a jump from -1 to 1e300 at theta = 0.25: each Illinois step halves
        # the far end's weight, so the secant creeps up from 0 and the
        # bracket never shrinks to an ulp.  Past 200 iterations the search
        # bisects: 53 halvings take the bracket (0, 1] below an ulp of 1,
        # and the 54th midpoint is returned
        calls = []

        class Jump:
            x0, h = 0.0, 1.0

            def value(self, x, comp):
                calls.append(x)
                return -1.0 if x < 0.25 else 1e300

        assert abs(ode._dense_root(Jump(), 0, 0.0, 1.0) - 0.25) <= ode._EPS
        assert len(calls) == 2 + 200 + 54

    def test_dense_root_at_the_far_end(self):
        # a falling step whose end lands exactly on u = 0, as y0 + (0 - y0)
        # does: the far end is the root, returned after the two end reads
        calls = []

        class Landing:
            x0, h = 0.0, 1.0

            def value(self, x, comp):
                calls.append(x)
                return 1.0 - x

        assert ode._dense_root(Landing(), 0, 0.0, 1.0) == 1.0
        assert calls == [0.0, 1.0]

    def test_needs_a_zero_to_stop_on(self):
        with pytest.raises(ValueError):
            integrate_radial(1.0, P12, 0)

    @pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    def test_invalid_tolerance_rejected(self, name, value):
        # a negative tolerance used to be accepted and put lambda(2.0) at
        # 123.18 instead of 0.25864 (k=0, beta=1.2), and zero tolerances
        # raised ZeroDivisionError in the middle of an integration
        with pytest.raises(ValueError, match=name):
            SolverSettings(**{name: value})

    def test_underflowing_error_estimate_skipped(self):
        # at s = 3000 (k=2, beta=1.8) a step has e5 != 0 on a component
        # whose e5^2 and e3^2 both underflow: its error norm was 0/0, a
        # ZeroDivisionError at either tolerance
        p = ProblemParams(1.0, 1.8, 1.0)
        full, scan = (2.0 * integrate_radial(3000.0, p, 3, settings).log_zeros[2][0]
                      for settings in (None, SCAN_SETTINGS))
        assert full == pytest.approx(-2.752418, abs=1e-6)
        assert abs(scan - full) <= 1e-8

    def test_adaptive_series_start(self):
        # the start radius tracks the bubble scale, not a fixed constant
        shallow = integrate_radial(1e-8, P12, 1)
        deep = integrate_radial(13.5, P12, 1)
        assert shallow.t_start == math.log(1e-6)
        assert deep.t_start < math.log(1e-40)
