"""Radial integrator: linearization oracle, first integral, events, dense output."""

import math

import pytest

from tmb.errors import ZeroNotReachedError
from tmb.nonlinearity import ProblemParams
from tmb.ode import SolverSettings, first_integral_residual, integrate_radial

from conftest import T1

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


class TestFirstIntegral:
    @pytest.mark.parametrize("s", [1e-8, 0.5, 5.0])
    def test_zero_flux_identity(self, s):
        traj = integrate_radial(s, P12, 1)
        assert first_integral_residual(traj) <= 1e-8

    def test_deep_zero_flux(self, deep_traj):
        assert first_integral_residual(deep_traj) <= 1e-8

    def test_energy_consistency_at_stop_radius(self):
        # r u'(r) = -int_0^r lambda f(u) s ds before the first zero,
        # checked against the separately integrated source channel
        traj = integrate_radial(0.5, P12, 1)
        assert 1.2 < math.exp(traj.log_zeros[0][0])
        st = traj.state_log(math.log(1.2))
        assert st.r == 1.2
        assert abs(st.r * st.du + st.e_source) <= 1e-8


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
            assert abs(traj.u(math.exp(tz))) <= 1e-12 * traj.initial_amplitude
            assert ru != 0.0  # r*u' at the zero: the slope does not vanish

    def test_peak_derivative_vanishes(self):
        traj = integrate_radial(5.0, P12, 2)
        tp, absu = traj.log_peaks[0]
        rp = math.exp(tp)
        assert abs(traj.du(rp)) <= 1e-6 * absu / rp


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


class TestAugmentedChannels:
    def test_channels_nondecreasing(self, deep_traj):
        # (e_dir, e_neh, e_src) at every accepted step end, plus the start
        ends = [deep_traj.steps[0].y0] + [st.y1 for st in deep_traj.steps]
        for a, b in zip(ends, ends[1:]):
            assert b[2] >= a[2]
            assert b[3] >= a[3]
            assert b[5] >= a[5]

    def test_potential_recovered_from_flux(self, deep_traj):
        # at the zero the boundary term vanishes; e_potential ~ -flux/2
        st = deep_traj.state_log(deep_traj.log_zeros[0][0])
        assert st.e_potential == pytest.approx(-st.pot_flux / 2.0, rel=1e-9)
        assert st.e_potential > 0.0

    def test_dense_matches_endpoint(self, deep_traj):
        st = deep_traj.steps[len(deep_traj.steps) // 2]
        y = deep_traj.eval_log(st.t1)
        for a, b in zip(y, st.end()):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


class TestStopsAndErrors:
    def test_zero_not_reached_on_radius_cap(self):
        stg = SolverSettings(max_radius=2.0)
        p_small = ProblemParams(1.0, 1.2, 1e-10)
        with pytest.raises(ZeroNotReachedError) as exc:
            integrate_radial(1e-3, p_small, 1, stg)
        assert exc.value.zeros_found == 0

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError):
            integrate_radial(-1.0, P12, 1)

    def test_needs_a_zero_to_stop_on(self):
        with pytest.raises(ValueError):
            integrate_radial(1.0, P12, 0)

    def test_adaptive_series_start(self):
        # the start radius tracks the bubble scale, not a fixed constant
        shallow = integrate_radial(1e-8, P12, 1)
        deep = integrate_radial(13.5, P12, 1)
        assert shallow.t_start == math.log(1e-6)
        assert deep.t_start < math.log(1e-40)
