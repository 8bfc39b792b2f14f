"""Shooting construction: eigenvalue limits, dilation, branch finding."""

import math
from types import SimpleNamespace

import pytest

from tmb.bessel import j0_zero
from tmb.errors import NoSolutionInRangeError, ZeroNotReachedError
from tmb.families import summarize
from tmb.analysis import first_integral_residual
from tmb.nonlinearity import ProblemParams
from tmb import ode, shooting
from tmb.ode import SolverSettings
from tmb.shooting import (
    SCAN_SETTINGS,
    Trace,
    amplitude_budget,
    lambda_of_s,
    nodal_solution,
    solution_at,
    solve_unit_lambda,
    trace,
)

from conftest import L1, T1, T2

P12 = ProblemParams(alpha=1.0, beta=1.2, lam=1.0)


class TestUnitShooting:
    def test_first_zero_linear_limit(self):
        traj = solve_unit_lambda(1e-8, 0, P12)
        assert math.exp(traj.log_zeros[0][0]) == pytest.approx(T1, abs=1e-4)

    def test_second_zero_linear_limit(self):
        traj = solve_unit_lambda(1e-8, 1, P12)
        assert math.exp(traj.log_zeros[1][0]) == pytest.approx(T2, abs=1e-3)

    def test_zeros_strictly_increase(self):
        zeros = [t for t, _ in solve_unit_lambda(3.0, 2, P12).log_zeros]
        assert len(zeros) == 3
        assert all(b > a for a, b in zip(zeros, zeros[1:]))

    def test_requires_unit_lambda(self):
        # the integrator runs at lambda = 1 only; the dilation applies lambda
        with pytest.raises(ValueError, match="lambda = 1"):
            ode.integrate_radial(1.0, ProblemParams(1.0, 1.2, 2.0), 1)

    def test_lambda_is_not_read(self):
        # p.lam is not read on the way in: the result of every shooting
        # entry point is the same, bit for bit, at lambda = 1 and 0.37
        other = ProblemParams(1.0, 1.2, 0.37)
        for k in (0, 1):
            a = solve_unit_lambda(3.0, k, P12)
            b = solve_unit_lambda(3.0, k, other)
            assert (a.log_zeros, a.log_peaks, a.log_slope) == (
                b.log_zeros, b.log_peaks, b.log_slope)
            assert lambda_of_s(3.0, k, P12) == lambda_of_s(3.0, k, other)
            sa, sb = solution_at(3.0, k, P12), solution_at(3.0, k, other)
            t = 0.5 * sa.log_nodal_radii[0]
            assert (sa.params, sa.log_nodal_radii, sa.log_peak_radii,
                    sa.peak_values, sa.boundary_ru, sa.trajectory.eval_log(t),
                    sa.trajectory.source_log(t)) == (
                sb.params, sb.log_nodal_radii, sb.log_peak_radii,
                sb.peak_values, sb.boundary_ru, sb.trajectory.eval_log(t),
                sb.trajectory.source_log(t))

    @pytest.mark.parametrize("beta", [0.3, 1.8])
    @pytest.mark.parametrize("alpha", [0.2, 3.0])
    @pytest.mark.parametrize("k", [0, 3])
    # from the amplitude floor, through the first bubble's flight, to deep
    # amplitudes: every integration ends with a finite slope
    @pytest.mark.parametrize("s", [1e-144, 1e-6, 24.0, 1e3])
    def test_every_integration_carries_a_slope(self, s, k, alpha, beta):
        slope = solve_unit_lambda(s, k, ProblemParams(alpha, beta, 1.0)).log_slope
        assert isinstance(slope, float) and math.isfinite(slope)


class TestLambdaOfS:
    def test_eigenvalue_limit_k0(self):
        lam = lambda_of_s(1e-6, 0, P12)
        assert lam == pytest.approx(L1, rel=1e-3)

    def test_eigenvalue_limit_k1(self):
        lam = lambda_of_s(1e-6, 1, P12)
        assert lam == pytest.approx(T2 * T2, rel=1e-2)

    def test_underflow_keeps_log_lambda(self):
        # ln(lambda) = 2 t_1 = -1605.9 lies below ln(5e-324) = -744.4: the
        # eigenvalue reads 0.0, while its logarithm stays on the trajectory
        assert lambda_of_s(1e3, 0, P12) == 0.0
        traj = solve_unit_lambda(1e3, 0, P12)
        assert 2.0 * traj.log_zeros[0][0] == pytest.approx(-1605.86, abs=0.01)

    def test_large_amplitude_trend(self):
        vals = [lambda_of_s(s, 0, P12) for s in (10.0, 12.25, 15.0)]
        assert vals[-1] < 1e-2
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestNodalSolution:
    def test_roundtrip(self, sol_mid):
        lam = lambda_of_s(sol_mid.amplitude, 0, P12)
        assert lam == pytest.approx(1e-3, rel=1e-10)

    def test_bifurcation_from_first_eigenvalue(self):
        sols = nodal_solution(0, ProblemParams(1.0, 1.2, L1 * (1 - 1e-4)))
        assert len(sols) >= 1
        assert sols[0].amplitude < 1e-1
        assert sols[0].peak_values[0] == sols[0].amplitude

    def test_scan_noise_bracket_dropped(self, monkeypatch):
        # near Lambda_1 lambda(s) is nearly flat, and at a fixed scan abs_tol
        # two nodes there could differ in sign by noise alone.  Here lambda(s)
        # lies below the target at both ends of the bracket (the real root
        # lies at a smaller amplitude, near s = 2e-6), while its lower end
        # is handed over as lying above it.  Newton's one scan-tolerance
        # iterate lies within the noise of the target, and the first
        # full-tolerance step leaves the bracket: no root is returned, after
        # at most three integrations at scan tolerance and none at full
        p = ProblemParams(1.0, 1.2, L1 * (1 - 1e-7))
        lt = p.log_lambda
        xa, xb = math.log(2.9696293045402426e-6), math.log(4.268444644387833e-6)
        for x in (xa, xb):
            assert 2.0 * solve_unit_lambda(math.exp(x), 0, P12).log_zeros[0][0] < lt
        full = shooting.FULL_SETTINGS
        calls, scan_calls = [], []

        def counting(s, p0, n_zeros, settings=None):
            (calls if settings is full else scan_calls).append(s)
            return ode.integrate_radial(s, p0, n_zeros, settings)

        monkeypatch.setattr(shooting, "integrate_radial", counting)
        assert shooting._newton(0, p, 0.5 * (xa + xb), xa, xb, 1e-9) is None
        assert len(calls) == 0
        assert len(scan_calls) <= 3

    def test_newton_bisects_the_shrinking_bracket(self, monkeypatch):
        # a scan-tolerance Newton step that would leave the bracket the
        # iterates have shrunk to is replaced by the bracket's midpoint.
        # On ln(lambda) = atan(8 ln s) (target 0, bracket [-1, 1] in ln s)
        # the steps, clipped to the trust radius 0.5, go 0.25 -> -0.25 and
        # back to 0.25, the shrunk bracket's end; the midpoint 0 is the
        # root, which the next, full-tolerance solve accepts
        full = shooting.FULL_SETTINGS
        calls = []

        def unit_lambda(s, k, p0, settings=None):
            x = math.log(s)
            calls.append((x, settings))
            traj = SimpleNamespace(log_zeros=[(0.5 * math.atan(8.0 * x), -1.0)],
                                   log_slope=8.0 / (1.0 + 64.0 * x * x))
            return traj

        monkeypatch.setattr(shooting, "solve_unit_lambda", unit_lambda)
        traj = shooting._newton(0, P12, 0.25, -1.0, 1.0, math.atan(-8.0))
        assert traj is not None and traj.log_zeros[0][0] == 0.0
        xs = [x for x, _ in calls]
        assert xs == pytest.approx([0.25, -0.25, 0.0, 0.0], abs=1e-15)
        assert [settings for _, settings in calls] == [SCAN_SETTINGS] * 3 + [full]

    def test_newton_gives_up(self, monkeypatch):
        # None when a solve misses its zero, and after _MAX_NEWTON scan
        # solves that all stay 1e-3 off the target (each 1e-12 step leaves
        # the shrunk bracket and is replaced by its midpoint)
        def missing(s, k, p0, settings=None):
            raise ZeroNotReachedError("radius cap")

        monkeypatch.setattr(shooting, "solve_unit_lambda", missing)
        assert shooting._newton(0, P12, 0.25, -1.0, 1.0, 1.0) is None
        calls = []

        def off_target(s, k, p0, settings=None):
            calls.append(settings)
            return SimpleNamespace(log_zeros=[(0.5e-3, -1.0)], log_slope=1e9)

        monkeypatch.setattr(shooting, "solve_unit_lambda", off_target)
        assert shooting._newton(0, P12, 0.25, -1.0, 1.0, 1.0) is None
        assert calls == [SCAN_SETTINGS] * shooting._MAX_NEWTON

    def test_missing_interior_peak_typed(self):
        # a k = 1 trajectory whose interior peak was not detected
        zeros = [(-1.0, 0.5), (0.0, -0.5)]
        traj = SimpleNamespace(
            log_zeros=zeros, initial_amplitude=3.0,
            shifted=lambda dt: SimpleNamespace(log_zeros=zeros, log_peaks=[]))
        with pytest.raises(ZeroNotReachedError, match="expected 1 interior peak"):
            shooting._build_solution(traj, 1, P12)

    @pytest.mark.parametrize("s", [1e-6, 1e-4, 1e-2])
    def test_scan_tolerance_follows_amplitude(self, s):
        # u is of size s, so every solve scales abs_tol by min(1, s): a
        # fixed scan abs_tol of 1e-9 left ln(lambda) off by 4.1e-5 at s = 1e-6
        full = 2.0 * solve_unit_lambda(s, 0, P12).log_zeros[0][0]
        traj = solve_unit_lambda(s, 0, P12, SCAN_SETTINGS)
        assert abs(2.0 * traj.log_zeros[0][0] - full) <= 1e-7

    @pytest.mark.parametrize("beta, fold, target, roots", [
        (1.0, (14.44996, 3.220884), 3.220884 * (1 + 1e-4), (13.7155, 15.2468)),
        (0.5, (3.98903, 3.256929), 3.256929 * (1 + 1e-3), (3.8566, 4.1339)),
    ])
    def test_roots_beside_fold(self, beta, fold, target, roots):
        # lambda_1(s) has its minimum just below the target: both roots lie
        # within one step of a coarse grid, which sees no sign change there.
        # The trace locates the fold and brackets one root on either side
        p = ProblemParams(1.0, beta, target)
        tr = trace(1, p)
        assert len(tr.folds) == 1
        x, y, slope = tr.nodes[tr.folds[0]]
        assert abs(slope) <= shooting._FOLD_SLOPE
        assert math.exp(x) == pytest.approx(fold[0], rel=1e-4)
        assert math.exp(y) == pytest.approx(fold[1], rel=1e-6)
        sols = nodal_solution(1, p, traced=tr)
        assert [sol.amplitude for sol in sols] == pytest.approx(roots, abs=1e-4)
        for sol in sols:
            assert sol.params.lam == pytest.approx(target, rel=1e-9)

    @pytest.mark.parametrize("beta, target, roots", [
        (1.01, 3.198, (13.4675, 20.4115)),
        (1.0, 3.2245, (12.1990, 17.4101)),
    ])
    def test_both_roots_beside_turning_point(self, beta, target, roots):
        # lambda_1(s) turns between the two roots, so each lies in its own
        # node pair of the trace, on a curved branch.  A tangent step
        # from the secant point may leave its bracket; bisecting instead
        # keeps both roots
        sols = nodal_solution(1, ProblemParams(1.0, beta, target))
        assert [sol.amplitude for sol in sols] == pytest.approx(roots, abs=1e-4)
        for sol in sols:
            assert sol.params.lam == pytest.approx(target, rel=1e-9)

    def test_fold_pair_inside_one_step_found(self):
        # k = 1, alpha = 0.1, beta = 1.8: a step from s = 3.954 to 6.193 has
        # negative slopes at both ends while ln(lambda) rises, so it holds a
        # minimum and a maximum of lambda_1(s).  The trace retries it at half
        # its length until it sees both folds, and the target between them
        # has three roots, not one
        p = ProblemParams(0.1, 1.8, 7.86)
        tr = trace(1, p)
        folds = [tr.nodes[i] for i in tr.folds]
        assert [math.exp(x) for x, _, _ in folds] == pytest.approx([3.998, 5.973], rel=1e-3)
        assert [math.exp(y) for _, y, _ in folds] == pytest.approx([7.789, 7.932], rel=1e-3)
        sols = nodal_solution(1, p, traced=tr)
        assert [sol.amplitude for sol in sols] == pytest.approx(
            [3.555551, 4.755679, 7.831605], rel=1e-6)

    @pytest.mark.parametrize("beta, target, root", [
        (1.0, 1.81736e-12, 14.723069),
        (1.3, 1.58028e-15, 12.951979),
    ])
    def test_root_behind_a_scan_jump_polished(self, beta, target, root):
        # k = 0, alpha = 3: near the root a scan-tolerance first-bubble step
        # jumped past the first zero, so ln(lambda) jumped by ~25 there and
        # _newton spent its integrations bisecting across the jump
        sols = nodal_solution(0, ProblemParams(3.0, beta, target))
        assert [sol.amplitude for sol in sols] == pytest.approx([root], rel=1e-6)

    def test_every_straddling_pair_polished(self, monkeypatch):
        # ln(lambda) - ln(p.lam) changes sign across two node pairs of a
        # trace with no fold between them: both are polished, in ascending
        # amplitude, each from its secant point
        brackets = []

        def recording(*args):
            brackets.append(args[-4:-1])  # (x, lo, hi)
            return None

        monkeypatch.setattr(shooting, "_newton", recording)
        p = ProblemParams(1.0, 1.0, 1.0)
        nodes = ((0.0, 0.5, -0.1), (1.0, -0.5, -0.1), (2.0, 0.5, -0.1), (3.0, 1.0, -0.1))
        with pytest.raises(NoSolutionInRangeError):
            nodal_solution(1, p, traced=Trace(1, p, nodes, ()))
        assert brackets == [(0.5, 0.0, 1.0), (1.5, 1.0, 2.0)]

    def test_trace_ends_on_a_wobbling_flat_stretch(self, monkeypatch):
        # a flat ln(lambda) that wobbles by 1e-9 against its slightly
        # negative slope: a move within scan noise is not taken for a
        # hidden fold pair, so the steps grow and the trace ends at S_MAX
        calls = []

        def wobbling(k, p, x):
            calls.append(x)
            assert len(calls) <= 60
            return x, 1.0 + 1e-9 * math.sin(3.0 * x), -1e-12

        monkeypatch.setattr(shooting, "_node", wobbling)
        tr = trace(0, P12)
        assert math.exp(tr.nodes[-1][0]) == pytest.approx(shooting.S_MAX, rel=1e-12)
        assert tr.folds == ()

    def test_solutions_carry_the_slope(self):
        # d ln(lambda)/d ln(s) is a dilation invariant: shifted used to drop
        # it, and both solutions beside this fold read None.  Every
        # integration carries it, so solution_at returns it bit for bit
        p = ProblemParams(1.0, 1.0, 3.2245)
        sols = nodal_solution(1, p)
        assert len(sols) == 2
        for sol in sols:
            slope = solution_at(sol.amplitude, 1, p).trajectory.log_slope
            assert math.isfinite(slope) and sol.trajectory.log_slope == slope

    def test_each_amplitude_integrated_once(self, monkeypatch):
        # the trace hands Newton the secant point of the nodes it measured,
        # so no solve integrates one amplitude twice at one tolerance; the
        # nodes and Newton's iterates all pass solve_unit_lambda
        seen = {}

        def recording(s, k, p0, settings=None):
            seen.setdefault(settings.rel_tol, []).append(s)
            return solve_unit_lambda(s, k, p0, settings)

        monkeypatch.setattr(shooting, "solve_unit_lambda", recording)
        nodal_solution(1, ProblemParams(1.0, 1.0, 3.2245))
        assert len(seen) == 2
        for amps in seen.values():
            amps.sort()
            assert all(b - a > 1e-15 * b for a, b in zip(amps, amps[1:]))

    def test_resolve_from_record(self, reference_family, monkeypatch):
        # the recipe for getting a solution back: one integration at its
        # amplitude and the default tolerances gives back its trajectory
        # bit for bit, and so its summary.  Inputs: each reference family
        # member, and both branches of a two-domain solve (CI's
        # solve_two_branches run, s ~ 12.2 and 17.4)
        spec = reference_family.spec
        p = ProblemParams(1.0, 1.0, 3.2245)
        branches = nodal_solution(1, p)
        assert len(branches) == 2
        cases = [(rec, spec.k, spec.members[n])
                 for n, rec in reference_family.records.items()]
        cases += [(summarize(sol), 1, p) for sol in branches]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return ode.integrate_radial(*args, **kwargs)

        monkeypatch.setattr(shooting, "integrate_radial", counting)
        for rec, k, target in cases:
            calls.clear()
            sol = solution_at(rec.amplitude, k, target)
            assert calls == [rec.amplitude]
            assert summarize(sol) == rec

    def test_reach_ends_at_budget_past_a_fold(self):
        # weak_limit_preset's last member: lambda_1(s) at beta = 1.03 has
        # its minimum 3.1268 near s = 24.15, above the target 3.1, and
        # rises at the amplitude budget, where the trace stops.  The next
        # root, near s = 1197, lies beyond the trace's reach
        p = ProblemParams(1.0, 1.03, 3.1)
        tr = trace(1, p)
        assert len(tr.folds) == 1
        x, y, _ = tr.nodes[tr.folds[0]]
        assert math.exp(x) == pytest.approx(24.15182, rel=1e-4)
        assert math.exp(y) == pytest.approx(3.126802, rel=1e-6)
        assert math.exp(tr.nodes[-1][0]) == pytest.approx(amplitude_budget(p), rel=1e-12)
        assert tr.nodes[-1][2] > 0.0
        with pytest.raises(NoSolutionInRangeError) as exc:
            nodal_solution(1, p, traced=tr)
        assert exc.value.lam_range[0] == pytest.approx(3.126802, rel=1e-6)
        # the error names the turn that keeps the branch above the target
        assert exc.value.turn == (math.exp(x), math.exp(y))
        assert str(exc.value).endswith(
            "; the branch turns at lambda=3.126802 (s=24.1518) before reaching it")

    def test_reach_extends_while_falling_above_target(self):
        # the k=0 branch at beta = 1.2 falls below 1e-300 past the budget:
        # the trace goes on exactly until it passes the lowest target
        p = ProblemParams(1.0, 1.2, 1e-300)
        tr = trace(0, p)
        assert math.exp(tr.nodes[-1][0]) > 2.0 * amplitude_budget(p)
        assert tr.nodes[-1][1] < p.log_lambda < tr.nodes[-2][1]
        assert all(slope < 0.0 for _, _, slope in tr.nodes) and tr.folds == ()

    def test_shared_trace_matches_own_trace(self):
        # a trace down to a lower target (as run_family shares one along a
        # branch) repeats the nodes of the target's own trace up to the
        # budget, so the root is the same to the last bit
        p = ProblemParams(1.0, 1.2, 3e-3)
        own = nodal_solution(0, p)[0]
        shared = nodal_solution(0, p, traced=trace(0, ProblemParams(1.0, 1.2, 1e-300)))
        assert [sol.amplitude for sol in shared] == [own.amplitude]

    @pytest.mark.parametrize("lam, kwargs, message", [
        (1e-3, {"k": -1}, "k must be nonnegative"),
        # a trace of another k, beta or alpha, or one that stops above the
        # target
        (1e-3, {"traced": Trace(1, ProblemParams(1.0, 1.2, 1e-3), (), ())}, "trace"),
        (1e-3, {"traced": Trace(0, ProblemParams(1.0, 1.3, 1e-3), (), ())}, "trace"),
        (1e-3, {"traced": Trace(0, ProblemParams(3.0, 1.2, 1e-3), (), ())}, "trace"),
        (1e-3, {"traced": Trace(0, ProblemParams(1.0, 1.2, 1e-2), (), ())}, "trace"),
    ])
    def test_invalid_search_rejected_before_integrating(
            self, monkeypatch, lam, kwargs, message):
        # the target is p.lam, which ProblemParams checks (test_nonlinearity)
        calls = []
        monkeypatch.setattr(shooting, "integrate_radial",
                            lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match=message):
            nodal_solution(**{"k": 0, "p": ProblemParams(1.0, 1.2, lam), **kwargs})
        assert calls == []

    @pytest.mark.parametrize("entry", ["nodal_solution", "trace", "solve_unit_lambda",
                                       "lambda_of_s", "solution_at"])
    def test_every_shooting_entry_checks_the_nodal_class(self, monkeypatch, entry):
        # one message, from the funnel every integration passes
        calls = []
        monkeypatch.setattr(shooting, "integrate_radial",
                            lambda *args, **kw: calls.append(args))
        args = (-1, P12) if entry in ("nodal_solution", "trace") else (1.0, -1, P12)
        with pytest.raises(ValueError, match="^k must be nonnegative, got -1$"):
            getattr(shooting, entry)(*args)
        assert calls == []

    def test_no_solution_beyond_range(self):
        # 7.0 lies above the k=0 branch, whose eigenvalues stay below
        # Lambda_1 = 5.78 (small targets such as 1e-15 are now reached)
        with pytest.raises(NoSolutionInRangeError) as exc:
            nodal_solution(0, ProblemParams(1.0, 1.2, 7.0))
        lo, hi = exc.value.lam_range
        assert 0.0 < lo < hi < 7.0  # diagnostic carries the traced lambda range
        # the extreme is the first node, not a fold: no turn is named
        assert exc.value.turn is None
        assert "turns" not in str(exc.value)

    @pytest.mark.parametrize("alpha, root", [(1.0, 2852.11), (0.2, None)])
    def test_deep_k2_branch_typed(self, alpha, root):
        # k=2, beta=1.8 at lambda_3 * 1e-3: the trace integrates s ~ 3000,
        # where a step's error estimate underflows; that was an untyped
        # ZeroDivisionError.  alpha = 1 has one root there, alpha = 0.2 none
        p = ProblemParams(alpha, 1.8, j0_zero(3).lambda_k * 1e-3)
        if root is None:
            with pytest.raises(NoSolutionInRangeError):
                nodal_solution(2, p)
        else:
            sols = nodal_solution(2, p)
            assert [sol.amplitude for sol in sols] == pytest.approx([root], abs=0.01)

    def test_solution_structure(self, sol_mid):
        assert sol_mid.k == 0
        assert sol_mid.nodal_radii == (1.0,)
        assert sol_mid.peak_radii == (0.0,)
        assert sol_mid.boundary_slopes[0] < 0.0
        # maximum at the origin for the one-domain class
        traj = sol_mid.trajectory
        assert all(abs(traj.u_log(math.log(j / 40.0))) <= sol_mid.amplitude * (1 + 1e-12)
                   for j in range(1, 40))

    def test_dilation_preserves_first_integral(self, sol_mid):
        assert first_integral_residual(sol_mid) <= 1e-8

    def test_rescaled_equation_residual(self, sol_mid):
        # -u'' - u'/r = lambda f(u) on the unit ball; u'' is differenced
        # from the derivative channel (second differences of the dense
        # interpolant amplify its error past the tiny right-hand side)
        traj = sol_mid.trajectory
        p = sol_mid.params

        def du(r):
            return traj.eval_log(math.log(r))[1] / r

        h = 1e-4
        for r in (0.3, 0.55, 0.8):
            d1 = du(r)
            d2 = (du(r + h) - du(r - h)) / (2 * h)
            lhs = -d2 - d1 / r
            u = traj.u_log(math.log(r))
            rhs = p.lam * u * math.exp(u * u + p.alpha * abs(u) ** p.beta)
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
        assert traj.u_log(math.log(0.5 * r1)) > 0.0
        assert traj.u_log(sol_k1.log_peak_radii[1]) < 0.0


class TestAmplitudeBudget:
    def test_budget_solves_equation(self):
        s = amplitude_budget(P12)
        val = math.log(s) + s * s + s ** 1.2
        assert val == pytest.approx(699.5, abs=1e-5)

    def test_overflow_translated(self, monkeypatch):
        # no overflow wall in log radius: s = 30 reaches its zero ...
        traj = solve_unit_lambda(30.0, 0, P12)
        assert len(traj.log_zeros) == 1
        # ... and a run stopped by its own caps still reports the zero as
        # not reached
        z = math.exp(traj.log_zeros[0][0])
        with monkeypatch.context() as m:
            m.setattr(ode, "MAX_RADIUS", 0.5 * z)
            with pytest.raises(ZeroNotReachedError):
                solve_unit_lambda(30.0, 0, P12)
        with monkeypatch.context() as m:
            m.setattr(ode, "MAX_STEPS", 20)
            with pytest.raises(ZeroNotReachedError):
                solve_unit_lambda(30.0, 0, P12)

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
        half = solve_unit_lambda(s, 1, self.P13, SolverSettings(rel_tol=5e-11, abs_tol=5e-13))
        assert math.exp(2.0 * half.log_zeros[1][0]) == pytest.approx(base, rel=1e-8)

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
