"""Construction of nodal radial solutions on the unit disk by shooting.

The two-point problem is reduced to an initial-value one: integrate at
lambda = 1 from amplitude s until the (k+1)-th zero z_{k+1}(s) = exp(t_{k+1}),
then use the dilation u(x) -> u(z*x), which maps that zero to the unit
boundary while lambda transforms as lambda*z^2.  The achieved eigenvalue is

    lambda_of_s(s) = exp(2 t_{k+1}(s)),

and a nodal solution with a prescribed lambda is a scalar root-find in s.
lambda_of_s may be non-monotone, so the root-finder scans a log-spaced
amplitude grid and polishes every bracket (all branches are returned).

Radii are stored as log radii: past s ~ 38 the inner radii of a solution
underflow binary64 (the first bubble sits near r ~ exp(-s^2/2)), while
their logarithms stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoSolutionInRangeError, ZeroNotReachedError
from .nonlinearity import OVERFLOW_BUDGET, ProblemParams
from .ode import SolverSettings, Trajectory, integrate_radial, radii, slopes

DEFAULT_SCAN_POINTS = 200
DEFAULT_S_MIN = 1e-6
_BUDGET_MARGIN = 0.5
# Amplitude ceiling of every search.  After the first bubble the
# integrator drops a forcing below exp(-60) over a flight of length ~s^2/2,
# which moves the next zero by about s^3*exp(-60)/4 in log radius: 2e-12
# at s = 1e5, but 2e-9 at s = 1e6, past the 1e-10 tolerance the brackets
# are polished to.
S_MAX = 1e5


def scan_settings_from(settings: SolverSettings | None) -> SolverSettings:
    """Relaxed-tolerance settings used only to bracket sign changes."""
    base = settings or SolverSettings()
    return SolverSettings(rel_tol=1e-6, abs_tol=1e-9, max_radius=base.max_radius,
                          max_steps=base.max_steps)


def amplitude_budget(p: ProblemParams) -> float:
    """Largest amplitude whose lambda=1 nonlinearity stays inside the
    binary64 exponent budget.

    Solves ln(s) + s^2 + alpha*s^beta = OVERFLOW_BUDGET - margin by
    bisection.  The integrator no longer needs a budget; this amplitude
    still ends the base grid of the lambda(s) scan (see nodal_solution).
    """
    target = OVERFLOW_BUDGET - _BUDGET_MARGIN

    def g(s):
        return math.log(s) + s * s + p.alpha * s ** p.beta - target

    lo, hi = 1.0, 40.0
    while g(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9 * hi:
            break
    return lo


class LogRadii:
    """Radii and slopes of a record that stores log_nodal_radii (ln r_i),
    log_peak_radii (ln rho_i, -inf for the origin) and boundary_ru
    (r_i*u'(r_i)).  The radii round to 0.0, and the slopes to +-inf, where
    r_i underflows."""

    @property
    def nodal_radii(self) -> tuple:
        return radii(self.log_nodal_radii)

    @property
    def peak_radii(self) -> tuple:
        return radii(self.log_peak_radii)

    @property
    def boundary_slopes(self) -> tuple:
        """u'(r_i) at each nodal radius."""
        return slopes(self.log_nodal_radii, self.boundary_ru)


@dataclass(frozen=True)
class RadialSolution(LogRadii):
    """A validated nodal radial solution on the unit disk, u(0) > 0.

    log_nodal_radii has k+1 entries ending at ln 1 = 0; log_peak_radii and
    peak_values carry the origin peak first (ln rho_1 = -inf); boundary_ru
    holds r_i*u'(r_i) at each nodal radius.  These stay finite where r_i
    underflows; nodal_radii, peak_radii and boundary_slopes are derived
    from them.
    """

    params: ProblemParams
    k: int
    amplitude: float
    trajectory: Trajectory
    log_nodal_radii: tuple
    log_peak_radii: tuple
    peak_values: tuple
    boundary_ru: tuple

    def __post_init__(self):
        if len(self.log_nodal_radii) != self.k + 1 \
                or len(self.boundary_ru) != self.k + 1:
            raise ValueError("nodal radius count does not match the nodal class")
        if len(self.log_peak_radii) != self.k + 1 or len(self.peak_values) != self.k + 1:
            raise ValueError("peaks must interleave zeros (one per domain)")
        if abs(math.exp(self.log_nodal_radii[-1]) - 1.0) > 1e-12:
            raise ValueError("outermost zero must sit on the unit boundary")
        if self.peak_values[0] != self.amplitude:
            raise ValueError("first peak must be the central amplitude")

    def domain_sign(self, i: int) -> int:
        """Sign of u on the i-th domain (1-based); u(0) > 0."""
        return 1 if i % 2 == 1 else -1


def solve_unit_lambda(s: float, k: int, p0: ProblemParams,
                      settings: SolverSettings | None = None):
    """Integrate at lambda=1 from amplitude s to the (k+1)-th zero.

    Returns (zeros, trajectory); zeros is the list of the first k+1 zero
    radii (0.0 where a radius underflows; trajectory.log_zeros has their
    logarithms).  Raises ZeroNotReachedError if the radius cap or the step
    budget interferes.
    """
    if p0.lam != 1.0:
        raise ValueError("solve_unit_lambda shoots at lambda = 1")
    if not (s > 0.0):
        raise ValueError(f"amplitude must be positive, got {s!r}")
    traj = integrate_radial(s, p0, k + 1, settings)
    return list(radii(t for t, _ in traj.log_zeros)), traj


def lambda_of_s(s: float, k: int, p0: ProblemParams,
                settings: SolverSettings | None = None) -> float:
    """The unique lambda for which u(z_{k+1} * .) lies in the k-nodal class."""
    _, traj = solve_unit_lambda(s, k, p0, settings)
    return math.exp(2.0 * traj.log_zeros[k][0])


def _build_solution(traj: Trajectory, k: int, p0: ProblemParams) -> RadialSolution:
    if len(traj.log_zeros) < k + 1:
        raise ZeroNotReachedError(
            f"trajectory carries {len(traj.log_zeros)} zero(s), need {k + 1}")
    t_z = traj.log_zeros[k][0]
    params = ProblemParams(p0.alpha, p0.beta, math.exp(2.0 * t_z))
    scaled = traj.shifted(t_z, params)
    log_radii = tuple(t for t, _ in scaled.log_zeros[:k + 1])
    interior = [pk for pk in scaled.log_peaks if pk[0] < log_radii[-1]]
    if len(interior) != k:
        raise ZeroNotReachedError(
            f"expected {k} interior peak(s), detected {len(interior)}")
    return RadialSolution(
        params=params,
        k=k,
        amplitude=traj.initial_amplitude,
        trajectory=scaled,
        log_nodal_radii=log_radii,
        log_peak_radii=(-math.inf,) + tuple(t for t, _ in interior),
        peak_values=(traj.initial_amplitude,) + tuple(a for _, a in interior),
        boundary_ru=tuple(ru for _, ru in scaled.log_zeros[:k + 1]),
    )


def _lambda_or_none(s, k, p0, settings):
    try:
        return lambda_of_s(s, k, p0, settings)
    except ZeroNotReachedError:
        return None


def _scan(k: int, p0: ProblemParams, target: float, n_points: int,
          settings: SolverSettings):
    """lambda_of_s on a log grid of n_points from DEFAULT_S_MIN to
    amplitude_budget(p0), continued at the same ratio while lambda is above
    the target and still falling, up to S_MAX.  Returns (grid, values),
    with None marking failed evaluations.
    """
    s_max = amplitude_budget(p0)
    ratio = (s_max / DEFAULT_S_MIN) ** (1.0 / (n_points - 1))
    grid = [DEFAULT_S_MIN * ratio ** i for i in range(n_points)]
    grid[-1] = s_max
    values = [_lambda_or_none(s, k, p0, settings) for s in grid]
    ratio = grid[-1] / grid[-2]
    while values[-2] is not None and values[-1] is not None \
            and target < values[-1] < values[-2] and grid[-1] < S_MAX:
        grid.append(min(grid[-1] * ratio, S_MAX))
        values.append(_lambda_or_none(grid[-1], k, p0, settings))
    return grid, values


def _secant_stage(feval, xa, fa, xb, fb, tol, max_iter):
    """Safeguarded secant on a bracket; returns (x_best, (xa, fa, xb, fb))."""
    best_x, best_f = (xb, fb) if abs(fb) < abs(fa) else (xa, fa)
    for _ in range(max_iter):
        x = xb - fb * (xb - xa) / (fb - fa)
        width = abs(xb - xa)
        if not (min(xa, xb) < x < max(xa, xb)):
            x = 0.5 * (xa + xb)
        f = feval(x)
        if abs(f) < abs(best_f):
            best_x, best_f = x, f
        if abs(f) <= tol or width < 1e-15:
            break
        if fa * f < 0.0:
            xb, fb = x, f
        else:
            xa, fa = x, f
    return best_x, (xa, fa, xb, fb)


def _polish_bracket(k: int, target: float, p0: ProblemParams,
                    s_lo: float, s_hi: float,
                    settings: SolverSettings | None,
                    rel_tol_lambda: float = 1e-10):
    """Two-phase secant in (ln s, ln lambda) space.

    A safeguarded secant at scan tolerance shrinks the bracket cheaply;
    a plain secant at full tolerance, seeded by its slope, finishes.
    Returns the trajectory of the converged full-tolerance evaluation, or
    None when the ends do not bracket at scan tolerance or the final
    secant does not converge (a scan-noise bracket, not a root).
    """
    lt = math.log(target)
    coarse = scan_settings_from(settings)

    def feval(x, stg):
        _, traj = solve_unit_lambda(math.exp(x), k, p0, stg)
        return 2.0 * traj.log_zeros[k][0] - lt, traj

    def feval_coarse(x):
        return feval(x, coarse)[0]

    x_lo, x_hi = math.log(s_lo), math.log(s_hi)
    f_lo, f_hi = feval_coarse(x_lo), feval_coarse(x_hi)
    if f_lo * f_hi > 0.0:
        return None
    # phase 1: coarse secant down to ~10x the scan noise floor.  The cap is
    # measured: converging stages took at most 11 iterations over the 23
    # polishes of the five presets and at most 10 over the test suite's 88;
    # only scan-noise brackets near Lambda_1 reach it, and phase 2 drops them.
    xc, (xa, fa, xb, fb) = _secant_stage(feval_coarse, x_lo, f_lo, x_hi, f_hi,
                                         2e-5, 12)
    # phase 2: plain secant at full tolerance, seeded by the coarse slope;
    # the full-tolerance root sits within the scan-noise offset of xc, so
    # a bracket-style safeguard would pin the iterates to the wrong side
    slope = (fb - fa) / (xb - xa) if xb != xa else 1.0
    x_min, x_max = min(x_lo, x_hi), max(x_lo, x_hi)
    x, xp, fp = xc, None, None
    for _ in range(14):
        f, traj = feval(x, settings)
        if abs(f) <= rel_tol_lambda:
            return traj
        if xp is None:
            x_next = x - f / slope if slope != 0.0 else 0.5 * (xa + xb)
        elif f == fp:
            return None
        else:
            x_next = x - f * (x - xp) / (f - fp)
        xp, fp = x, f
        x = min(max(x_next, x_min), x_max)
    return None


def nodal_solution(k: int, target_lambda: float, p: ProblemParams,
                   settings: SolverSettings | None = None,
                   scan_points: int = DEFAULT_SCAN_POINTS,
                   seed_amplitude: float | None = None) -> list[RadialSolution]:
    """All k-nodal solutions with the prescribed eigenvalue found by the scan.

    Scans lambda_of_s at scan tolerance on a log-spaced amplitude grid
    from DEFAULT_S_MIN to amplitude_budget(p) (the end of the former
    binary64 window), continued at the same ratio while lambda_of_s is
    above the target and still falling, up to S_MAX; every scan is made
    afresh, nothing is kept between calls.  Every sign change of
    lambda_of_s - target_lambda is polished in two phases: a safeguarded
    secant at scan tolerance to 2e-5 in ln(lambda), then a secant at the
    given settings, seeded by the coarse slope, until ln(lambda) matches
    to 1e-10 (at most 14 full-tolerance integrations).  A bracket whose
    full-tolerance secant does not converge is dropped as scan noise.
    Measured at default settings: the polish residual is at most 4.4e-12
    in ln(lambda) on the reference_family and weak_limit_preset presets,
    and for s <= 18 the achieved lambda is within 1.3e-10 (relative) of
    the independent benchmark oracle.  With seed_amplitude (continuation
    within a family) a local bracket around the seed is tried first and the
    scan is skipped when it succeeds.

    Raises NoSolutionInRangeError when no bracket exists on the scan.
    """
    if not (target_lambda > 0.0):
        raise ValueError(f"target lambda must be positive, got {target_lambda!r}")
    if k < 0:
        raise ValueError(f"nodal class must be nonnegative, got {k!r}")
    full = settings or SolverSettings()
    coarse = scan_settings_from(full)
    p0 = ProblemParams(p.alpha, p.beta, 1.0)

    if seed_amplitude is not None:
        sol = _continuation_solve(k, target_lambda, p0, seed_amplitude, full, coarse)
        if sol is not None:
            return [sol]

    grid, values = _scan(k, p0, target_lambda, scan_points, coarse)
    valid = [(s, v) for s, v in zip(grid, values) if v is not None]
    brackets = []
    for (s1, v1), (s2, v2) in zip(valid, valid[1:]):
        if (v1 - target_lambda) * (v2 - target_lambda) <= 0.0:
            brackets.append((s1, s2))
    lams = [v for _, v in valid]
    if not lams:
        raise NoSolutionInRangeError(target_lambda, math.nan, math.nan,
                                     DEFAULT_S_MIN, grid[-1])
    solutions = []
    for s_lo, s_hi in brackets:
        traj = _polish_bracket(k, target_lambda, p0, s_lo, s_hi, full)
        if traj is not None:
            solutions.append(_build_solution(traj, k, p0))
    if not solutions:
        raise NoSolutionInRangeError(target_lambda, min(lams), max(lams),
                                     DEFAULT_S_MIN, grid[-1])
    solutions.sort(key=lambda sol: sol.amplitude)
    return solutions


def _continuation_solve(k, target, p0, seed, full, coarse):
    """Bracket around a previous member's amplitude; None if it fails.

    The bracket grows only while lambda keeps moving toward the target,
    so that it follows the seed's branch and does not jump past a turning
    point to a distant one (the scan would not reach that one either).
    """
    def lam_at(s):
        return _lambda_or_none(s, k, p0, coarse)

    lo, hi = seed / 1.3, min(seed * 1.3, S_MAX)
    v_lo, v_hi = lam_at(lo), lam_at(hi)
    for _ in range(14):
        if v_lo is not None and v_hi is not None and \
                (v_lo - target) * (v_hi - target) <= 0.0:
            traj = _polish_bracket(k, target, p0, lo, hi, full)
            if traj is None:
                return None
            return _build_solution(traj, k, p0)
        # lambda decreases with amplitude along the branches of interest
        if v_lo is not None and v_lo < target:
            lo /= 1.6
            v_prev, v_lo = v_lo, lam_at(lo)
            if v_lo is None or v_lo <= v_prev:
                return None
        elif v_hi is not None and v_hi > target and hi < S_MAX:
            hi = min(hi * 1.6, S_MAX)
            v_prev, v_hi = v_hi, lam_at(hi)
            if v_hi is None or v_hi >= v_prev:
                return None
        else:
            return None
    return None
