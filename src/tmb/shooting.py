"""Construction of nodal radial solutions on the unit disk by shooting.

The two-point problem is reduced to an initial-value one: integrate at
lambda = 1 from amplitude s until the (k+1)-th zero z_{k+1}(s) = exp(t_{k+1}),
then use the dilation u(x) -> u(z*x), which maps that zero to the unit
boundary while lambda transforms as lambda*z^2.  The achieved eigenvalue is

    lambda_of_s(s) = exp(2 t_{k+1}(s)),

and a nodal solution with a prescribed lambda is a scalar root-find in s.
lambda_of_s may be non-monotone, so the root-finder scans a log-spaced
amplitude grid and polishes every bracket by Newton, with slopes from the
integrator's sensitivity channel (all branches are returned).

Radii are stored as log radii: past s ~ 38 the inner radii of a solution
underflow binary64 (the first bubble sits near r ~ exp(-s^2/2)), while
their logarithms stay finite.
"""

from __future__ import annotations

import math

from .errors import NoSolutionInRangeError, ZeroNotReachedError
from .nonlinearity import OVERFLOW_BUDGET, ProblemParams
from .ode import SolverSettings, Trajectory, integrate_radial, radii, slopes
from .records import record

DEFAULT_SCAN_POINTS = 200
DEFAULT_S_MIN = 1e-6
_BUDGET_MARGIN = 0.5
# Amplitude ceiling of every search.  After the first bubble the
# integrator drops a forcing below exp(-60) over a flight of length ~s^2/2,
# which moves the next zero by about s^3*exp(-60)/4 in log radius: 2e-12
# at s = 1e5, but 2e-9 at s = 1e6, past the 1e-10 tolerance the brackets
# are polished to.
S_MAX = 1e5

# Relaxed tolerances of the scan and of Newton's first steps.
SCAN_SETTINGS = SolverSettings(rel_tol=1e-6, abs_tol=1e-9)
# A polished root matches the target to this much in ln(lambda).
POLISH_TOL = 1e-10
# _newton's switch residual, largest step in ln(s) and integration cap.
_SWITCH_TOL = 1e-5
_TRUST = 0.5
_MAX_NEWTON = 12


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


@record
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
                      settings: SolverSettings | None = None,
                      sensitivity: bool = False):
    """Integrate at lambda=1 from amplitude s to the (k+1)-th zero.

    Returns (zeros, trajectory); zeros is the list of the first k+1 zero
    radii (0.0 where a radius underflows; trajectory.log_zeros has their
    logarithms); with sensitivity, trajectory.log_slope = d ln(lambda)/d ln(s).
    Every integration of the shooting layer passes here.  Raises
    ZeroNotReachedError if the radius cap or the step budget interferes.
    """
    if p0.lam != 1.0:
        raise ValueError("solve_unit_lambda shoots at lambda = 1")
    traj = integrate_radial(s, p0, k + 1, settings, sensitivity=sensitivity)
    return list(radii(t for t, _ in traj.log_zeros)), traj


def lambda_of_s(s: float, k: int, p0: ProblemParams,
                settings: SolverSettings | None = None) -> float:
    """The unique lambda for which u(z_{k+1} * .) lies in the k-nodal class.

    This is exp(2 t_{k+1}), so it underflows to 0.0 once ln(lambda) < -745:
    k=0, beta=1.2, s=1e3 gives t_1 = -802.9.  ln(lambda) itself stays
    finite: 2 * solve_unit_lambda(s, k, p0, settings)[1].log_zeros[k][0].
    """
    _, traj = solve_unit_lambda(s, k, p0, settings)
    return math.exp(2.0 * traj.log_zeros[k][0])


def _build_solution(traj: Trajectory, k: int, p0: ProblemParams) -> RadialSolution:
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


def _probe(k: int, lt: float, p0: ProblemParams, s: float):
    """(ln s, ln lambda - lt) at SCAN_SETTINGS, integrated at exp(ln s);
    None when the (k+1)-th zero is not reached."""
    x = math.log(s)
    try:
        _, traj = solve_unit_lambda(math.exp(x), k, p0, SCAN_SETTINGS)
    except ZeroNotReachedError:
        return None
    return x, 2.0 * traj.log_zeros[k][0] - lt


def _scan(k: int, p0: ProblemParams, lt: float, n_points: int):
    """Probes on a log grid of n_points from DEFAULT_S_MIN to
    amplitude_budget(p0), continued at the same ratio while lambda is above
    the target and still falling, up to S_MAX.  Returns (last amplitude,
    probes), with None marking failed probes.
    """
    s_max = amplitude_budget(p0)
    ratio = (s_max / DEFAULT_S_MIN) ** (1.0 / (n_points - 1))
    grid = [DEFAULT_S_MIN * ratio ** i for i in range(n_points)]
    grid[-1] = s_max
    probes = [_probe(k, lt, p0, s) for s in grid]
    ratio = grid[-1] / grid[-2]
    while probes[-2] is not None and probes[-1] is not None \
            and 0.0 < probes[-1][1] < probes[-2][1] and grid[-1] < S_MAX:
        grid.append(min(grid[-1] * ratio, S_MAX))
        probes.append(_probe(k, lt, p0, grid[-1]))
    return grid[-1], probes


def _newton(k: int, lt: float, p0: ProblemParams, settings: SolverSettings,
            x: float, lo: float, hi: float, f_lo: float | None = None):
    """Newton on f(x) = ln lambda(exp x) - lt from x in [lo, hi], with the
    sensitivity channel's slope: at SCAN_SETTINGS until |f| <= _SWITCH_TOL,
    then at `settings` until |f| <= POLISH_TOL.  Given f_lo = f(lo), [lo, hi]
    is a scan bracket: at SCAN_SETTINGS each iterate shrinks it, and a step
    that would leave it bisects it instead.  None when an iterate leaves
    [lo, hi] or misses the (k+1)-th zero, after _MAX_NEWTON integrations,
    or (unbracketed) when |f| stops falling or the slope changes sign at a
    turning point."""
    tol, f_last, slope_last, a, b = SCAN_SETTINGS, math.inf, 0.0, lo, hi
    for _ in range(_MAX_NEWTON):
        try:
            _, traj = solve_unit_lambda(math.exp(x), k, p0, tol, sensitivity=True)
        except ZeroNotReachedError:
            return None
        f, slope = 2.0 * traj.log_zeros[k][0] - lt, traj.log_slope
        if tol is settings and abs(f) <= POLISH_TOL:
            return traj
        bracketed = f_lo is not None and tol is not settings
        if bracketed:
            a, b = (x, b) if f * f_lo > 0.0 else (a, x)
        elif not abs(f) < f_last or not slope * slope_last >= 0.0 or slope == 0.0:
            return None
        f_last, slope_last = abs(f), slope
        if tol is not settings and f_last <= _SWITCH_TOL:
            tol, f_last, bracketed = settings, math.inf, False
        x -= max(-_TRUST, min(_TRUST, f / slope if slope != 0.0 else math.inf))
        if bracketed and not a < x < b:
            x = 0.5 * (a + b)
        if not lo <= x <= hi:
            return None
    return None


def nodal_solution(k: int, target_lambda: float, p: ProblemParams,
                   settings: SolverSettings | None = None,
                   scan_points: int = DEFAULT_SCAN_POINTS,
                   seed_amplitude: float | None = None) -> list[RadialSolution]:
    """All k-nodal solutions with the prescribed eigenvalue found by the scan.

    Scans lambda_of_s at scan tolerance on a log grid of scan_points >= 2
    amplitudes from DEFAULT_S_MIN to amplitude_budget(p), continued at the
    same ratio while lambda_of_s is above the target and still falling, up
    to S_MAX; every scan is made afresh, nothing is kept between calls.
    _newton polishes every sign change of lambda_of_s - target_lambda from
    the secant point of its two probes until ln(lambda) matches to
    POLISH_TOL; a bracket it gives up on is dropped as scan noise.
    Measured at default settings: polish residual <= 1.1e-11 in ln(lambda)
    on the reference_family and weak_limit_preset presets; for s <= 18 the
    lambda achieved is within 2.0e-11 (relative) of the benchmark oracle,
    whose own rtol 1e-12 and 1e-13 answers differ by up to 1.2e-10 there.
    A positive, finite seed_amplitude (continuation within a family) starts
    _newton at the seed instead; the scan runs only if it gives up, as at a
    turning point.  Started at a root it found before, it integrates thrice.

    Raises NoSolutionInRangeError when no bracket exists on the scan.
    """
    if not (0.0 < target_lambda < math.inf):
        raise ValueError(
            f"target lambda must be positive and finite, got {target_lambda!r}")
    if k < 0:
        raise ValueError(f"nodal class must be nonnegative, got {k!r}")
    if scan_points < 2:
        raise ValueError(f"scan_points must be at least 2, got {scan_points!r}")
    if not (seed_amplitude is None or 0.0 < seed_amplitude < math.inf):
        raise ValueError(f"seed must be positive and finite, got {seed_amplitude!r}")
    full = settings or SolverSettings()
    p0 = ProblemParams(p.alpha, p.beta, 1.0)
    lt = math.log(target_lambda)

    if seed_amplitude is not None:
        traj = _newton(k, lt, p0, full, math.log(seed_amplitude),
                       math.log(DEFAULT_S_MIN), math.log(S_MAX))
        if traj is not None:
            return [_build_solution(traj, k, p0)]

    s_end, probes = _scan(k, p0, lt, scan_points)
    valid = [pr for pr in probes if pr is not None]
    if not valid:
        raise NoSolutionInRangeError(target_lambda, math.nan, math.nan,
                                     DEFAULT_S_MIN, s_end)
    solutions = []
    for (xa, fa), (xb, fb) in zip(valid, valid[1:]):
        if fa * fb < 0.0 or fb == 0.0:  # a probe on target ends one bracket
            x = xb - fb * (xb - xa) / (fb - fa) if fb != 0.0 else 0.5 * (xa + xb)
            traj = _newton(k, lt, p0, full, x, xa, xb, fa)
            if traj is not None:
                solutions.append(_build_solution(traj, k, p0))
    if not solutions:
        lams = [math.exp(lt + f) for _, f in valid]
        raise NoSolutionInRangeError(target_lambda, min(lams), max(lams),
                                     DEFAULT_S_MIN, s_end)
    solutions.sort(key=lambda sol: sol.amplitude)
    return solutions
