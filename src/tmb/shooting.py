"""Construction of nodal radial solutions on the unit disk by shooting.

The two-point problem is reduced to an initial-value one: integrate at
lambda = 1 from amplitude s until the (k+1)-th zero z_{k+1}(s) = exp(t_{k+1}),
then use the dilation u(x) -> u(z*x), which maps that zero to the unit
boundary while lambda transforms as lambda*z^2.  The achieved eigenvalue is

    lambda_of_s(s) = exp(2 t_{k+1}(s)),

and a nodal solution with the eigenvalue p.lam of its ProblemParams p is a
scalar root-find in s.  Only solve_unit_lambda builds the lambda = 1
parameters, and only _build_solution applies a lambda: the dilation's.
lambda_of_s may be non-monotone, so trace follows ln lambda against ln s
once, with slopes from the sensitivity channel, inserts each fold it finds
as a node and rejects a step that hides a fold pair; Newton polishes every
node pair that straddles the target (all branches are returned).

Radii are stored as log radii: past s ~ 38 the inner radii of a solution
underflow binary64 (the first bubble sits near r ~ exp(-s^2/2)), while
their logarithms stay finite.
"""

from __future__ import annotations

import math
from contextlib import suppress

from .errors import NoSolutionInRangeError, ZeroNotReachedError
from .nonlinearity import ProblemParams
from .ode import SolverSettings, Trajectory, integrate_radial
from .records import record

DEFAULT_S_MIN = 1e-6
# Binary64 exponent budget (a safety margin below ln(DBL_MAX) ~ 709.78);
# amplitude_budget is its one reader, and keeps a further _BUDGET_MARGIN.
OVERFLOW_BUDGET = 700.0
_BUDGET_MARGIN = 0.5
# Amplitude ceiling of every search.  After the first bubble the
# integrator drops a forcing below exp(-60) over a flight of length ~s^2/2,
# which moves the next zero by about s^3*exp(-60)/4 in log radius: 2e-12
# at s = 1e5, but 2e-9 at s = 1e6, past the 1e-10 tolerance the brackets
# are polished to.
S_MAX = 1e5

# Relaxed tolerances of the trace and Newton's first steps; abs_tol is relative
# to s below 1, as in every solve (fixed, it put ln(lambda) 4e-5 off at s = 1e-6).
SCAN_SETTINGS = SolverSettings(rel_tol=1e-6, abs_tol=1e-9)
# A polished root matches the target to this much in ln(lambda).
POLISH_TOL = 1e-10
# _newton's switch residual, largest step in ln(s) and integration cap.
_SWITCH_TOL = 1e-5
_TRUST = 0.5
_MAX_NEWTON = 12
# The trace's first step in ln(s), its bound on the cubic Hermite defect of
# ln(lambda) per step relative to 1 + |ln(lambda)|, and the slope a fold
# is located to (in at most _MAX_NEWTON integrations).
_FIRST_STEP = 0.5
_DEFECT = 0.02
_FOLD_SLOPE = 1e-6


def amplitude_budget(p: ProblemParams) -> float:
    """Largest amplitude whose nonlinearity at lambda = 1 (p.lam is not
    read) stays inside the binary64 exponent budget.

    Solves ln(s) + s^2 + alpha*s^beta = OVERFLOW_BUDGET - _BUDGET_MARGIN
    by bisection.  No other code budgets an exponent: the integrator needs
    no budget, and this amplitude only bounds the reach of a trace (see
    trace).
    """
    target = OVERFLOW_BUDGET - _BUDGET_MARGIN

    def g(s):
        return math.log(s) + s * s + p.alpha * s ** p.beta - target

    lo, hi = 1.0, 40.0  # g(40) > ln 40 + 1600 - target > 900 for every alpha > 0
    while not hi - lo < 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if g(mid) > 0.0 else (mid, hi)
    return lo


def check_nodal_class(k: int) -> None:
    """Raise ValueError unless k, the count of interior zeros, is >= 0."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k!r}")


class LogRadii:
    """Radii, slopes, k and amplitude of a record that stores
    log_nodal_radii (ln r_i), log_peak_radii (ln rho_i, -inf for the
    origin), peak_values and boundary_ru (r_i*u'(r_i)).  The radii round to
    0.0, and the slopes to +-inf, where r_i underflows."""

    @property
    def k(self) -> int:
        return len(self.log_nodal_radii) - 1

    @property
    def amplitude(self) -> float:
        return self.peak_values[0]

    @property
    def nodal_radii(self) -> tuple:
        return tuple(math.exp(t) for t in self.log_nodal_radii)

    @property
    def peak_radii(self) -> tuple:
        return tuple(math.exp(t) for t in self.log_peak_radii)

    @property
    def boundary_slopes(self) -> tuple:
        """u'(r_i) = r_i*u'(r_i) / r_i at each nodal radius."""
        return tuple(ru / r if r > 0.0 else math.copysign(math.inf, ru) if ru != 0.0
                     else 0.0 for r, ru in zip(self.nodal_radii, self.boundary_ru))


@record
class RadialSolution(LogRadii):
    """A validated nodal radial solution on the unit disk, u(0) > 0.

    log_nodal_radii has k+1 entries ending at ln 1 = 0; log_peak_radii and
    peak_values carry the origin peak first (ln rho_1 = -inf); boundary_ru
    holds r_i*u'(r_i) at each nodal radius.  These stay finite where r_i
    underflows; nodal_radii, peak_radii, boundary_slopes, k and the
    amplitude u(0) are derived from them.
    """

    params: ProblemParams
    trajectory: Trajectory
    log_nodal_radii: tuple
    log_peak_radii: tuple
    peak_values: tuple
    boundary_ru: tuple

    def __post_init__(self):
        counts = {len(t) for t in (self.log_nodal_radii, self.log_peak_radii,
                                   self.peak_values, self.boundary_ru)}
        if len(counts) != 1 or 0 in counts:
            raise ValueError("nodal radius count differs from the peak or slope count")
        if abs(math.exp(self.log_nodal_radii[-1]) - 1.0) > 1e-12:
            raise ValueError("outermost zero must sit on the unit boundary")

    def domain_sign(self, i: int) -> int:
        """Sign of u on the i-th domain (1-based); u(0) > 0."""
        return 1 if i % 2 == 1 else -1

    def check_domain(self, i: int) -> None:
        """Raise ValueError unless i indexes a nodal domain: 1 <= i <= k+1."""
        if not (1 <= i <= self.k + 1):
            raise ValueError(f"domain index {i} out of range 1..{self.k + 1}")


def solve_unit_lambda(s: float, k: int, p: ProblemParams,
                      settings: SolverSettings | None = None,
                      sensitivity: bool = False) -> Trajectory:
    """Integrate at lambda = 1, with p.alpha and p.beta (p.lam is not
    read), from amplitude s to the (k+1)-th zero.

    Returns the trajectory; its log_zeros holds the first k+1 zeros by log
    radius, and with sensitivity its log_slope = d ln(lambda)/d ln(s).
    Every integration of the shooting layer passes here, k checked first.
    Raises ZeroNotReachedError if the radius cap or the step budget interferes.
    """
    check_nodal_class(k)
    return integrate_radial(s, ProblemParams(p.alpha, p.beta, 1.0), k + 1,
                            settings, sensitivity=sensitivity)


def lambda_of_s(s: float, k: int, p: ProblemParams,
                settings: SolverSettings | None = None) -> float:
    """The unique lambda for which u(z_{k+1} * .) lies in the k-nodal class.

    This is exp(2 t_{k+1}), so it underflows to 0.0 once ln(lambda) < -745:
    k=0, beta=1.2, s=1e3 gives t_1 = -802.9.  ln(lambda) itself stays
    finite: 2 * solve_unit_lambda(s, k, p, settings).log_zeros[k][0].
    """
    return math.exp(2.0 * solve_unit_lambda(s, k, p, settings).log_zeros[k][0])


def _build_solution(traj: Trajectory, k: int, p: ProblemParams) -> RadialSolution:
    """The dilation of a lambda = 1 trajectory that puts its (k+1)-th zero
    t_z on the unit boundary: a solution at lambda = exp(2 t_z)."""
    t_z = traj.log_zeros[k][0]
    scaled = traj.shifted(t_z)
    log_radii = tuple(t for t, _ in scaled.log_zeros[:k + 1])
    interior = [pk for pk in scaled.log_peaks if pk[0] < log_radii[-1]]
    if len(interior) != k:
        raise ZeroNotReachedError(
            f"expected {k} interior peak(s), detected {len(interior)}")
    return RadialSolution(
        params=ProblemParams(p.alpha, p.beta, math.exp(2.0 * t_z)),
        trajectory=scaled,
        log_nodal_radii=log_radii,
        log_peak_radii=(-math.inf,) + tuple(t for t, _ in interior),
        peak_values=(traj.initial_amplitude,) + tuple(a for _, a in interior),
        boundary_ru=tuple(ru for _, ru in scaled.log_zeros[:k + 1]),
    )


def _node(k: int, p: ProblemParams, x: float) -> tuple:
    """(x, ln lambda, d ln lambda/d ln s) at s = exp(x), at scan tolerance."""
    s = math.exp(x)
    traj = solve_unit_lambda(s, k, p, SCAN_SETTINGS, sensitivity=True)
    return x, 2.0 * traj.log_zeros[k][0], traj.log_slope


@record
class Trace:
    """lambda_k(s) as nodes (ln s, ln lambda, d ln lambda/d ln s) in ascending
    ln s (see trace); folds indexes the nodes where the slope vanishes, the
    branch's turning points, where its roots for a target come and go."""

    k: int
    params: ProblemParams  # params.lam: the lowest target the trace serves
    nodes: tuple
    folds: tuple


def _fold(k: int, p: ProblemParams, a: tuple, b: tuple) -> tuple:
    """The node between nodes a and b (slopes of opposite sign) where the
    slope vanishes: secant steps on the slope, kept in the bracket by bisection."""
    lo, hi, prev = a, b, a
    for _ in range(_MAX_NEWTON):
        x = b[0] - b[2] * (b[0] - prev[0]) / (b[2] - prev[2] or math.nan)
        prev, b = b, _node(k, p, x if lo[0] < x < hi[0] else 0.5 * (lo[0] + hi[0]))
        if abs(b[2]) <= _FOLD_SLOPE:
            break
        lo, hi = (b, hi) if b[2] * lo[2] > 0.0 else (lo, b)
    return b


def trace(k: int, p: ProblemParams) -> Trace:
    """lambda_k(s) for p.alpha and p.beta at scan tolerance, with the
    sensitivity channel, in adaptive steps of x = ln s: a step is accepted
    when the cubic coefficient of the Hermite interpolant of its two nodes
    is below _DEFECT * (1 + |ln lambda|), which also sizes the next step.
    A fold where the slope changes sign across a step is located and
    inserted as a node; a step whose end slopes share a sign while ln
    lambda moves against them past scan noise hides a fold pair, and is
    retried at half its length.  The trace runs from DEFAULT_S_MIN to
    amplitude_budget(p), further only while lambda is above p.lam (the
    lowest target it serves) and still falling, never past S_MAX; it ends
    early at an amplitude whose (k+1)-th zero is not reached."""
    x_budget, x_max = math.log(amplitude_budget(p)), math.log(S_MAX)
    nodes, folds, rejected = [], [], {}
    x, h = math.log(DEFAULT_S_MIN), _FIRST_STEP
    with suppress(ZeroNotReachedError):
        while True:
            node = rejected.pop(x, None) or _node(k, p, x)
            if nodes:
                (x0, y0, d0), (_, y1, d1) = nodes[-1], node
                defect = abs((d0 + d1) * (x - x0) - 2.0 * (y1 - y0)) + 1e-300
                scale = 1.0 + min(abs(y0), abs(y1))
                tol = _DEFECT * scale
                h = (x - x0) * max(0.2, min(4.0, 0.9 * (tol / defect) ** (1.0 / 3.0)))
                # the step hides a fold pair, by the mean value theorem
                hidden = d0 * d1 > 0.0 > d0 * (y1 - y0) and (
                    abs(y1 - y0) > SCAN_SETTINGS.rel_tol * scale)
                if defect > tol or hidden:  # kept for a later step to the same end
                    rejected[x], x = node, x0 + (0.5 * (x - x0) if hidden else h)
                    continue
                if d0 * d1 < 0.0:
                    nodes.append(_fold(k, p, nodes[-1], node))
                    folds.append(len(nodes) - 1)
            nodes.append(node)
            if x >= x_max or x >= x_budget and not (
                    node[1] > p.log_lambda and node[2] < 0.0):
                break
            x = min(x + h, x_budget if x < x_budget else x_max)
    return Trace(k, p, tuple(nodes), tuple(folds))


def _newton(k: int, p: ProblemParams, settings: SolverSettings,
            x: float, lo: float, hi: float, f_lo: float):
    """Newton on f(x) = ln lambda(exp x) - ln p.lam from x in the bracket
    [lo, hi], f(lo) = f_lo, with the sensitivity channel's slope: at scan
    tolerance, bisecting the shrinking bracket where a step would leave it,
    until |f| <= _SWITCH_TOL; then at `settings` until |f| <= POLISH_TOL.
    The bracket is two consecutive trace nodes, between which the trace
    saw no fold, so an iterate that stays in [lo, hi] is drawn to its root.
    None when an iterate leaves [lo, hi] (the bracket held scan noise, not
    a root) or misses the (k+1)-th zero, or after _MAX_NEWTON integrations."""
    scan, a, b = True, lo, hi
    for _ in range(_MAX_NEWTON):
        s = math.exp(x)
        try:
            traj = solve_unit_lambda(s, k, p, SCAN_SETTINGS if scan else settings,
                                     sensitivity=True)
        except ZeroNotReachedError:
            return None
        f, slope = 2.0 * traj.log_zeros[k][0] - p.log_lambda, traj.log_slope
        if not scan and abs(f) <= POLISH_TOL:
            return traj
        if scan:
            a, b = (x, b) if f * f_lo > 0.0 else (a, x)
        x -= max(-_TRUST, min(_TRUST, f / slope if slope != 0.0 else math.inf))
        scan = scan and abs(f) > _SWITCH_TOL
        if scan and not a < x < b:
            x = 0.5 * (a + b)
        if not lo <= x <= hi:
            return None
    return None


def nodal_solution(k: int, p: ProblemParams,
                   settings: SolverSettings | None = None,
                   traced: Trace | None = None) -> list[RadialSolution]:
    """All k-nodal solutions with the eigenvalue p.lam, in ascending
    amplitude, on `traced`: by default trace(k, p); a given trace must be of
    the same k, alpha and beta and serve a target at most p.lam.  _newton
    polishes every pair of consecutive nodes across which ln lambda - ln
    p.lam changes sign or ends on 0, from the pair's secant point, until
    ln(lambda) matches to POLISH_TOL; a bracket it gives up on is dropped
    as scan noise.  Raises NoSolutionInRangeError when no pair crosses the
    target."""
    if traced is not None and not (traced.params.lam <= p.lam and (
            traced.k, traced.params.alpha, traced.params.beta) == (k, p.alpha, p.beta)):
        raise ValueError("the trace is of another branch or stops above the target")
    full = settings or SolverSettings()
    nodes = (traced or trace(k, p)).nodes
    solutions = []
    for (xa, ya, _), (xb, yb, _) in zip(nodes, nodes[1:]):
        fa, fb = ya - p.log_lambda, yb - p.log_lambda
        if fa * fb < 0.0 or fb == 0.0:  # a node on target ends one bracket
            x = xb - fb * (xb - xa) / (fb - fa) if fb != 0.0 else 0.5 * (xa + xb)
            traj = _newton(k, p, full, x, xa, xb, fa)
            if traj is not None:
                solutions.append(_build_solution(traj, k, p))
    if not solutions:
        lams = [math.exp(y) for _, y, _ in nodes] or [math.nan]
        raise NoSolutionInRangeError(p.lam, min(lams), max(lams), DEFAULT_S_MIN,
                                     math.exp(nodes[-1][0]) if nodes else DEFAULT_S_MIN)
    return solutions


def solution_at(s: float, k: int, p: ProblemParams,
                settings: SolverSettings | None = None) -> RadialSolution:
    """The k-nodal solution of amplitude s for p.alpha and p.beta, from one
    integration at `settings`: at the amplitude of a solution nodal_solution
    returned with these settings, that solution bit for bit (but with no
    sensitivity channel, so its trajectory's log_slope is None)."""
    return _build_solution(solve_unit_lambda(s, k, p, settings), k, p)
