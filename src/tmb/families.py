"""Parameter families and numerical verification of the asymptotic laws.

run_family solves a (lambda_n, beta_n) schedule with amplitude
continuation; verify_formulas turns the member records into one report
per asymptotic formula: the raw sequence, its Aitken-accelerated limit,
the predicted target, and the relative error.

Formulas whose convergence rate involves powers of (beta-1) are tagged
slow_rate: at double-precision desk scale they are trend checks, not
precision targets.
"""

from __future__ import annotations

import math

from .analysis import boundary_flux, decompose, energy_report, identity_residual, \
    nehari_residual
from .bubbles import rescale_profile
from .errors import (
    FamilyEmptyError,
    NoSolutionInRangeError,
    WindowTooLargeError,
    ZeroNotReachedError,
)
from .nonlinearity import ProblemParams
from .ode import SolverSettings
from .records import record
from .shooting import LogRadii, nodal_solution

SLOW_RATE_BAND = 0.75  # |beta-1| below this marks (beta-1)^j formulas slow


@record
class FamilySpec:
    """A (lambda_n, beta_n) schedule for one nodal class."""

    k: int
    alpha: float
    lambda_schedule: tuple
    beta_schedule: tuple
    coupling_note: str = ""

    def __post_init__(self):
        ls, bs = tuple(self.lambda_schedule), tuple(self.beta_schedule)
        object.__setattr__(self, "lambda_schedule", ls)
        object.__setattr__(self, "beta_schedule", bs)
        if len(ls) != len(bs):
            raise ValueError("lambda and beta schedules must have equal length")
        if len(ls) < 4:
            raise ValueError("schedules need at least 4 members")
        if not all(0.0 < l < math.inf for l in ls):
            raise ValueError("every lambda_n must be positive and finite")
        if any(not (0.0 < b < 2.0) for b in bs):
            raise ValueError("every beta_n must lie in (0, 2)")
        if self.k < 0:
            raise ValueError("nodal class must be nonnegative")
        if not (0.0 < self.alpha < math.inf):
            raise ValueError("alpha must be positive and finite")

    def __len__(self):
        return len(self.lambda_schedule)


@record
class MemberRecord(LogRadii):
    """Summary of one solved family member.

    Radii are stored as in RadialSolution: log_nodal_radii, log_peak_radii
    (-inf for the origin) and boundary_ru = r_i*u'(r_i), finite where the
    radii underflow; nodal_radii, peak_radii, boundary_slopes and
    log_abs_slopes are derived from them.
    """

    index: int
    lam: float
    beta: float
    amplitude: float
    log_nodal_radii: tuple
    log_peak_radii: tuple
    peak_values: tuple
    boundary_ru: tuple
    dirichlet: tuple
    nehari: tuple
    potential: tuple
    full_dirichlet: float
    functional: float
    nehari_residual: float
    identity_residual_max: float
    boundary_fluxes: tuple
    bubbles: tuple  # BubbleDiagnostics or None, one per domain
    branch_count: int

    @property
    def log_abs_slopes(self) -> tuple:
        """ln|u'(r_i)| = ln|r_i*u'(r_i)| - ln r_i."""
        return tuple(math.log(abs(ru)) - t
                     for ru, t in zip(self.boundary_ru, self.log_nodal_radii))


@record
class FailedMember:
    index: int
    lam: float
    beta: float
    reason: str


@record(frozen=False)
class SequenceExperiment:
    spec: FamilySpec
    records: list          # MemberRecord, successful members in order
    failures: list         # FailedMember
    formula_reports: list | tuple = ()  # FormulaReport, set by verify_formulas


@record
class FormulaReport:
    formula_id: str
    applicable: bool
    raw_values: tuple = ()
    raw_last: float = math.nan
    extrapolated: float = math.nan
    target: float = math.nan
    rel_error: float = math.nan
    slow_rate: bool = False
    note: str = ""


def estimate_limit(sequence) -> tuple:
    """(final term, Aitken delta-squared value from the last three terms).

    Falls back to the final term when the differences vanish or alternate
    in sign.  Requires at least three terms.
    """
    seq = list(sequence)
    if len(seq) < 3:
        raise ValueError(f"need at least 3 terms, got {len(seq)}")
    a, b, c = seq[-3], seq[-2], seq[-1]
    d1, d2 = b - a, c - b
    if d1 * d2 <= 0.0:
        return c, c
    dd = d2 - d1
    if dd == 0.0:
        return c, c
    return c, c - d2 * d2 / dd


def _summarize(index, lam, beta, sol, branch_count) -> MemberRecord:
    domains = decompose(sol)
    report = energy_report(sol)
    idres = max(identity_residual(sol, i) for i in range(1, sol.k + 2))
    fluxes = tuple(boundary_flux(sol, i) for i in range(1, sol.k + 2))
    bubbles = []
    for i in range(1, sol.k + 2):
        try:
            bubbles.append(rescale_profile(sol, i))
        except WindowTooLargeError:
            bubbles.append(None)
    return MemberRecord(
        index=index,
        lam=lam,
        beta=beta,
        amplitude=sol.amplitude,
        log_nodal_radii=sol.log_nodal_radii,
        log_peak_radii=sol.log_peak_radii,
        peak_values=sol.peak_values,
        boundary_ru=sol.boundary_ru,
        dirichlet=tuple(d.dirichlet for d in domains),
        nehari=tuple(d.nehari for d in domains),
        potential=tuple(d.potential for d in domains),
        full_dirichlet=report.full_dirichlet,
        functional=report.functional,
        nehari_residual=nehari_residual(sol),
        identity_residual_max=idres,
        boundary_fluxes=fluxes,
        bubbles=tuple(bubbles),
        branch_count=branch_count,
    )


def run_family(spec: FamilySpec, settings: SolverSettings | None = None,
               scan_points: int = 200) -> SequenceExperiment:
    """Solve every schedule member, seeding each solve with the previous
    amplitude.  Failed members are recorded, not fatal; FamilyEmptyError
    only when nothing solves.  Records are summaries, so a run holds at
    most one member's trajectories; to get a member's solution back,
    re-solve it with the run's settings (three integrations, same root):
    nodal_solution(k, rec.lam, ProblemParams(alpha, rec.beta, rec.lam),
    seed_amplitude=rec.amplitude)."""
    records = []
    failures = []
    seed = None
    for n, (lam, beta) in enumerate(zip(spec.lambda_schedule, spec.beta_schedule)):
        p = ProblemParams(spec.alpha, beta, lam)
        try:
            sols = nodal_solution(spec.k, lam, p, settings=settings,
                                  scan_points=scan_points, seed_amplitude=seed)
        except (ZeroNotReachedError, NoSolutionInRangeError) as exc:
            failures.append(FailedMember(n, lam, beta, f"{type(exc).__name__}: {exc}"))
            continue
        # follow the largest-amplitude branch (the concentrating one)
        records.append(_summarize(n, lam, beta, sols[-1], len(sols)))
        del sols  # no branch stays alive while the next member is solved
        seed = records[-1].amplitude
    if not records:
        raise FamilyEmptyError(
            f"all {len(spec)} members failed; first failure: "
            f"{failures[0].reason if failures else 'none recorded'}")
    return SequenceExperiment(spec=spec, records=records, failures=failures)


# ---------------------------------------------------------------------------
# formula verification
# ---------------------------------------------------------------------------

def _blowing(records, i) -> bool:
    """Does the i-th peak diverge along the family (trend test)?"""
    mus = [rec.peak_values[i - 1] for rec in records]
    increasing = all(b > a for a, b in zip(mus, mus[1:]))
    return increasing and mus[-1] > 2.0 * mus[0]


def classify_records(records, k) -> tuple:
    """(all_domains_blow, n_blowing_prefix): n_blowing_prefix is the largest
    N with domains 1..N all blowing."""
    n = 0
    for i in range(1, k + 2):
        if _blowing(records, i):
            n = i
        else:
            break
    return n == k + 1, n


def _report(fid, seq, target, slow=False, note="") -> FormulaReport:
    last, extrap = estimate_limit(seq)
    rel = abs(extrap - target) / abs(target) if target not in (None, 0.0) \
        and not math.isnan(target) else math.nan
    return FormulaReport(formula_id=fid, applicable=True,
                         raw_values=tuple(seq), raw_last=last,
                         extrapolated=extrap,
                         target=target if target is not None else math.nan,
                         rel_error=rel, slow_rate=slow, note=note)


def _inapplicable(fid, note="") -> FormulaReport:
    return FormulaReport(formula_id=fid, applicable=False, note=note)


def verify_formulas(exp: SequenceExperiment) -> list:
    """One report per asymptotic formula, gated on k, the beta regime, and
    whether the family blows up everywhere or keeps a finite tail."""
    records = exp.records
    if len(records) < 3:
        raise ValueError("formula verification needs at least 3 successful members")
    spec = exp.spec
    k = spec.k
    alpha = spec.alpha
    beta_star = records[-1].beta
    lam_seq = [rec.lam for rec in records]
    beta_seq = [rec.beta for rec in records]
    log_inv_lam = [math.log(1.0 / l) for l in lam_seq]
    all_blow, n_prefix = classify_records(records, k)
    slow = abs(beta_star - 1.0) < SLOW_RATE_BAND
    half_fac = alpha * (1.0 - beta_star / 2.0)

    reports = []

    def mu(rec, i):
        return rec.peak_values[i - 1]

    # ---- full-concentration formulas ----------------------------------
    if all_blow:
        reports.append(_report(
            "aaa1",
            [L / mu(rec, k + 1) ** b for L, b, rec in zip(log_inv_lam, beta_seq, records)],
            half_fac))
        reports.append(_report(
            "aa44",
            [L ** (1.0 / b) * abs(rec.boundary_slopes[-1])
             for L, b, rec in zip(log_inv_lam, beta_seq, records)],
            2.0 * half_fac ** (1.0 / beta_star)))
        for i in range(1, k + 1):
            j = k - i + 1
            reports.append(_report(
                f"aa1[{i}]",
                [L / mu(rec, i) ** (b * (b - 1.0) ** j)
                 for L, b, rec in zip(log_inv_lam, beta_seq, records)],
                half_fac ** ((2.0 - beta_star * (beta_star - 1.0) ** j)
                             / (2.0 - beta_star)),
                slow=slow))
            reports.append(_report(
                f"aa2[{i}]",
                [L / (-rec.log_nodal_radii[i - 1]) ** ((b - 1.0) ** j)
                 for L, b, rec in zip(log_inv_lam, beta_seq, records)],
                2.0 ** ((beta_star - 1.0) ** j)
                * half_fac ** ((2.0 - 2.0 * (beta_star - 1.0) ** j)
                               / (2.0 - beta_star)),
                slow=slow))
            if all(rec.log_abs_slopes[i - 1] > 0.0 for rec in records):
                reports.append(_report(
                    f"aa4[{i}]",
                    [L / rec.log_abs_slopes[i - 1] ** ((b - 1.0) ** j)
                     for L, b, rec in zip(log_inv_lam, beta_seq, records)],
                    2.0 ** ((beta_star - 1.0) ** j)
                    * half_fac ** ((2.0 - 2.0 * (beta_star - 1.0) ** j)
                                   / (2.0 - beta_star)),
                    slow=slow))
            else:
                reports.append(_inapplicable(
                    f"aa4[{i}]", "boundary slope not yet in the log regime"))
        for i in range(2, k + 1):
            j = k - i + 1
            reports.append(_report(
                f"aa3[{i}]",
                [L / (-rec.log_peak_radii[i - 1]) ** (b * (b - 1.0) ** j / 2.0)
                 for L, b, rec in zip(log_inv_lam, beta_seq, records)],
                2.0 ** (beta_star * (beta_star - 1.0) ** j / 2.0)
                * half_fac ** ((2.0 - beta_star * (beta_star - 1.0) ** j)
                               / (2.0 - beta_star)),
                slow=slow))
        # interior-peak dichotomy for the outermost bubble
        if k >= 1:
            couple_ok = all(b != 1.0 and L > 1.0 for b, L in zip(beta_seq, log_inv_lam))
            if couple_ok:
                L_seq = [math.log(L) / ((b - 1.0) * L ** (2.0 / b))
                         for L, b in zip(log_inv_lam, beta_seq)]
                _, L_lim = estimate_limit(L_seq)
                reports.append(FormulaReport(
                    formula_id="ab11", applicable=True, raw_values=tuple(L_seq),
                    raw_last=L_seq[-1], extrapolated=L_lim, target=math.nan,
                    rel_error=math.nan, slow_rate=slow,
                    note="empirical coupling constant; user-prescribed schedules"))
                rho_last = [rec.log_peak_radii[k] for rec in records]
                if all(-math.inf < t < 0.0 for t in rho_last):
                    reports.append(_report(
                        "ab1",
                        [L / (-rec.log_peak_radii[k]) ** (b / 2.0)
                         for L, b, rec in zip(log_inv_lam, beta_seq, records)],
                        2.0 ** (beta_star / 2.0) * half_fac
                        * (1.0 + L_lim * half_fac ** (2.0 / beta_star))
                        ** (-beta_star / 2.0),
                        slow=slow,
                        note=f"uses empirical L={L_lim:.4g}"))
                    if abs(L_lim) > 10.0:
                        reports.append(_report(
                            "ab2",
                            [math.log(L) / ((b - 1.0)
                                            * -rec.log_peak_radii[k])
                             for L, b, rec in zip(log_inv_lam, beta_seq, records)],
                            2.0, slow=slow,
                            note="divergent-coupling branch"))
                    else:
                        reports.append(_inapplicable(
                            "ab2", f"empirical L={L_lim:.4g} does not diverge"))
                else:
                    reports.append(_inapplicable("ab1", "outermost peak at the origin"))
                    reports.append(_inapplicable("ab2", "outermost peak at the origin"))
            else:
                reports.append(_inapplicable("ab11", "needs beta_n != 1 and lambda_n < 1/e"))
                reports.append(_inapplicable("ab1", "no coupling constant available"))
                reports.append(_inapplicable("ab2", "no coupling constant available"))
        reports.append(_report(
            "full_energy",
            [(4.0 * math.pi * (k + 1) - rec.full_dirichlet)
             * L ** ((2.0 - b) / b)
             for L, b, rec in zip(log_inv_lam, beta_seq, records)],
            2.0 * math.pi * alpha ** (2.0 / beta_star) * beta_star
            * (1.0 - beta_star / 2.0) ** ((2.0 - beta_star) / beta_star)))
    else:
        for fid in ("aaa1", "aa44", "full_energy"):
            reports.append(_inapplicable(fid, "family does not fully concentrate"))
        for i in range(1, k + 1):
            for stem in ("aa1", "aa2", "aa4"):
                reports.append(_inapplicable(
                    f"{stem}[{i}]", "family does not fully concentrate"))
        for i in range(2, k + 1):
            reports.append(_inapplicable(
                f"aa3[{i}]", "family does not fully concentrate"))
        if k >= 1:
            for fid in ("ab11", "ab1", "ab2"):
                reports.append(_inapplicable(
                    fid, "family does not fully concentrate"))

    # ---- finite-tail (weak-limit) formulas ------------------------------
    if all_blow and k >= 1:
        for fid in ("aa5", "aa6", "aa7", "aa9", "aa10", "aa8",
                    "weak_limit_threshold"):
            reports.append(_inapplicable(
                fid, "family fully concentrates; no weak-limit tail"))
    if not all_blow and n_prefix >= 1:
        N = n_prefix
        mu_tail = mu(records[-1], N + 1)
        target = 2.0 * mu_tail / alpha
        for i in range(1, N + 1):
            j = N - i + 1
            reports.append(_report(
                f"aa5[{i}]",
                [mu(rec, i) ** ((b - 1.0) ** j)
                 for b, rec in zip(beta_seq, records)],
                target, slow=True, note="tail peak from last record"))
            reports.append(_report(
                f"aa6[{i}]",
                [(-rec.log_nodal_radii[i - 1]) ** ((b - 1.0) ** j)
                 for b, rec in zip(beta_seq, records)],
                target, slow=True, note="tail peak from last record"))
            if all(rec.log_abs_slopes[i - 1] > 0.0 for rec in records):
                reports.append(_report(
                    f"aa7[{i}]",
                    [rec.log_abs_slopes[i - 1] ** ((b - 1.0) ** j)
                     for b, rec in zip(beta_seq, records)],
                    target, slow=True, note="tail peak from last record"))
        reports.append(_report(
            "aa9",
            [rec.peak_radii[N] ** (b - 1.0) for b, rec in zip(beta_seq, records)],
            math.sqrt(alpha / (2.0 * mu_tail)),
            slow=True, note="tail peak from last record"))
        last = records[-1]
        reports.append(_report(
            "aa10",
            [rec.boundary_slopes[N] for rec in records],
            last.boundary_slopes[N],
            slow=True,
            note="target is the final member's first-integral value (weak-limit proxy)"))
        for i in range(2, N + 1):
            j = N - i + 1
            reports.append(_report(
                f"aa8[{i}]",
                [(-rec.log_peak_radii[i - 1]) ** ((b - 1.0) ** j)
                 for b, rec in zip(beta_seq, records)],
                target * target, slow=True, note="tail peak from last record"))
        # necessary amplitude condition at the concentration point
        meets = mu_tail >= alpha / 2.0
        reports.append(FormulaReport(
            formula_id="weak_limit_threshold", applicable=True,
            raw_values=tuple(mu(rec, N + 1) for rec in records),
            raw_last=mu_tail, extrapolated=mu_tail, target=alpha / 2.0,
            rel_error=abs(mu_tail - alpha / 2.0) / (alpha / 2.0),
            slow_rate=False,
            note=f"(-1)^N u0(0) {'>=' if meets else '<'} alpha/2 "
                 f"(qualitative report, N={N})"))

    # ---- per-domain laws (any concentrating domain) ----------------------
    for i in range(1, k + 2):
        if _blowing(records, i):
            reports.append(_report(
                f"bubble_energy[{i}]",
                [(2.0 - rec.dirichlet[i - 1]) * mu(rec, i) ** (2.0 - b)
                 / (alpha * b)
                 for b, rec in zip(beta_seq, records)],
                1.0))
            reports.append(_report(
                f"f4[{i}]",
                [rec.boundary_fluxes[i - 1] for rec in records],
                2.0))
        else:
            reports.append(_inapplicable(f"bubble_energy[{i}]",
                                         "domain does not concentrate"))
            reports.append(_inapplicable(f"f4[{i}]", "domain does not concentrate"))

    exp.formula_reports = reports
    return reports
