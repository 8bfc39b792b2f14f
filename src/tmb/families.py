"""Parameter families and numerical verification of the asymptotic laws.

FamilySpec checks a schedule's shape, and turns each member n into the
ProblemParams(alpha, beta_n, lambda_n) that checks its values.  run_family
solves the members on one trace of lambda_k(s) per distinct beta_n, and
keeps of each what the formulas and the CSVs read, summarize(sol), under n,
or a failure's metadata row; verify_formulas turns the summaries into one
report per asymptotic formula: the raw sequence, its Aitken-accelerated
limit, the predicted target, and the relative error.

Formulas whose convergence rate involves powers of (beta-1) are tagged
slow_rate: at double-precision desk scale they are trend checks, not
precision targets.
"""

from __future__ import annotations

import math

from .analysis import (
    boundary_flux,
    decompose,
    energy_report,
    identity_residual,
    nehari_residual,
)
from .bubbles import rescale_profile
from .errors import (
    FamilyEmptyError,
    NoSolutionInRangeError,
    WindowTooLargeError,
    ZeroNotReachedError,
)
from .nonlinearity import ProblemParams
from .records import record
from .shooting import LogRadii, check_nodal_class, nodal_solution, trace

SLOW_RATE_BAND = 0.75  # |beta-1| below this marks (beta-1)^j formulas slow


@record
class FamilySpec:
    """A (lambda_n, beta_n) schedule for one nodal class; members (derived,
    not a field) holds each checked ProblemParams(alpha, beta_n, lambda_n)."""

    k: int
    alpha: float
    lambda_schedule: tuple
    beta_schedule: tuple

    def __post_init__(self):
        ls, bs = tuple(self.lambda_schedule), tuple(self.beta_schedule)
        object.__setattr__(self, "lambda_schedule", ls)
        object.__setattr__(self, "beta_schedule", bs)
        if len(ls) != len(bs):
            raise ValueError("beta_schedule must have as many members as lambda_schedule")
        if len(ls) < 4:
            raise ValueError(f"lambda_schedule needs at least 4 members, got {len(ls)}")
        check_nodal_class(self.k)
        object.__setattr__(self, "members", tuple(
            ProblemParams(self.alpha, beta, lam) for lam, beta in zip(ls, bs)))

    def __len__(self):
        return len(self.lambda_schedule)


@record
class SolutionSummary(LogRadii):
    """Summary of one solution, without its (alpha, beta, lambda).

    Radii are stored as in RadialSolution: log_nodal_radii, log_peak_radii
    (-inf for the origin) and boundary_ru = r_i*u'(r_i), finite where the
    radii underflow; nodal_radii, peak_radii, boundary_slopes and
    log_abs_slopes are derived from them, and full_dirichlet from dirichlet.
    """

    log_nodal_radii: tuple
    log_peak_radii: tuple
    peak_values: tuple
    boundary_ru: tuple
    dirichlet: tuple
    functional: float
    nehari_residual: float
    identity_residual_max: float
    boundary_fluxes: tuple
    bubbles: tuple  # BubbleDiagnostics or None, one per domain

    @property
    def full_dirichlet(self) -> float:
        return 2.0 * math.pi * sum(self.dirichlet)  # energy_report's sum, bit for bit

    @property
    def log_abs_slopes(self) -> tuple:
        """ln|u'(r_i)| = ln|r_i*u'(r_i)| - ln r_i."""
        return tuple(math.log(abs(ru)) - t
                     for ru, t in zip(self.boundary_ru, self.log_nodal_radii))


@record
class FormulaReport:
    formula_id: str
    applicable: bool
    raw_values: tuple = ()
    extrapolated: float = math.nan
    target: float = math.nan
    slow_rate: bool = False
    note: str = ""

    @property
    def raw_last(self) -> float:
        return self.raw_values[-1] if self.raw_values else math.nan

    @property
    def rel_error(self) -> float:
        tgt = self.target
        return abs(self.extrapolated - tgt) / abs(tgt) if tgt != 0.0 \
            and not math.isnan(tgt) else math.nan


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


def summarize(sol) -> SolutionSummary:
    """The SolutionSummary of sol; a domain whose bubble window does not
    fit the unit disk has the profile None."""
    domains = decompose(sol)
    idres = max(identity_residual(sol, i) for i in range(1, sol.k + 2))
    fluxes = tuple(boundary_flux(sol, i) for i in range(1, sol.k + 2))
    bubbles = []
    for i in range(1, sol.k + 2):
        try:
            bubbles.append(rescale_profile(sol, i))
        except WindowTooLargeError:
            bubbles.append(None)
    return SolutionSummary(
        log_nodal_radii=sol.log_nodal_radii,
        log_peak_radii=sol.log_peak_radii,
        peak_values=sol.peak_values,
        boundary_ru=sol.boundary_ru,
        dirichlet=tuple(d.dirichlet for d in domains),
        functional=energy_report(domains),
        nehari_residual=nehari_residual(sol),
        identity_residual_max=idres,
        boundary_fluxes=fluxes,
        bubbles=tuple(bubbles),
    )


def run_family(spec: FamilySpec) -> tuple:
    """(records, failures): solve every member of spec.members on the trace
    of its branch, where each distinct beta_n is traced once, down to the
    lowest lambda_n it shares.  records maps the index n of each solved
    member, in order, to its SolutionSummary; failures holds, per failed
    member, its metadata row {"n", "lambda", "beta", "reason"}.  A failure
    is not fatal; FamilyEmptyError only when nothing solves.  A run holds at
    most one member's trajectories; one integration gives member n's
    solution back bit for bit: solution_at(records[n].amplitude, spec.k,
    spec.members[n])."""
    records, failures = {}, []
    traces = {beta: trace(spec.k, min((p for p in spec.members if p.beta == beta),
                                      key=lambda p: p.lam))
              for beta in dict.fromkeys(spec.beta_schedule)}
    for n, p in enumerate(spec.members):
        try:
            sols = nodal_solution(spec.k, p, traced=traces[p.beta])
        except (ZeroNotReachedError, NoSolutionInRangeError) as exc:
            failures.append({"n": n, "lambda": p.lam, "beta": p.beta,
                             "reason": f"{type(exc).__name__}: {exc}"})
            continue
        # follow the largest-amplitude branch (the concentrating one)
        records[n] = summarize(sols[-1])
        del sols  # no branch stays alive while the next member is solved
    if not records:
        raise FamilyEmptyError(
            f"all {len(spec)} members failed; first failure: "
            f"{failures[0]['reason'] if failures else 'none recorded'}")
    return records, failures


# ---------------------------------------------------------------------------
# formula verification
# ---------------------------------------------------------------------------

def _blowing(records, i) -> bool:
    """Does the i-th peak diverge along the family (trend test)?"""
    mus = [rec.peak_values[i - 1] for rec in records]
    increasing = all(b > a for a, b in zip(mus, mus[1:]))
    return increasing and mus[-1] > 2.0 * mus[0]


def classify_records(records, k) -> tuple:
    """(all_domains_blow, n_blowing_prefix) of summaries in member order:
    n_blowing_prefix is the largest N with domains 1..N all blowing."""
    n = 0
    for i in range(1, k + 2):
        if _blowing(records, i):
            n = i
        else:
            break
    return n == k + 1, n


def _slope_gate(records, i):
    """None when ln|u'(r_i)| > 0 on every member, else the reason."""
    if all(rec.log_abs_slopes[i - 1] > 0.0 for rec in records):
        return None
    return "boundary slope not yet in the log regime"


def verify_formulas(spec: FamilySpec, records) -> list:
    """One report per asymptotic formula on run_family(spec)'s records, read
    with spec.members[n], gated on k, the beta regime, and whether the family
    blows up everywhere or keeps a finite tail.

    The formula ids and their order depend on k alone: a formula whose
    regime the family is not in is reported inapplicable, with the reason
    as its note.  Each formula is its gate, its per-member term and its
    target, a plain value formed whether the formula applies or not (nan
    where it cannot be formed)."""
    if len(records) < 3:
        raise ValueError("formula verification needs at least 3 successful members")
    k = spec.k
    alpha = spec.alpha
    members = [spec.members[n] for n in records]
    records = list(records.values())
    beta_star = members[-1].beta
    lam_seq = [p.lam for p in members]
    beta_seq = [p.beta for p in members]
    log_inv_lam = [math.log(1.0 / l) for l in lam_seq]
    all_blow, n_prefix = classify_records(records, k)
    slow = abs(beta_star - 1.0) < SLOW_RATE_BAND
    half_fac = alpha * (1.0 - beta_star / 2.0)

    reports = []

    def emit(fid, gate, term, target, slow=False, note="", aitken=True):
        """Report formula fid: inapplicable with the reason gate, or, when
        gate is None, the sequence term(ln(1/lambda_n), beta_n, record_n)
        against the value target.  aitken=False reports the final term as
        the limit."""
        if gate is not None:
            rep = FormulaReport(formula_id=fid, applicable=False, note=gate)
        else:
            seq = [term(L, b, rec) for L, b, rec in zip(log_inv_lam, beta_seq, records)]
            extrap = estimate_limit(seq)[1] if aitken else seq[-1]
            rep = FormulaReport(formula_id=fid, applicable=True,
                                raw_values=tuple(seq), extrapolated=extrap,
                                target=target, slow_rate=slow, note=note)
        reports.append(rep)
        return rep

    def mu(rec, i):
        return rec.peak_values[i - 1]

    # ---- full-concentration formulas ----------------------------------
    full = None if all_blow else "family does not fully concentrate"
    emit("aaa1", full,
         lambda L, b, rec: L / mu(rec, k + 1) ** b,
         half_fac)
    emit("aa44", full,
         lambda L, b, rec: L ** (1.0 / b) * abs(rec.boundary_slopes[-1]),
         2.0 * half_fac ** (1.0 / beta_star))
    for i in range(1, k + 1):
        j = k - i + 1
        emit(f"aa1[{i}]", full,
             lambda L, b, rec: L / mu(rec, i) ** (b * (b - 1.0) ** j),
             half_fac ** ((2.0 - beta_star * (beta_star - 1.0) ** j) / (2.0 - beta_star)),
             slow=slow)
        aa2_target = 2.0 ** ((beta_star - 1.0) ** j) \
            * half_fac ** ((2.0 - 2.0 * (beta_star - 1.0) ** j) / (2.0 - beta_star))
        emit(f"aa2[{i}]", full,
             lambda L, b, rec: L / (-rec.log_nodal_radii[i - 1]) ** ((b - 1.0) ** j),
             aa2_target, slow=slow)
        emit(f"aa4[{i}]", full or _slope_gate(records, i),
             lambda L, b, rec: L / rec.log_abs_slopes[i - 1] ** ((b - 1.0) ** j),
             aa2_target, slow=slow)
    for i in range(2, k + 1):
        j = k - i + 1
        emit(f"aa3[{i}]", full,
             lambda L, b, rec: L / (-rec.log_peak_radii[i - 1])
             ** (b * (b - 1.0) ** j / 2.0),
             2.0 ** (beta_star * (beta_star - 1.0) ** j / 2.0)
             * half_fac ** ((2.0 - beta_star * (beta_star - 1.0) ** j)
                            / (2.0 - beta_star)),
             slow=slow)
    # interior-peak dichotomy for the outermost bubble
    if k >= 1:
        couple_ok = all(b != 1.0 and L > 1.0 for b, L in zip(beta_seq, log_inv_lam))
        coupling = emit(
            "ab11", full or (None if couple_ok
                             else "needs beta_n != 1 and lambda_n < 1/e"),
            lambda L, b, rec: math.log(L) / ((b - 1.0) * L ** (2.0 / b)),
            math.nan, slow=slow,
            note="empirical coupling constant; user-prescribed schedules")
        L_lim = coupling.extrapolated  # nan when ab11 is inapplicable
        peak_gate = full or (None if coupling.applicable
                             else "no coupling constant available") \
            or (None if all(-math.inf < rec.log_peak_radii[k] < 0.0 for rec in records)
                else "outermost peak at the origin")
        emit("ab1", peak_gate,
             lambda L, b, rec: L / (-rec.log_peak_radii[k]) ** (b / 2.0),
             2.0 ** (beta_star / 2.0) * half_fac
             * (1.0 + L_lim * half_fac ** (2.0 / beta_star)) ** (-beta_star / 2.0),
             slow=slow, note=f"uses empirical L={L_lim:.4g}")
        emit("ab2", peak_gate or (None if abs(L_lim) > 10.0
                                  else f"empirical L={L_lim:.4g} does not diverge"),
             lambda L, b, rec: math.log(L) / ((b - 1.0) * -rec.log_peak_radii[k]),
             2.0, slow=slow, note="divergent-coupling branch")
    emit("full_energy", full,
         lambda L, b, rec: (4.0 * math.pi * (k + 1) - rec.full_dirichlet)
         * L ** ((2.0 - b) / b),
         2.0 * math.pi * alpha ** (2.0 / beta_star) * beta_star
         * (1.0 - beta_star / 2.0) ** ((2.0 - beta_star) / beta_star))

    # ---- finite-tail (weak-limit) formulas ------------------------------
    # domains 1..N concentrate and domain N+1 carries the weak limit
    if k >= 1:
        N = n_prefix
        tail = ("family fully concentrates; no weak-limit tail" if all_blow
                else None if N >= 1 else "no domain concentrates")
        mu_tail = math.nan if all_blow else mu(records[-1], N + 1)
        target = 2.0 * mu_tail / alpha
        note = "tail peak from last record"

        def prefix_gate(i):
            return tail if i <= N else f"domain {N + 1} does not concentrate"

        for i in range(1, k + 1):
            j = N - i + 1
            emit(f"aa5[{i}]", prefix_gate(i),
                 lambda L, b, rec: mu(rec, i) ** ((b - 1.0) ** j),
                 target, slow=True, note=note)
            emit(f"aa6[{i}]", prefix_gate(i),
                 lambda L, b, rec: (-rec.log_nodal_radii[i - 1]) ** ((b - 1.0) ** j),
                 target, slow=True, note=note)
            emit(f"aa7[{i}]", prefix_gate(i) or _slope_gate(records, i),
                 lambda L, b, rec: rec.log_abs_slopes[i - 1] ** ((b - 1.0) ** j),
                 target, slow=True, note=note)
        emit("aa9", tail,
             lambda L, b, rec: rec.peak_radii[N] ** (b - 1.0),
             math.sqrt(alpha / (2.0 * mu_tail)), slow=True, note=note)
        # with no tail, N = k + 1 is past the last boundary
        emit("aa10", tail,
             lambda L, b, rec: rec.boundary_slopes[N],
             math.nan if all_blow else records[-1].boundary_slopes[N], slow=True,
             note="target is the final member's first-integral value (weak-limit proxy)")
        for i in range(2, k + 1):
            j = N - i + 1
            emit(f"aa8[{i}]", prefix_gate(i),
                 lambda L, b, rec: (-rec.log_peak_radii[i - 1]) ** ((b - 1.0) ** j),
                 target * target, slow=True, note=note)
        # necessary amplitude condition at the concentration point
        meets = mu_tail >= alpha / 2.0
        emit("weak_limit_threshold", tail,
             lambda L, b, rec: mu(rec, N + 1),
             alpha / 2.0, aitken=False,
             note=f"(-1)^N u0(0) {'>=' if meets else '<'} alpha/2 "
                  f"(qualitative report, N={N})")

    # ---- per-domain laws (any concentrating domain) ----------------------
    for i in range(1, k + 2):
        gate = None if _blowing(records, i) else "domain does not concentrate"
        emit(f"bubble_energy[{i}]", gate,
             lambda L, b, rec: (2.0 - rec.dirichlet[i - 1]) * mu(rec, i) ** (2.0 - b)
             / (alpha * b),
             1.0)
        emit(f"f4[{i}]", gate,
             lambda L, b, rec: rec.boundary_fluxes[i - 1],
             2.0)

    return reports
