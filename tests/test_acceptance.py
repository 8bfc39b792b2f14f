"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line.  Criteria probing regimes that are
unattainable at double-precision desk scale are implemented faithfully
and allowed to fail; their failure messages carry the measured numbers
and the blocking analysis.
"""

import math
import time
from pathlib import Path

import mpmath as mp
import pytest

from tmb import ProblemParams
from tmb.analysis import (
    decompose,
    first_integral_residual,
    identity_residual,
    nehari_residual,
    sturm_bound_check,
)
from tmb.bessel import j0_zero
from tmb.bubbles import liouville_reference
from tmb.cli import main as cli_main, parse_config
from tmb.errors import FamilyEmptyError, NoSolutionInRangeError
from tmb.families import FamilySpec, estimate_limit, run_family, verify_formulas
from tmb.shooting import lambda_of_s, nodal_solution, solution_at, trace

from conftest import L1, SESSION_T0, T1, T2


def _line(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: criterion {n}: {detail}")
    return f"criterion {n}: {detail}"


def _members(spec, records):
    """(ProblemParams(alpha, beta_n, lambda_n), summary) of each member of
    a run of spec that solved, in order."""
    return [(spec.members[n], rec) for n, rec in records.items()]


# --------------------------------------------------------------------------
def _series_zero_oracle(lo, hi):
    """Bisection on an independent 40-digit power series for J_0."""
    with mp.workdps(40):
        def series(x):
            q = mp.mpf(x) / 2
            total = mp.mpf(1)
            term = mp.mpf(1)
            j = 0
            while j < 120:
                j += 1
                term *= -(q * q) / (j * j)
                total += term
                if abs(term) < mp.mpf(10) ** -38 and j > 5:
                    break
            return total

        a, b = mp.mpf(lo), mp.mpf(hi)
        fa = series(a)
        for _ in range(140):
            m = (a + b) / 2
            if fa * series(m) <= 0:
                b = m
            else:
                a = m
        return float((a + b) / 2)


def test_criterion_1_bessel_oracle():
    t0 = time.time()
    t1_oracle = _series_zero_oracle(2.0, 3.0)
    t2_oracle = _series_zero_oracle(5.0, 6.0)
    e1, e2 = j0_zero(1), j0_zero(2)
    elapsed = time.time() - t0
    ok = (abs(e1.t_k - t1_oracle) <= 1e-10
          and abs(e2.t_k - t2_oracle) <= 1e-10
          and abs(e1.t_k - T1) <= 1e-10
          and abs(e2.t_k - T2) <= 1e-10
          and abs(e1.lambda_k - L1) <= 1e-9
          and elapsed < 1.0)
    detail = (f"t1={e1.t_k:.15f} t2={e2.t_k:.15f} lambda1={e1.lambda_k:.12f} "
              f"vs series-bisection oracle, {elapsed:.2f}s")
    assert ok, _line(1, ok, detail)
    _line(1, ok, detail)


def test_criterion_2_linearization_limits():
    t0 = time.time()
    p = ProblemParams(1.0, 1.2, 1.0)
    lam0 = lambda_of_s(1e-6, 0, p)
    lam1 = lambda_of_s(1e-6, 1, p)
    elapsed = time.time() - t0
    rel0 = abs(lam0 - L1) / L1
    rel1 = abs(lam1 - T2 * T2) / (T2 * T2)
    ok = rel0 <= 1e-3 and rel1 <= 1e-2 and elapsed < 5.0
    detail = (f"lambda(1e-6,k=0) off Lambda_1 by {rel0:.2e} (<=1e-3), "
              f"k=1 off Lambda_2 by {rel1:.2e} (<=1e-2), {elapsed:.2f}s")
    assert ok, _line(2, ok, detail)
    _line(2, ok, detail)


REFERENCE_LAMBDAS = tuple(10.0 ** -n for n in range(1, 6))


def test_criterion_3_exact_identities():
    t0 = time.time()
    accepted = []
    skipped = []
    suites = ([(0, b) for b in (1.0, 1.2, 1.5)] + [(1, b) for b in (1.0, 1.2)])
    for k, beta in suites:
        branch = trace(k, ProblemParams(1.0, beta, min(REFERENCE_LAMBDAS)))
        for lam in REFERENCE_LAMBDAS:
            p = ProblemParams(1.0, beta, lam)
            try:
                sols = nodal_solution(k, p, traced=branch)
            except NoSolutionInRangeError as exc:
                skipped.append((k, beta, lam, exc.lam_range))
                continue
            accepted.append(sols[-1])
    failures = []
    for sol in accepted:
        if nehari_residual(sol) > 1e-8:
            failures.append(("nehari", sol.params))
        if max(identity_residual(sol, i) for i in range(1, sol.k + 2)) > 1e-12:
            failures.append(("identity", sol.params))
        if first_integral_residual(sol) > 1e-8:
            failures.append(("first-integral", sol.params))
        if sol.k >= 1 and not sturm_bound_check(sol)[1]:
            failures.append(("sturm", sol.params))
    elapsed = time.time() - t0
    n_k0 = sum(1 for s in accepted if s.k == 0)
    # every reachable member must be solved: the k=0 grid is fully inside
    # the shooting curve's range; the k=1 targets sit below the smallest
    # eigenvalue reachable at the double-precision amplitude budget
    ok = not failures and n_k0 == 15 and elapsed < 60.0
    detail = (f"{len(accepted)} accepted solutions, all residuals in "
              f"tolerance; {len(skipped)} members without a reachable branch "
              f"(all k=1: two-bubble eigenvalues below the budget floor); "
              f"{elapsed:.1f}s")
    if failures:
        detail += f"; residual failures: {failures}"
    assert ok, _line(3, ok, detail)
    _line(3, ok, detail)


def test_criterion_4_liouville_profile(reference_family):
    t0 = time.time()
    sups = []
    bounds_ok = True
    spec, records = reference_family.spec, reference_family.records
    for n, rec in records.items():
        diag = rec.bubbles[0]
        sups.append(max(abs(zv - liouville_reference(rr, spec.members[n].beta, 1.0)[0])
                        for rr, zv, *_ in diag.samples if rr <= 4.0))
        bounds_ok &= diag.derivative_bound_holds
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    last = records[max(records)].bubbles[0]
    ratio = last.coefficient_ratio
    elapsed = time.time() - t0 + reference_family.wall_time
    ok = (decreasing and 0.90 <= ratio <= 1.10 and bounds_ok
          and elapsed < 30.0)
    detail = (f"sup|z_n - z| on [0,4] {['%.4f' % s for s in sups]} "
              f"decreasing={decreasing}, correction ratio {ratio:.4f} in "
              f"[0.90,1.10], derivative bounds {bounds_ok}, {elapsed:.1f}s")
    assert ok, _line(4, ok, detail)
    _line(4, ok, detail)


def test_criterion_5_per_bubble_energy(reference_family):
    seq = [(2.0 - rec.dirichlet[0]) * rec.peak_values[0] ** (2.0 - p.beta)
           / (1.0 * p.beta)
           for p, rec in _members(reference_family.spec, reference_family.records)]
    last_in_window = 0.85 <= seq[-1] <= 1.15
    gaps = [abs(v - 1.0) for v in seq[-3:]]
    approaching = gaps[0] > gaps[1] > gaps[2]
    ok = last_in_window and approaching
    detail = (f"(2-dirichlet)*mu^(2-b)/(a*b) = {['%.4f' % v for v in seq]}; "
              f"last {seq[-1]:.4f} in [0.85,1.15], monotone approach {approaching}")
    assert ok, _line(5, ok, detail)
    _line(5, ok, detail)


def test_criterion_6_concentration_and_flux(reference_family):
    members = _members(reference_family.spec, reference_family.records)
    seq = [math.log(1.0 / p.lam) / rec.peak_values[0] ** p.beta
           for p, rec in members]
    _, extrap = estimate_limit(seq)
    rel = abs(extrap - 0.4) / 0.4
    fluxes = [rec.boundary_fluxes[0] for _, rec in members]
    trending = all(b > a for a, b in zip(fluxes, fluxes[1:]))
    flux_ok = 1.9 <= fluxes[-1] <= 2.1
    ok = rel <= 0.05 and flux_ok and trending
    detail = (f"Aitken[log(1/lam)/mu^b] = {extrap:.4f} vs 0.4 "
              f"(rel {rel:.3f}, tolerance 0.05); mu|u'(1)| last "
              f"{fluxes[-1]:.4f} vs [1.9,2.1], trending up {trending}. "
              f"Raw sequence {['%.4f' % v for v in seq]}: the correction "
              f"decays like log(mu)/mu^b whose term ratio drifts toward 1, "
              f"so one Aitken step cannot reach 5% at lambda >= 1e-6, and "
              f"the finite-size flux deficit alpha*beta/mu^(2-b) ~ 0.15 "
              f"keeps the flux below 1.9 until lambda ~ 2e-10")
    assert ok, _line(6, ok, detail)
    _line(6, ok, detail)


def test_criterion_7_full_energy_expansion(reference_family):
    members = _members(reference_family.spec, reference_family.records)
    beta = members[-1][0].beta
    target = (2.0 * math.pi * 1.0 ** (2.0 / beta) * beta
              * (1.0 - beta / 2.0) ** ((2.0 - beta) / beta))
    seq = [(4.0 * math.pi - rec.full_dirichlet)
           * math.log(1.0 / p.lam) ** ((2.0 - p.beta) / p.beta)
           for p, rec in members]
    rel_last = abs(seq[-1] - target) / target
    _, extrap = estimate_limit(seq)
    rel_extrap = abs(extrap - target) / target
    ok = rel_last <= 0.20
    detail = (f"deficit*(log 1/lam)^((2-b)/b) at largest member "
              f"{seq[-1]:.4f} vs {target:.4f} (rel {rel_last:.3f}, "
              f"tolerance 0.20; Aitken would give {extrap:.4f}, "
              f"rel {rel_extrap:.3f}); next-order log(mu) corrections "
              f"exceed 20% until lambda is far below 1e-6")
    assert ok, _line(7, ok, detail)
    _line(7, ok, detail)


DEEP_CONFIG = (Path(__file__).resolve().parents[1] / "configs"
               / "reference_family_deep.cfg")


@pytest.fixture(scope="module")
def deep_reference_family():
    """configs/reference_family_deep.cfg (k=0, alpha=1, beta=1.2, lambda =
    1e-2 .. 1e-300), solved once as `tmb verify` solves it: (spec, records)."""
    cfg = parse_config(DEEP_CONFIG, "verify")
    records, _ = run_family(cfg.family)
    assert len(records) == len(cfg.family.lambda_schedule), \
        "deep reference family must solve completely"
    return cfg.family, records


def test_criterion_6_deep_concentration_and_flux(deep_reference_family):
    # criterion 6's laws and tolerances, where the family reaches them
    members = _members(*deep_reference_family)
    seq = [math.log(1.0 / p.lam) / rec.peak_values[0] ** p.beta
           for p, rec in members]
    _, extrap = estimate_limit(seq)
    rel = abs(extrap - 0.4) / 0.4
    fluxes = [rec.boundary_fluxes[0] for _, rec in members]
    trending = all(b > a for a, b in zip(fluxes, fluxes[1:]))
    ok = rel <= 0.05 and 1.9 <= fluxes[-1] <= 2.1 and trending
    detail = (f"deep family: Aitken[log(1/lam)/mu^b] = {extrap:.4f} vs 0.4 "
              f"(rel {rel:.4f}, tolerance 0.05); mu|u'(1)| last "
              f"{fluxes[-1]:.4f} vs [1.9,2.1], trending up {trending}")
    assert ok, _line(6, ok, detail)
    _line(6, ok, detail)


def test_criterion_7_deep_full_energy_expansion(deep_reference_family):
    # criterion 7's law and tolerance, where the family reaches them
    spec, recs = deep_reference_family
    p_last, rec_last = _members(spec, recs)[-1]
    alpha, beta = spec.alpha, p_last.beta
    target = (2.0 * math.pi * alpha ** (2.0 / beta) * beta
              * (1.0 - beta / 2.0) ** ((2.0 - beta) / beta))
    last = ((4.0 * math.pi - rec_last.full_dirichlet)
            * math.log(1.0 / p_last.lam) ** ((2.0 - beta) / beta))
    rel = abs(last - target) / target
    ok = rel <= 0.20
    detail = (f"deep family: deficit*(log 1/lam)^((2-b)/b) at largest member "
              f"{last:.4f} vs {target:.4f} (rel {rel:.4f}, tolerance 0.20)")
    assert ok, _line(7, ok, detail)
    _line(7, ok, detail)


def test_criterion_8_two_bubble_structure():
    spec = FamilySpec(k=1, alpha=1.0,
                      lambda_schedule=tuple(10.0 ** -n for n in range(1, 5)),
                      beta_schedule=(1.3,) * 4)
    try:
        recs, _ = run_family(spec)
    except FamilyEmptyError as exc:
        ok = False
        detail = (f"family is empty: {exc}. The k=1 shooting curve at "
                  f"beta=1.3 spans lambda in [~1.96, 30.47] for amplitudes "
                  f"inside the binary64 budget (s <= 25.1); reaching "
                  f"lambda = 0.1 needs an inner amplitude near "
                  f"(mu_2/0.35)^(1/0.3) ~ 10^2.6, i.e. exp(u^2) ~ 10^{156000}, "
                  f"so the prescribed lambda schedule has no representable "
                  f"solutions")
        assert ok, _line(8, ok, detail)
        return
    members = _members(spec, recs)
    last = members[-1][1]
    dir_ok = all(abs(d - 2.0) <= 0.35 for d in last.dirichlet)
    ratios = [rec.peak_values[1] / rec.peak_values[0] for _, rec in members]
    ratio_decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    law = [rec.peak_values[1] / rec.peak_values[0] ** (p.beta - 1.0)
           for p, rec in members]
    gaps = [abs(v - 0.35) for v in law[-3:]]
    law_trending = gaps[0] >= gaps[1] >= gaps[2]
    ok = len(recs) == 4 and dir_ok and ratio_decreasing and law_trending
    detail = (f"dirichlet at final member {last.dirichlet}, mu2/mu1 "
              f"decreasing {ratio_decreasing}, mu2/mu1^(b-1) trend {law}")
    assert ok, _line(8, ok, detail)
    _line(8, ok, detail)


def test_criterion_9_weak_limit_preset():
    t0 = time.time()
    spec = FamilySpec(k=1, alpha=1.0, lambda_schedule=(3.1,) * 7,
                      beta_schedule=(1.3, 1.2, 1.12, 1.08, 1.05, 1.04, 1.03))
    records, failures = run_family(spec)
    reports = verify_formulas(spec, records)
    threshold = [r for r in reports
                 if r.formula_id == "weak_limit_threshold" and r.applicable]
    elapsed = time.time() - t0
    ok = len(records) >= 3 and len(threshold) == 1
    rep = threshold[0] if threshold else None
    detail = (f"{len(records)} members solved, {len(failures)} "
              f"recorded failures; tail peak mu_2={rep.raw_last:.4f} vs "
              f"alpha/2=0.5 ({rep.note}); {elapsed:.1f}s"
              if rep else "threshold report missing")
    assert ok, _line(9, ok, detail)
    _line(9, ok, detail)


# lam_inf is lambda_{k-1}(alpha/2); the stored reference (rows 30-33 of
# tests/data/reference_lambda.csv) holds each within 1e-12 in ln lambda
@pytest.mark.parametrize("k, alpha, lam_inf", [(1, 1.0, 3.523923377517147),
                                               (1, 3.0, 0.11080192512532004),
                                               (2, 1.0, 22.04951273703981),
                                               (2, 3.0, 3.1102680594702314)])
def test_weak_limit_amplitude_at_beta_one(k, alpha, lam_inf):
    """At beta = 1 the k-nodal branch tends to the (k-1)-nodal solution of
    amplitude alpha/2: lambda_k(s) rises to lambda_{k-1}(alpha/2), and the
    peak of domain 2 tends to alpha/2 from above (the amplitude condition
    of the abstract, radial case).  Bounds fixed before the first run, for
    k = 1 from gaps of 3.2e-2, 5.2e-3, 7.2e-4 (alpha = 1) and 1.6e-3,
    3.0e-4, 4.5e-5 (alpha = 3) at s = 1e3, 1e4, 1e5, and peaks 0.5001121
    and 1.5000211; k = 2 keeps them."""
    p = ProblemParams(alpha, 1.0, 1.0)
    limit = lambda_of_s(alpha / 2.0, k - 1, p)
    assert limit == pytest.approx(lam_inf, rel=1e-10)
    gaps = [limit - lambda_of_s(s, k, p) for s in (1e3, 1e4, 1e5)]
    assert gaps[0] > 0.0
    # 5.2x to 7.2x per decade measured at k = 1, 6.2x to 7.5x at k = 2
    assert all(0.0 < b <= a / 4.0 for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] <= 1e-3 * limit, gaps
    peak = solution_at(1e5, k, p).peak_values[1]
    assert alpha / 2.0 < peak <= alpha / 2.0 * (1.0 + 1e-3), peak


@pytest.mark.parametrize("alpha", [1.0, 3.0])
def test_weak_limit_third_domain_at_beta_one(alpha):
    """At beta = 1 the 2-nodal branch's domain 3 tends to the outer domain
    of u0, the 1-nodal solution of amplitude alpha/2.  Domain 2's peak is
    the same float at k = 1 and k = 2, so this reads domain 3's.  Bounds
    fixed before the first run: at s = 1e3, 1e4, 1e5 its peak stays above
    u0's second peak (0.19763291 at alpha = 1, 0.51577473 at alpha = 3),
    the gap shrinks at least 4x per decade, and the last gap is at most
    1e-3 of u0's peak."""
    p = ProblemParams(alpha, 1.0, 1.0)
    limit = solution_at(alpha / 2.0, 1, p).peak_values[1]
    gaps = [solution_at(s, 2, p).peak_values[2] - limit for s in (1e3, 1e4, 1e5)]
    assert gaps[0] > 0.0
    assert all(0.0 < b <= a / 4.0 for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] <= 1e-3 * limit, gaps


def _domain_dirichlet(sol):
    """int u'^2 r dr over each nodal domain, innermost first (4 pi reads 2)."""
    return [d.dirichlet for d in decompose(sol)]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("alpha", [1.0, 3.0])
def test_weak_limit_energy_at_beta_one(alpha, k):
    """At beta = 1 the k-nodal branch's full Dirichlet energy tends to
    4 pi + |grad u0|^2, u0 the (k-1)-nodal solution of amplitude alpha/2:
    one bubble over the weak limit.  Bounds fixed before the first run: at
    s = 1e3, 1e4, 1e5 the energy stays above that limit, the gap shrinks at
    least 4x per decade and ends within 1e-3 of the limit (relative), and
    at s = 1e5 only domain 1's int u'^2 r dr lies within 1e-3 of 2."""
    p = ProblemParams(alpha, 1.0, 1.0)
    u0 = solution_at(alpha / 2.0, k - 1, p)
    limit = 4.0 * math.pi + 2.0 * math.pi * sum(_domain_dirichlet(u0))
    domains = [_domain_dirichlet(solution_at(s, k, p)) for s in (1e3, 1e4, 1e5)]
    gaps = [2.0 * math.pi * sum(d) - limit for d in domains]
    assert gaps[0] > 0.0, gaps
    assert all(0.0 < b <= a / 4.0 for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] <= 1e-3 * limit, gaps
    assert [abs(d - 2.0) <= 1e-3 for d in domains[-1]] == [True] + [False] * k, domains[-1]


@pytest.mark.parametrize("beta", [0.5, 0.8])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("alpha", [1.0, 3.0])
def test_one_bubble_below_beta_one(alpha, k, beta):
    """For beta < 1 the k-nodal branch carries one bubble over a vanishing
    weak limit: domain 1 carries 4 pi, the other domains fade, and
    lambda_k(s) rises toward j_{0,k}^2.  Bounds fixed before the first run,
    at s = 1e3, 1e4, 1e5: domain 1's int u'^2 r dr ends within 1e-3 of 2;
    every other domain's peak and energy fall each decade; the full
    energy's distance from 4 pi shrinks each decade; lambda_k(s) rises each
    decade and stays below j_{0,k}^2."""
    p = ProblemParams(alpha, beta, 1.0)
    sols = [solution_at(s, k, p) for s in (1e3, 1e4, 1e5)]
    domains = [_domain_dirichlet(sol) for sol in sols]
    assert abs(domains[-1][0] - 2.0) <= 1e-3, domains[-1]
    for i in range(1, k + 1):
        peaks = [sol.peak_values[i] for sol in sols]
        energies = [d[i] for d in domains]
        assert all(b < a for a, b in zip(peaks, peaks[1:])), (i, peaks)
        assert all(b < a for a, b in zip(energies, energies[1:])), (i, energies)
    excess = [abs(2.0 * math.pi * sum(d) - 4.0 * math.pi) for d in domains]
    assert all(b < a for a, b in zip(excess, excess[1:])), excess
    lams = [sol.params.lam for sol in sols]
    assert all(a < b for a, b in zip(lams, lams[1:])), lams
    assert lams[-1] < j0_zero(k).lambda_k, lams


VERIFY_CONFIG = """\
[problem]
k = 0
alpha = 1.0
beta = 1.2

[family]
# exactly the members the geometric line `0.01 0.1 5` made: 0.01 * 0.1**n, n < 5
lambda_schedule = 0.01 0.001 0.00010000000000000002 1.0000000000000003e-05 1.0000000000000002e-06

[output]
seed_note = acceptance determinism run
"""


def test_criterion_10_determinism_and_budget(tmp_path):
    cfg = tmp_path / "accept.cfg"
    cfg.write_text(VERIFY_CONFIG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_main(["verify", "--config", str(cfg), "--out", str(out1)])
    code2 = cli_main(["verify", "--config", str(cfg), "--out", str(out2)])
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("solutions.csv", "formula_reports.csv"))
    elapsed = time.time() - SESSION_T0
    ok = code1 == 0 and code2 == 0 and identical and elapsed < 600.0
    detail = (f"two verify runs byte-identical={identical}, suite wall time "
              f"{elapsed:.0f}s (< 600s)")
    assert ok, _line(10, ok, detail)
    _line(10, ok, detail)
