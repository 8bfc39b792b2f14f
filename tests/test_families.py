"""Family orchestration, Aitken acceleration, and the formula registry."""

import gc
import math
from pathlib import Path

import pytest

from tmb import families, shooting
from tmb.errors import FamilyEmptyError
from tmb.families import (
    FamilySpec,
    concentrating,
    estimate_limit,
    run_family,
    verify_formulas,
)
from tmb.cli import parse_config
from tmb.ode import Trajectory

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestFamilySpec:
    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            FamilySpec(k=0, alpha=1.0, lambda_schedule=(0.1, 0.2),
                       beta_schedule=(1.2,) * 4)

    def test_requires_four_members(self):
        with pytest.raises(ValueError):
            FamilySpec(k=0, alpha=1.0, lambda_schedule=(0.1,) * 3,
                       beta_schedule=(1.2,) * 3)

    def test_validates_ranges(self):
        # the same message as nodal_solution and the config's [problem] k
        with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
            FamilySpec(k=-1, alpha=1.0, lambda_schedule=(0.1,) * 4,
                       beta_schedule=(1.2,) * 4)
        with pytest.raises(ValueError):
            FamilySpec(k=0, alpha=1.0, lambda_schedule=(0.1, 0.1, 0.1, -0.1),
                       beta_schedule=(1.2,) * 4)
        with pytest.raises(ValueError):
            FamilySpec(k=0, alpha=1.0, lambda_schedule=(0.1,) * 4,
                       beta_schedule=(1.2, 1.2, 2.3, 1.2))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                FamilySpec(k=0, alpha=1.0, lambda_schedule=(0.1, bad, 0.1, 0.1),
                           beta_schedule=(1.2,) * 4)
            with pytest.raises(ValueError):
                FamilySpec(k=0, alpha=bad, lambda_schedule=(0.1,) * 4,
                           beta_schedule=(1.2,) * 4)


class TestEstimateLimit:
    def test_constant(self):
        assert estimate_limit([3.5, 3.5, 3.5]) == (3.5, 3.5)

    def test_equal_differences_fall_back(self):
        # equal nonzero differences: Aitken's denominator is 0
        assert estimate_limit([1.0, 2.0, 3.0]) == (3.0, 3.0)

    def test_geometric_exact(self):
        a, b, q = 2.0, 0.7, 0.5
        seq = [a + b * q ** n for n in range(6)]
        last, extrap = estimate_limit(seq)
        assert last == seq[-1]
        assert extrap == pytest.approx(a, abs=1e-10)

    def test_geometric_exact_property(self):
        # Aitken is exact on a + b*q^n for any fixed ratio in (0, 1)
        for a, b, q in [(-1.0, 3.0, 0.25), (10.0, -2.0, 0.8),
                        (0.0, 1.0, 0.1), (5.0, 0.01, 0.6)]:
            seq = [a + b * q ** n for n in range(5)]
            _, extrap = estimate_limit(seq)
            assert extrap == pytest.approx(a, abs=1e-9 * (1 + abs(a)))

    def test_alternating_falls_back(self):
        last, extrap = estimate_limit([1.0, 2.0, 1.5, 1.8])
        assert extrap == last == 1.8

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            estimate_limit([1.0, 2.0])


CHEAP = FamilySpec(k=0, alpha=1.0,
                   lambda_schedule=(0.5, 0.125, 0.03125, 0.0078125),
                   beta_schedule=(1.0,) * 4)


@pytest.fixture(scope="module")
def cheap_family():
    """The records of CHEAP, a shallow, fast k=0 family at beta = 1.0
    (targets exact arithmetic)."""
    records, _ = run_family(CHEAP)
    return records


class TestRunFamily:
    def test_reference_family_blows_up(self, reference_family):
        mus = [rec.peak_values[0] for rec in reference_family.records.values()]
        assert all(b > a for a, b in zip(mus, mus[1:]))
        assert len(reference_family.records) == 5

    def test_determinism(self, cheap_family):
        rerun, _ = run_family(CHEAP)
        assert list(rerun) == list(cheap_family) == [0, 1, 2, 3]
        for a, b in zip(cheap_family.values(), rerun.values()):
            assert a.amplitude == b.amplitude
            assert a.full_dirichlet == b.full_dirichlet
            assert a.peak_values == b.peak_values

    def test_failed_member_recorded(self):
        # 7.0 sits above the first eigenvalue: no branch reaches it
        spec = FamilySpec(k=0, alpha=1.0,
                          lambda_schedule=(0.5, 7.0, 0.25, 0.125),
                          beta_schedule=(1.2,) * 4)
        records, failures = run_family(spec)
        assert list(records) == [0, 2, 3]
        # each failure is the row the metadata sidecar writes
        assert [(f["n"], f["lambda"], f["beta"]) for f in failures] == [(1, 7.0, 1.2)]
        assert list(failures[0]) == ["n", "lambda", "beta", "reason"]
        assert failures[0]["reason"].startswith("NoSolutionInRangeError: ")

    def test_family_empty(self):
        spec = FamilySpec(k=0, alpha=1.0, lambda_schedule=(7.0, 8.0, 9.0, 10.0),
                          beta_schedule=(1.2,) * 4)
        with pytest.raises(FamilyEmptyError):
            run_family(spec)

    @pytest.mark.parametrize("preset, betas", [
        ("reference_family", 1), ("weak_limit_preset", 7)])
    def test_one_trace_per_branch(self, monkeypatch, preset, betas):
        # every member of a branch is solved on the one trace of its beta;
        # the weak preset's beta falls member by member
        traces = []

        def counting(k, p):
            traces.append(shooting.trace(k, p))
            return traces[-1]

        monkeypatch.setattr(families, "trace", counting)
        spec = parse_config(CONFIGS / f"{preset}.cfg", "verify").family
        records, failures = run_family(spec)
        assert len(traces) == betas
        assert len(records) + len(failures) == len(spec)
        # each trace serves the lowest lambda_n on its branch
        assert sorted(tr.params.beta for tr in traces) == sorted(set(spec.beta_schedule))
        assert all(tr.params.lam == min(spec.lambda_schedule) for tr in traces)


def test_no_trajectory_outlives_its_member(monkeypatch):
    # records are summaries: while member n is solved, and after the
    # run, no earlier member's trajectories are alive
    def live():
        gc.collect()
        return sum(isinstance(o, Trajectory) for o in gc.get_objects())

    base = live()
    counts = []
    solve = families.nodal_solution

    def counting(*args, **kwargs):
        counts.append(live() - base)
        return solve(*args, **kwargs)

    monkeypatch.setattr(families, "nodal_solution", counting)
    spec = FamilySpec(k=0, alpha=1.0,
                      lambda_schedule=(1e-2, 1e-3, 1e-4, 1e-5),
                      beta_schedule=(1.2,) * 4)
    records, _ = run_family(spec)
    assert len(records) == 4
    assert counts == [0, 0, 0, 0]
    assert live() - base == 0


class TestVerifyFormulas:
    def test_k0_applicability_gating(self, reference_family):
        reports = verify_formulas(reference_family.spec, reference_family.records)
        applicable = {r.formula_id for r in reports if r.applicable}
        assert applicable == {"aaa1", "aa44", "bubble_energy[1]", "f4[1]",
                              "full_energy"}

    def test_exact_targets_at_beta_one(self, cheap_family):
        reports = {r.formula_id: r for r in verify_formulas(CHEAP, cheap_family)}
        assert reports["aaa1"].target == pytest.approx(0.5, abs=1e-15)
        assert reports["aa44"].target == pytest.approx(1.0, abs=1e-15)

    def test_reports_carry_sequences(self, reference_family):
        reports = {r.formula_id: r for r in verify_formulas(
            reference_family.spec, reference_family.records)}
        rep = reports["aaa1"]
        assert len(rep.raw_values) == 5
        assert rep.raw_last == rep.raw_values[-1]
        assert rep.target == pytest.approx(0.4, abs=1e-15)
        assert not rep.slow_rate

    def test_f4_trends_to_two(self, reference_family):
        reports = {r.formula_id: r for r in verify_formulas(
            reference_family.spec, reference_family.records)}
        flux = reports["f4[1]"].raw_values
        assert all(b > a for a, b in zip(flux, flux[1:]))
        assert flux[-1] > 1.8

    def test_needs_three_records(self, reference_family):
        with pytest.raises(ValueError):
            verify_formulas(reference_family.spec,
                            {n: reference_family.records[n] for n in (0, 1)})


def _fake_summary(mus, radii, rhos, slopes):
    """Synthetic SolutionSummary for registry-arithmetic tests."""
    from tmb.families import SolutionSummary

    k1 = len(mus)
    return SolutionSummary(
        log_nodal_radii=tuple(math.log(r) for r in radii),
        log_peak_radii=tuple(math.log(r) if r > 0.0 else -math.inf for r in rhos),
        peak_values=tuple(mus),
        boundary_ru=tuple(r * sl for r, sl in zip(radii, slopes)),
        dirichlet=(1.8,) * k1, functional=5.0,
        nehari_residual=1e-11, identity_residual_max=1e-11,
        boundary_fluxes=(1.9,) * k1, bubbles=(None,) * k1)


class TestRegistryTargets:
    """Target arithmetic for the deep-hierarchy laws, against constants
    computed by hand from the printed formulas (the regimes themselves sit
    past the double-precision amplitude wall, so no solver run can cover
    them)."""

    def test_k2_targets(self):
        import copy

        lams = (1e-2, 1e-3, 1e-4, 1e-5)
        records = {}
        for n in range(len(lams)):
            grow = 1.6 ** n
            mus = (8.0 * grow, 4.0 * grow, 2.0 * grow)
            radii = (1e-4 / grow, 1e-2 / grow, 1.0)
            rhos = (0.0, 3e-3 / grow, 0.2 / grow)
            slopes = (-0.5, 0.5, -0.5)  # below the log regime: aa4 gated off
            records[n] = _fake_summary(mus, radii, rhos, slopes)
        spec = FamilySpec(k=2, alpha=1.0, lambda_schedule=lams,
                          beta_schedule=(1.3,) * 4)
        reports = {r.formula_id: r for r in verify_formulas(spec, records)}
        assert reports["aaa1"].target == pytest.approx(0.35, abs=1e-15)
        assert reports["aa1[1]"].target == pytest.approx(0.059366717867659624)
        assert reports["aa1[2]"].target == pytest.approx(0.0894039078001457)
        assert reports["aa2[1]"].target == pytest.approx(0.06944957860198707)
        assert reports["aa2[2]"].target == pytest.approx(0.15081519063475224)
        assert reports["aa3[2]"].target == pytest.approx(0.10234281331076399)
        assert reports["aa44"].target == pytest.approx(0.8918937214798499)
        assert reports["full_energy"].target == pytest.approx(4.641105047203837)
        assert not reports["aa4[1]"].applicable
        for fid in ("aa1[1]", "aa2[2]", "aa3[2]"):
            assert reports[fid].slow_rate
        # the coupled-schedule constant feeds the outermost-peak law
        L = reports["ab11"].extrapolated
        expected_ab1 = (2.0 ** 0.65 * 0.35
                        * (1.0 + L * 0.35 ** (2.0 / 1.3)) ** -0.65)
        assert reports["ab1"].target == pytest.approx(expected_ab1, rel=1e-12)

    def test_failed_member_read_by_index(self):
        # records are keyed by member index: with member 1 failed, each
        # summary is read with its own lambda_n, and lambda_1 with none
        lams = (1e-2, 7.0, 1e-4, 1e-5)
        spec = FamilySpec(k=0, alpha=1.0, lambda_schedule=lams,
                          beta_schedule=(1.3,) * 4)
        records = {n: _fake_summary((8.0 * 1.6 ** n,), (1.0,), (0.0,), (-0.5,))
                   for n in (0, 2, 3)}
        reports = {r.formula_id: r for r in verify_formulas(spec, records)}
        assert reports["aaa1"].raw_values == tuple(
            math.log(1.0 / lams[n]) / (8.0 * 1.6 ** n) ** 1.3 for n in (0, 2, 3))


class TestRegistryIds:
    """The formula ids depend on k alone: a gated formula is reported as
    an inapplicable row, never left out."""

    REGIMES = {  # per-peak growth factor per member -> concentrating domains
        (1.6, 1.6, 1.6): (True, True, True),
        (1.6, 1.0, 1.0): (True, False, False),
        (1.0, 1.6, 1.0): (False, True, False),
        (1.0, 1.0, 1.0): (False, False, False),
    }

    @staticmethod
    def _k2_family(growth):
        lams = (1e-2, 1e-3, 1e-4, 1e-5)
        records = {}
        for n in range(len(lams)):
            grow = 1.6 ** n
            mus = tuple(m * g ** n for m, g in zip((8.0, 4.0, 2.0), growth))
            radii = (1e-4 / grow, 1e-2 / grow, 1.0)
            rhos = (0.0, 3e-3 / grow, 0.2 / grow)
            slopes = (-0.5, 0.5, -0.5)  # below the log regime
            records[n] = _fake_summary(mus, radii, rhos, slopes)
        spec = FamilySpec(k=2, alpha=1.0, lambda_schedule=lams,
                          beta_schedule=(1.3,) * 4)
        return spec, records

    def test_same_ids_in_every_regime(self):
        ids = []
        for growth, regime in self.REGIMES.items():
            spec, records = self._k2_family(growth)
            assert concentrating(records.values(), 2) == regime
            ids.append([r.formula_id for r in verify_formulas(spec, records)])
        assert all(regime_ids == ids[0] for regime_ids in ids[1:])
        assert len(set(ids[0])) == len(ids[0])
        for fid in ("aa5[2]", "aa7[1]", "aa8[2]", "weak_limit_threshold", "f4[3]"):
            assert fid in ids[0]

    def test_slope_gate_keeps_the_row(self):
        reports = {r.formula_id: r for r in verify_formulas(
            *self._k2_family((1.6, 1.0, 1.0)))}
        assert reports["aa5[1]"].applicable
        assert reports["weak_limit_threshold"].applicable
        assert not reports["aa7[1]"].applicable
        assert reports["aa7[1]"].note == "boundary slope not yet in the log regime"
        assert not reports["aa5[2]"].applicable


class TestCouplingGates:
    """k = 1: ab11's coupling constant gates the outermost-peak laws ab1
    and ab2, and ab1 needs the outer peak off the origin."""

    @staticmethod
    def _k1_reports(beta, rho2):
        lams = (1e-2, 1e-3, 1e-4, 1e-5)
        records = {}
        for n in range(len(lams)):
            grow = 1.6 ** n
            records[n] = _fake_summary((8.0 * grow, 4.0 * grow), (1e-2 / grow, 1.0),
                                       (0.0, rho2 / grow), (0.5, -0.5))
        spec = FamilySpec(k=1, alpha=1.0, lambda_schedule=lams,
                          beta_schedule=(beta,) * 4)
        return {r.formula_id: r for r in verify_formulas(spec, records)}

    def test_no_coupling_constant_at_beta_one(self):
        reports = self._k1_reports(1.0, 0.2)
        assert reports["ab11"].note == "needs beta_n != 1 and lambda_n < 1/e"
        assert reports["ab1"].note == "no coupling constant available"
        assert not any(reports[fid].applicable for fid in ("ab11", "ab1", "ab2"))

    def test_outermost_peak_at_origin(self):
        reports = self._k1_reports(1.3, 0.0)
        assert reports["ab11"].applicable
        assert not reports["ab1"].applicable
        assert reports["ab1"].note == "outermost peak at the origin"


class TestClassifier:
    def test_full_blowup(self, reference_family):
        assert concentrating(reference_family.records.values(), 0) == (True,)

    def test_slow_blowup_also_classified(self, cheap_family):
        # even the shallow beta=1 family has growing peaks as lambda drops
        assert concentrating(cheap_family.values(), 0) == (True,)

    def test_compact_family(self):
        # amplitudes shrink toward the eigenvalue: nothing concentrates
        spec = FamilySpec(k=0, alpha=1.0,
                          lambda_schedule=(5.0, 5.2, 5.4, 5.6),
                          beta_schedule=(1.2,) * 4)
        records, _ = run_family(spec)
        assert concentrating(records.values(), 0) == (False,)
        reports = verify_formulas(spec, records)
        assert not any(r.applicable for r in reports)

    def test_one_verdict_per_call(self, monkeypatch):
        # domain 2 concentrates past domain 1, which does not: N = 0, and of
        # all the laws only domain 2's own apply
        verdicts = []

        def counted(records, k):
            verdicts.append(concentrating(records, k))
            return verdicts[-1]

        monkeypatch.setattr(families, "concentrating", counted)
        reports = verify_formulas(*TestRegistryIds._k2_family((1.0, 1.6, 1.0)))
        assert verdicts == [(False, True, False)]
        assert [r.formula_id for r in reports if r.applicable] == [
            "bubble_energy[2]", "f4[2]"]
        notes = {r.formula_id: r.note for r in reports}
        assert notes["weak_limit_threshold"] == "no domain concentrates"
        assert notes["aa5[1]"] == "domain 1 does not concentrate"
