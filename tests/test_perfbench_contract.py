"""The traced benchmark run sees every layer it wraps.

perfbench/tracer.py skips a name the package no longer binds, and its
layer then silently reports no calls; these tests fail instead.
"""

import importlib
import sys
from pathlib import Path

from tmb.nonlinearity import ProblemParams
from tmb.ode import integrate_radial

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_entry_points_bound():
    unbound = [f"{mod}.{attr}" for mod, attr, _ in tracer.ENTRY_POINTS
               if not hasattr(importlib.import_module(mod), attr)]
    # The reference primitive F and its quadrature left the package for the
    # tests, so the tracer's two entries for them bind nothing; their layers
    # read 0 calls, as they did before.  The benchmark change that drops
    # these two entries (ROADMAP item 14) returns this list to [].
    assert unbound == ["tmb.ode.primitive_F", "tmb.nonlinearity.adaptive_quadrature"]


def test_ode_attrs_count_steps():
    p = ProblemParams(alpha=1.0, beta=1.2, lam=1.0)
    traj = integrate_radial(2.0, p, 1)
    attrs = tracer.ATTRS["ode.integrate_radial"]((2.0, p, 1, None), {}, traj)
    assert attrs["steps"] == len(traj.steps) > 0


def test_newton_integrations_classified(monkeypatch):
    # the trace and the polish carry the sensitivity channel through the
    # traced name tmb.shooting.integrate_radial, with their settings where
    # _ode_attrs reads them, so ode.calls_full and ode.calls_scan still sort
    # every integration by tolerance
    from tmb import shooting
    from tmb.ode import SolverSettings

    seen = []

    def recording(*args, **kwargs):
        result = integrate_radial(*args, **kwargs)
        seen.append((kwargs.get("sensitivity", False),
                     tracer._ode_attrs(args, kwargs, result)))
        return result

    monkeypatch.setattr(shooting, "integrate_radial", recording)
    full = SolverSettings()
    p = ProblemParams(alpha=1.0, beta=1.2, lam=1e-3)
    shooting.nodal_solution(0, p)
    assert seen and all(channel for channel, _ in seen)
    assert {attrs["rel_tol"] for _, attrs in seen} == {
        shooting.SCAN_SETTINGS.rel_tol, full.rel_tol}
    assert all(attrs["steps"] > 0 for _, attrs in seen)
