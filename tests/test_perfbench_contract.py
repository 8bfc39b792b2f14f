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
    assert unbound == []


def test_ode_attrs_count_steps():
    p = ProblemParams(alpha=1.0, beta=1.2, lam=1.0)
    traj = integrate_radial(2.0, p, 1)
    attrs = tracer.ATTRS["ode.integrate_radial"]((2.0, p, 1, None), {}, traj)
    assert attrs["steps"] == len(traj.steps) > 0
