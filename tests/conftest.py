"""Shared fixtures: the expensive solves are session-scoped and reused."""

import time

import pytest

from tmb import ProblemParams
from tmb.families import FamilySpec, run_family

SESSION_T0 = time.time()

# one coarse scan resolution everywhere: each scan costs SCAN_POINTS
# lambda(s) evaluations
SCAN_POINTS = 48

L1 = 5.783185962946785   # first radial Dirichlet eigenvalue of the disk
T1 = 2.404825557695773
T2 = 5.520078110286311


@pytest.fixture(scope="session")
def p12():
    return ProblemParams(alpha=1.0, beta=1.2, lam=1.0)


@pytest.fixture(scope="session")
def reference_family():
    """k=0, alpha=1, beta=1.2, lambda = 1e-2..1e-6 (the blow-up family used
    by the profile/energy/concentration acceptance checks)."""
    spec = FamilySpec(k=0, alpha=1.0,
                      lambda_schedule=tuple(10.0 ** -n for n in range(2, 7)),
                      beta_schedule=(1.2,) * 5)
    t0 = time.time()
    exp = run_family(spec, scan_points=SCAN_POINTS)
    exp.wall_time = time.time() - t0
    assert len(exp.records) == 5, "reference family must solve completely"
    return exp


@pytest.fixture(scope="session")
def sol_mid(reference_family):
    """k=0, lambda=1e-3 member (moderate peak ~6.3)."""
    return reference_family.records[1].solution


@pytest.fixture(scope="session")
def sol_deep(reference_family):
    """k=0, lambda=1e-6 member (peak ~13.4)."""
    return reference_family.records[-1].solution


@pytest.fixture(scope="session")
def sol_k1():
    """k=1 nodal solution at a reachable eigenvalue (lambda=3, beta=1.3)."""
    from tmb.shooting import nodal_solution

    p = ProblemParams(alpha=1.0, beta=1.3, lam=3.0)
    sols = nodal_solution(1, 3.0, p, scan_points=SCAN_POINTS)
    return sols[-1]
