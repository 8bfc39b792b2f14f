"""Shared fixtures: the expensive solves are session-scoped and reused."""

import time

import pytest

from tmb import ProblemParams, families
from tmb.families import FamilySpec

SESSION_T0 = time.time()

L1 = 5.783185962946785   # first radial Dirichlet eigenvalue of the disk
T1 = 2.404825557695773
T2 = 5.520078110286311


def run_family_keeping_solutions(spec, **kwargs):
    """(run_family(spec, **kwargs), the solution each record summarises, in
    record order).  Records keep no solution; this catches each one on its
    way into the summary, so nothing is solved twice."""
    solutions = []
    summarize = families._summarize

    def keep(index, lam, beta, sol, branch_count):
        solutions.append(sol)
        return summarize(index, lam, beta, sol, branch_count)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "_summarize", keep)
        exp = families.run_family(spec, **kwargs)
    return exp, solutions


@pytest.fixture(scope="session")
def p12():
    return ProblemParams(alpha=1.0, beta=1.2, lam=1.0)


@pytest.fixture(scope="session")
def reference_family():
    """k=0, alpha=1, beta=1.2, lambda = 1e-2..1e-6 (the blow-up family used
    by the profile/energy/concentration acceptance checks); exp.solutions
    holds each record's solution."""
    spec = FamilySpec(k=0, alpha=1.0,
                      lambda_schedule=tuple(10.0 ** -n for n in range(2, 7)),
                      beta_schedule=(1.2,) * 5)
    t0 = time.time()
    exp, solutions = run_family_keeping_solutions(spec)
    exp.wall_time = time.time() - t0
    exp.solutions = solutions
    assert len(exp.records) == 5, "reference family must solve completely"
    return exp


@pytest.fixture(scope="session")
def sol_mid(reference_family):
    """k=0, lambda=1e-3 member (moderate peak ~6.3)."""
    return reference_family.solutions[1]


@pytest.fixture(scope="session")
def sol_deep(reference_family):
    """k=0, lambda=1e-6 member (peak ~13.4)."""
    return reference_family.solutions[-1]


@pytest.fixture(scope="session")
def sol_k1():
    """k=1 nodal solution at a reachable eigenvalue (lambda=3, beta=1.3)."""
    from tmb.shooting import nodal_solution

    p = ProblemParams(alpha=1.0, beta=1.3, lam=3.0)
    sols = nodal_solution(1, p)
    return sols[-1]
