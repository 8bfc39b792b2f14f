"""Shared fixtures: the expensive solves are session-scoped and reused.
Also the test-side reference for the primitive F of the nonlinearity."""

import math
import time
from types import SimpleNamespace

import pytest

from tmb import ProblemParams, families
from tmb.families import FamilySpec
from tmb.quadrature import adaptive_quadrature

SESSION_T0 = time.time()

L1 = 5.783185962946785   # first radial Dirichlet eigenvalue of the disk
T1 = 2.404825557695773
T2 = 5.520078110286311


def primitive_F(t, p):
    """F(t) = integral of s*exp(s^2 + alpha*s^beta) over s in [0, |t|]; even
    in t.  The package reads F only off the integrator's flux channel; this
    adaptive quadrature, to relative tolerance 1e-10, is the independent
    reference the tests check that channel against."""
    alpha, beta = p.alpha, p.beta

    def integrand(s):
        return s * math.exp(s * s + alpha * s ** beta)

    return adaptive_quadrature(integrand, 0.0, abs(t), rel_tol=1e-10)


def run_family_keeping_solutions(spec):
    """(the records of run_family(spec), the solution each
    summarises, in record order).  Records keep no solution; this catches
    each one on its way into the summary, so nothing is solved twice."""
    solutions = []
    summarize = families._summarize

    def keep(index, lam, beta, sol):
        solutions.append(sol)
        return summarize(index, lam, beta, sol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "_summarize", keep)
        records, _ = families.run_family(spec)
    return records, solutions


@pytest.fixture(scope="session")
def p12():
    return ProblemParams(alpha=1.0, beta=1.2, lam=1.0)


@pytest.fixture(scope="session")
def reference_family():
    """k=0, alpha=1, beta=1.2, lambda = 1e-2..1e-6 (the blow-up family used
    by the profile/energy/concentration acceptance checks): its spec and
    records, solutions (each record's solution) and wall_time (seconds to
    run the family)."""
    spec = FamilySpec(k=0, alpha=1.0,
                      lambda_schedule=tuple(10.0 ** -n for n in range(2, 7)),
                      beta_schedule=(1.2,) * 5)
    t0 = time.time()
    records, solutions = run_family_keeping_solutions(spec)
    assert len(records) == 5, "reference family must solve completely"
    return SimpleNamespace(spec=spec, records=records, solutions=solutions,
                           wall_time=time.time() - t0)


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
