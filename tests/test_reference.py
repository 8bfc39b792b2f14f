"""tmb's ln lambda_k(s) at the default settings against the stored
reference (tests/data/reference_lambda.csv, written by
tests/reference_lambda.py at 30 digits and checked there at 34)."""

import csv
from pathlib import Path

from tmb.nonlinearity import ProblemParams
from tmb.shooting import solve_unit_lambda

TABLE = Path(__file__).resolve().parent / "data" / "reference_lambda.csv"
# Each row's |d ln lambda| bound: twice the 1.7e-11 SolverSettings states
# for the default settings at its worst-case point, and 1e-12 at every other
# row (they read <= 2.0e-13 at the defaults), so that a default rel_tol of
# 1e-11 or 1e-10 fails on some row.
WORST = (1, 1.0, 1.8, 14.070706319014791)  # (k, alpha, beta, s)
WORST_BOUND = 3.4e-11
BOUND = 1e-12


def test_default_ln_lambda_meets_the_reference():
    with open(TABLE, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 12
    diffs = []
    for row in rows:
        k, s = int(row["k"]), float.fromhex(row["s"])
        p = ProblemParams(float(row["alpha"]), float(row["beta"]), 1.0)
        diffs.append((abs(2.0 * solve_unit_lambda(s, k, p).log_zeros[k][0]
                          - float(row["ln_lambda"])), (k, p.alpha, p.beta, s)))
    diff, point = max(diffs)
    print(f"largest |d ln lambda| = {diff:.3g} at (k, alpha, beta, s) = {point}")
    misses = [f"{point}: {diff:.3g}" for diff, point in diffs
              if not diff <= (WORST_BOUND if point == WORST else BOUND)]
    assert not misses, "|d ln lambda| above its row's bound: " + "; ".join(misses)
