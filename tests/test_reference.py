"""tmb's ln lambda_k(s) at the default settings against the stored
reference (tests/data/reference_lambda.csv, written by
tests/reference_lambda.py at 30 digits and checked there at 34)."""

import csv
from pathlib import Path

from tmb.nonlinearity import ProblemParams
from tmb.shooting import solve_unit_lambda

TABLE = Path(__file__).resolve().parent / "data" / "reference_lambda.csv"
# twice the 1.7e-11 SolverSettings states for the default settings
BOUND = 3.4e-11


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
    misses = [f"{point}: {diff:.3g}" for diff, point in diffs if not diff <= BOUND]
    assert not misses, f"|d ln lambda| above {BOUND}: " + "; ".join(misses)
