"""tmb's ln lambda_k(s) at the default settings against the stored
reference (tests/data/reference_lambda.csv, written by
tests/reference_lambda.py at 30 digits and checked there at 34), and the
generator's append-only write."""

import csv
from pathlib import Path

from mpmath import mpf

import reference_lambda
from tmb.nonlinearity import ProblemParams
from tmb.shooting import solve_unit_lambda

TABLE = Path(__file__).resolve().parent / "data" / "reference_lambda.csv"
# Each row's |d ln lambda| bound, keyed by (k, alpha, beta, s), fixed before
# tmb was run against the row: twice the error measured with a prototype
# of the reference where one is known, else 1e-12 (the first 12 rows read
# <= 2.0e-13 at the defaults), so that a default rel_tol of 1e-11 or 1e-10
# fails on some row.
BOUNDS = {
    # the worst case SolverSettings states for the default settings, 1.71e-11
    (1, 1.0, 1.8, 14.070706319014791): 3.4e-11,
    # beside the minimum of lambda_1: the weak preset's members, up to
    # s ~ 18, were within 9.7e-13
    (1, 1.0, 1.03, 24.1518): 2e-12,
    # the k = 0 flight floor, about 4e-17 s^2: 1.06e-12 and 4.27e-11
    (0, 1.0, 1.2, 140.0): 2.2e-12,
    (0, 1.0, 1.2, 1000.0): 8.6e-11,
    # absolute-t stepping past s ~ 3e4 is noisy at ~1e-11 (the prototype
    # read 2.4e-13 at the defaults, 3.1e-12 at rel_tol 1e-13)
    (1, 1.0, 1.3, 1e5): 1e-11,
    # the family workloads' roots: the prototype read reference_family's
    # five within 3.9e-13 and weak_limit_preset's six within 9.7e-13
    (0, 1.0, 1.2, 4.1139777893135783): 8e-13,
    (0, 1.0, 1.2, 6.2927235800105183): 8e-13,
    (0, 1.0, 1.2, 8.6214071688036533): 8e-13,
    (0, 1.0, 1.2, 11.01082116472411): 8e-13,
    (0, 1.0, 1.2, 13.41757421152319): 8e-13,
    (1, 1.0, 1.3, 8.0544467180664423): 2e-12,
    (1, 1.0, 1.2, 8.2428078656506081): 2e-12,
    (1, 1.0, 1.12, 9.1638270042153103): 2e-12,
    (1, 1.0, 1.08, 10.521762921974233): 2e-12,
    (1, 1.0, 1.05, 13.72212184788294): 2e-12,
    (1, 1.0, 1.04, 17.938064641498077): 2e-12,
}
BOUND = 1e-12


def test_default_ln_lambda_meets_the_reference():
    with open(TABLE, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 34
    diffs = []
    for row in rows:
        k, s = int(row["k"]), float.fromhex(row["s"])
        p = ProblemParams(float(row["alpha"]), float(row["beta"]), 1.0)
        diffs.append((abs(2.0 * solve_unit_lambda(s, k, p).log_zeros[k][0]
                          - float(row["ln_lambda"])), (k, p.alpha, p.beta, s)))
    diff, point = max(diffs)
    print(f"largest |d ln lambda| = {diff:.3g} at (k, alpha, beta, s) = {point}")
    misses = [f"{point}: {diff:.3g}" for diff, point in diffs
              if not diff <= BOUNDS.get(point, BOUND)]
    assert not misses, "|d ln lambda| above its row's bound: " + "; ".join(misses)


def test_generate_computes_only_missing_points(tmp_path, monkeypatch):
    table = tmp_path / "reference.csv"
    stored = ("k,alpha,beta,s,ln_lambda\r\n"
              "0,1.0,1.0,0x1.0000000000000p+1,-1.5\r\n"
              "2,1.0,1.3,0x1.4000000000000p+2,3.25\r\n"
              "1,1.0,0.5,0x1.8000000000000p+1,7.0\r\n")  # its point left POINTS
    table.write_bytes(stored.encode())
    calls = []

    def ln_lambda(k, alpha, beta, s, dps=30, tol="1e-24"):
        calls.append(((k, alpha, beta, s), dps))
        # the 34-digit run of s = 3 misses the 30-digit one
        return mpf(s) / 8 + (mpf("1e-15") if dps == 34 and s == 3.0 else 0)

    monkeypatch.setattr(reference_lambda, "TABLE", table)
    monkeypatch.setattr(reference_lambda, "ln_lambda", ln_lambda)
    monkeypatch.setattr(reference_lambda, "POINTS", (
        (0, 1.0, 1.0, 2.0), (1, 1.0, 1.0, 0.5), (2, 1.0, 1.3, 5.0)))
    assert reference_lambda.generate() == 0
    assert calls == [((1, 1.0, 1.0, 0.5), 30), ((1, 1.0, 1.0, 0.5), 34)]
    lines = table.read_bytes().decode().splitlines(keepends=True)
    assert lines == [*stored.splitlines(keepends=True)[:2],
                     "1,1.0,1.0,0x1.0000000000000p-1,0.0625\r\n",
                     stored.splitlines(keepends=True)[2]]

    written = table.read_bytes()
    calls.clear()
    monkeypatch.setattr(reference_lambda, "POINTS", (
        *reference_lambda.POINTS, (0, 1.0, 1.0, 3.0)))
    assert reference_lambda.generate() == 1
    assert calls == [((0, 1.0, 1.0, 3.0), 30), ((0, 1.0, 1.0, 3.0), 34)]
    assert table.read_bytes() == written
