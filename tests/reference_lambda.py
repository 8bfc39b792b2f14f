"""The stored reference for ln lambda_k(s): writes tests/data/reference_lambda.csv.

    python tests/reference_lambda.py             # recompute every point, write the table
    python tests/reference_lambda.py --check 0 3 # recompute rows 0 and 3, compare

At lambda = 1 the radial equation -u'' - u'/r = u exp(u^2 + alpha |u|^beta)
becomes, in t = ln r,  u_tt = -sign(u) exp(E) with
E = 2t + ln|u| + u^2 + alpha |u|^beta.  The integration starts at the t0
where E = -40 (u = s to working precision there, from the series
u = s - e^E / 4) and carries the shifted time tau = t - t0 and the
deviation delta = u - s, so that

    E = -40 + 2 tau + ln|u/s| + delta (2s + delta) + alpha (|u|^beta - s^beta)

never subtracts two huge numbers.  ln lambda_k(s) = 2 (t0 + tau_{k+1}),
where tau_{k+1} is the (k+1)-th zero of u.

Each step is Gragg-Bulirsch-Stoer extrapolation of the modified midpoint
rule (Hairer, Norsett and Wanner, Solving ODE I, II.9) with the step
sequence 2, 4, ..., 20, in mpmath.  A step whose end has crossed a zero of u
is retaken with the length a secant finds, so that it ends on the zero (to
about 1e-26 at 30 digits); a trial stage with E > 2000 rejects its step.  The table is computed at 30
digits with a local tolerance of 1e-24, and written only if every point
agrees with a 34-digit, 1e-28 run to 1e-20; past s = 24.5 both runs add
extra_digits(s) to the digits and to the tolerance's exponent.  --check
recomputes the rows it names as the table was computed and fails unless
they match the stored digits to 1e-20.
The script needs only mpmath and shares no code with tmb.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from pathlib import Path

from mpmath import mp, mpf

TABLE = Path(__file__).resolve().parent / "data" / "reference_lambda.csv"
HEADER = ("k", "alpha", "beta", "s", "ln_lambda")
E_START = -40
E_REJECT = 2000      # a trial stage above this rejects its step
STEPS = tuple(range(2, 21, 2))
AGREE = mpf("1e-20")  # the stored digits against a rerun or the 34-digit run
DIGITS = 25           # significant digits of the stored ln lambda

# (k, alpha, beta, s).  The first 12 rows: k <= 2, beta in {0.5, 1, 1.3,
# 1.8}, s <= 24; the k = 1, beta = 1.8 point is the worst case
# SolverSettings states.  Then the points the trace to S_MAX and the
# per-bubble frames will be graded on: k = 1, beta = 1.03 beside its
# minimum (s ~ 24.15) and maximum (s ~ 158.9) of lambda and at the root
# past them (s ~ 1196.77); the k = 0 flight floor at s = 140 and 1e3; k = 1,
# beta = 1.3 at s = 1e5; and one k = 3 point.  Then the roots the
# benchmark's family workloads grade: reference_family (k = 0, beta = 1.2)
# and weak_limit_preset (k = 1, beta from 1.3 down to 1.04).
POINTS = (
    (0, 1.0, 0.5, 0.5),
    (0, 1.0, 1.0, 2.0),
    (0, 1.0, 1.3, 8.0),
    (0, 1.0, 1.8, 24.0),
    (1, 1.0, 0.5, 3.0),
    (1, 1.0, 1.0, 12.0),
    (1, 1.0, 1.3, 24.0),
    (1, 1.0, 1.8, 14.070706319014791),
    (2, 1.0, 0.5, 15.0),
    (2, 1.0, 1.0, 1.0),
    (2, 1.0, 1.3, 5.0),
    (2, 1.0, 1.8, 20.0),
    (1, 1.0, 1.03, 24.1518),
    (1, 1.0, 1.03, 158.896),
    (1, 1.0, 1.03, 1196.7673),
    (0, 1.0, 1.2, 140.0),
    (0, 1.0, 1.2, 1000.0),
    (1, 1.0, 1.3, 1e5),
    (3, 1.0, 1.3, 24.0),
    (0, 1.0, 1.2, 4.1139777893135783),
    (0, 1.0, 1.2, 6.2927235800105183),
    (0, 1.0, 1.2, 8.6214071688036533),
    (0, 1.0, 1.2, 11.01082116472411),
    (0, 1.0, 1.2, 13.41757421152319),
    (1, 1.0, 1.3, 8.0544467180664423),
    (1, 1.0, 1.2, 8.2428078656506081),
    (1, 1.0, 1.12, 9.1638270042153103),
    (1, 1.0, 1.08, 10.521762921974233),
    (1, 1.0, 1.05, 13.72212184788294),
    (1, 1.0, 1.04, 17.938064641498077),
)


class _Reject(Exception):
    """A trial stage left the range where the step can be trusted."""


def extra_digits(s: float) -> int:
    """Digits added to both dps and tol at amplitude s: the flight puts
    tau_{k+1} ~ s^2/2 past the bubble, along a line of slope ~2/s, so an
    error tol*s in u moves it by about tol*s^2/2.  Up to s^2/2 = 300
    (s = 24.5) the base tol keeps that 100x below AGREE; each decade
    further costs a digit."""
    return max(0, math.ceil(math.log10(s * s / 600.0)))


def ln_lambda(k: int, alpha: float, beta: float, s: float, dps: int = 30,
              tol: str = "1e-24"):
    """ln lambda_k(s) at dps digits and local tolerance tol, each
    tightened by extra_digits(s)."""
    extra = extra_digits(s)
    with mp.workdps(dps + extra):
        return _ln_lambda(k, mpf(alpha), mpf(beta), mpf(s), mpf(tol) / 10 ** extra)


def _ln_lambda(k, alpha, beta, s, tol):
    sb = s ** beta
    t0 = (E_START - mp.log(s) - s * s - alpha * sb) / 2
    eps = mp.eps * 16
    land = mpf(10) ** (4 - mp.dps)  # a zero's tau is kept once the secant moves less

    def rhs(tau, y):
        d, v = y
        u = s + d
        if u == 0:
            return (v, mpf(0))
        lu = mp.log(abs(u))
        e = (E_START + 2 * tau + lu - mp.log(s) + d * (2 * s + d)
             + alpha * (mp.exp(beta * lu) - sb))
        if e > E_REJECT:
            raise _Reject
        f = mp.exp(e)
        return (v, -f if u > 0 else f)

    def midpoint(tau, y, f0, h, n):
        """The modified midpoint rule: n substeps of h / n from (tau, y)."""
        sub = h / n
        prev = y
        cur = tuple(a + sub * b for a, b in zip(y, f0))
        for i in range(1, n):
            f = rhs(tau + i * sub, cur)
            prev, cur = cur, tuple(a + 2 * sub * b for a, b in zip(prev, f))
        f = rhs(tau + h, cur)
        return tuple((a + b + sub * c) / 2 for a, b, c in zip(cur, prev, f))

    def gbs(tau, y, h):
        """(the extrapolated end of a step of h or None, the step to try
        next): every n in STEPS, the error of the last column read off
        the column before it."""
        f0 = rhs(tau, y)
        row = []
        for j, n in enumerate(STEPS):
            prev, row = row, [midpoint(tau, y, f0, h, n)]
            for m in range(j):
                ratio = (mpf(n) / STEPS[j - m - 1]) ** 2 - 1
                row.append(tuple(a + (a - b) / ratio for a, b in zip(row[m], prev[m])))
        err = max(abs(a - b) / (tol * (1 + abs(a))) for a, b in zip(row[-1], row[-2]))
        grow = mpf("0.9") * max(err, eps) ** (-mpf(1) / (2 * len(STEPS) - 1))
        return row[-1] if err <= 1 else None, h * min(4, max(mpf("0.2"), grow))

    def step(tau, y, h):
        """(h, end, next step): a GBS step of h, retried shorter until it
        passes; h is the length taken."""
        while True:
            try:
                end, nxt = gbs(tau, y, h)
            except _Reject:
                end, nxt = None, h / 2
            if end is not None:
                return h, end, nxt
            if abs(nxt) < eps * (1 + abs(tau)):
                raise RuntimeError(f"step underflow at tau = {tau}")
            h = nxt

    g = mp.exp(E_START)
    tau, y = mpf(0), (-g / 4, -g / 2)
    h = mpf(1)
    side = 1  # the sign u has until its next zero
    zeros = 0
    while True:
        h, end, nxt = step(tau, y, h)
        if (s + end[0]) * side > 0:
            tau, y, h = tau + h, end, nxt
            continue
        # land on the zero, which lies within hi of tau: a secant on the
        # step length; a trial that stays short of the zero is kept, one
        # that passes it becomes the new hi.  Near the zero alpha |u|^beta
        # is not smooth, so the error test may cut a trial short: that is
        # progress too.
        hi, u_hi, after = h, s + end[0], nxt
        for _ in range(500):
            u0 = s + y[0]
            c = hi * u0 / (u0 - u_hi)
            if not 0 < c < hi:
                c = hi / 2
            if c <= land * (1 + abs(tau)) or hi <= land * (1 + abs(tau)):
                break
            h, end, nxt = step(tau, y, c)
            if (s + end[0]) * side > 0:
                tau, y, hi = tau + h, end, hi - h
            else:
                hi, u_hi = h, s + end[0]
        else:
            raise RuntimeError(f"zero {zeros + 1} not landed at tau = {tau}")
        zeros += 1
        if zeros == k + 1:
            return 2 * (t0 + tau + c)
        # u = 0 on the zero, so that the next step starts on no side
        tau, y, h = tau + c, (-s, y[1]), after
        side = -side


def _read_table():
    with open(TABLE, newline="") as fh:
        return list(csv.DictReader(fh))


def _point(row):
    return (int(row["k"]), float(row["alpha"]), float(row["beta"]),
            float.fromhex(row["s"]))


def check(rows) -> int:
    """Recompute the given table rows; 1 unless each matches to AGREE."""
    table = _read_table()
    status = 0
    for i in rows:
        row = table[i]
        t = time.perf_counter()
        with mp.workdps(30):
            got = ln_lambda(*_point(row))
            diff = abs(got - mpf(row["ln_lambda"]))
            ok = diff <= AGREE
        status |= not ok
        print(f"row {i} {_point(row)}: |recomputed - stored| = "
              f"{mp.nstr(diff, 3)} ({'ok' if ok else 'FAILS'} at "
              f"{mp.nstr(AGREE, 1)}), {time.perf_counter() - t:.1f} s")
    return status


def generate() -> int:
    """Compute every point, check it at 34 digits, write TABLE; 1 on a miss."""
    rows, status = [], 0
    for point in POINTS:
        t = time.perf_counter()
        value = ln_lambda(*point)
        fine = ln_lambda(*point, dps=34, tol="1e-28")
        with mp.workdps(34):
            diff = abs(value - fine)
            ok = diff <= AGREE
        status |= not ok
        print(f"{point}: ln lambda = {mp.nstr(value, DIGITS)}, |30 - 34 digits| = "
              f"{mp.nstr(diff, 3)}{'' if ok else ' FAILS'}, "
              f"{time.perf_counter() - t:.1f} s")
        k, alpha, beta, s = point
        rows.append((k, repr(alpha), repr(beta), s.hex(), mp.nstr(value, DIGITS)))
    if status:
        print("not written: a point misses the 34-digit run")
        return status
    TABLE.parent.mkdir(exist_ok=True)
    with open(TABLE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--check"]:
        sys.exit(check([int(i) for i in args[1:]]))
    sys.exit(generate())
