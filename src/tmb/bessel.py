"""First-kind Bessel function of order zero, its zeros, and the radial
Dirichlet eigenpairs of the disk.

j0 uses the power series for |r| <= 8.  Beyond the crossover the truncated
Hankel expansion bottoms out near 1e-8 in binary64, which would break the
1e-13 accuracy contract, so that branch is delegated to scipy's j0
(Cephes rational asymptotics of the same Hankel type).  Zero finding is a
McMahon seed polished by safeguarded Newton on this j0.

scipy is imported only inside those x > 8 branches: the solver never
calls Bessel, so `import tmb` does not load it.  It stays the runtime
dependency of `tmb bessel` and of the eigenpairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SERIES_CUTOFF = 8.0
MAX_EIGENPAIR_INDEX = 20


@dataclass(frozen=True)
class Eigenpair:
    """k-th radial Dirichlet eigenpair of the disk: lambda_k = t_k^2."""

    k: int
    t_k: float
    lambda_k: float


def j0(r: float) -> float:
    """J_0(r), accurate to 1e-13 absolute for |r| <= 50; even in r."""
    x = abs(r)
    if x <= _SERIES_CUTOFF:
        # sum_j (-1)^j (x/2)^{2j} / (j!)^2, run to term underflow
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        j = 0
        while True:
            j += 1
            term *= -q / (j * j)
            total += term
            if abs(term) < 1e-18 * (1.0 + abs(total)) or j > 80:
                return total
    import scipy.special  # only past the series cutoff: keeps `import tmb` light

    return float(scipy.special.j0(x))


def j0_prime(r: float) -> float:
    """d/dr J_0(r) = -J_1(r); odd in r."""
    x = abs(r)
    if x <= _SERIES_CUTOFF:
        # -J_1 series: -(x/2) sum_j (-1)^j (x/2)^{2j} / (j! (j+1)!)
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        j = 0
        while True:
            j += 1
            term *= -q / (j * (j + 1))
            total += term
            if abs(term) < 1e-18 * (1.0 + abs(total)) or j > 80:
                break
        val = -0.5 * x * total
    else:
        import scipy.special

        val = -float(scipy.special.j1(x))
    return val if r >= 0.0 else -val


def _mcmahon_seed(k: int) -> float:
    b = (k - 0.25) * math.pi
    return b + 1.0 / (8.0 * b)


_zero_cache: dict = {}


def j0_zero(k: int) -> Eigenpair:
    """k-th positive zero of J_0 (1 <= k <= 20), to ~1e-12."""
    if not (1 <= k <= MAX_EIGENPAIR_INDEX):
        raise ValueError(f"k must be in [1, {MAX_EIGENPAIR_INDEX}], got {k!r}")
    hit = _zero_cache.get(k)
    if hit is not None:
        return hit
    seed = _mcmahon_seed(k)
    lo, hi = seed - 0.5, seed + 0.5
    flo, fhi = j0(lo), j0(hi)
    # the McMahon seed is within ~1e-3 of the zero; widen defensively
    widen = 0
    while flo * fhi > 0.0 and widen < 6:
        lo -= 0.25
        hi += 0.25
        flo, fhi = j0(lo), j0(hi)
        widen += 1
    if flo * fhi > 0.0:
        raise RuntimeError(f"failed to bracket zero {k} near {seed!r}")
    t = seed
    for _ in range(60):
        ft = j0(t)
        if ft == 0.0:
            break
        # keep the bracket current
        if flo * ft < 0.0:
            hi = t
        else:
            lo, flo = t, ft
        dft = j0_prime(t)
        step = ft / dft if dft != 0.0 else math.inf
        t_new = t - step
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-14 * t:
            t = t_new
            break
        t = t_new
    pair = Eigenpair(k=k, t_k=t, lambda_k=t * t)
    _zero_cache[k] = pair
    return pair


def eigenpairs(n: int) -> list[Eigenpair]:
    """The first n eigenpairs, in increasing order."""
    return [j0_zero(k) for k in range(1, n + 1)]


def eigenfunction(k: int, r: float) -> float:
    """phi_k(r) = J_0(t_k r): k-th radial eigenfunction, phi_k(0) = 1."""
    return j0(j0_zero(k).t_k * r)
