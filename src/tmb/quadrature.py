"""Globally adaptive Gauss-Kronrod quadrature (G7/K15 pair, interval
bisection): the package's one quadrature rule.

A priority queue keeps the interval with the worst error estimate on top;
refinement bisects it until the summed error estimate meets the tolerance.
Deterministic: ties break on insertion order.
"""

from __future__ import annotations

import heapq

from .errors import QuadratureFailureError

MAX_INTERVALS = 4000  # interval budget of one adaptive_quadrature call
MAX_DEPTH = 40  # bisection depth limit of one interval

# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed nodes.  Standard QUADPACK values.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(f, a: float, b: float):
    """Return (kronrod_value, error_estimate) for f on [a, b]."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    result_g = _WG[3] * fc
    result_k = _WGK[7] * fc
    for j in range(7):
        x = half * _XGK[j]
        f1 = f(center - x)
        f2 = f(center + x)
        s = f1 + f2
        result_k += _WGK[j] * s
        if j % 2 == 1:  # nodes 1, 3, 5 carry the Gauss weights 0, 1, 2
            result_g += _WG[(j - 1) // 2] * s
    result_k *= half
    result_g *= half
    return result_k, abs(result_k - result_g)


def adaptive_quadrature(f, a: float, b: float, rel_tol: float = 1e-10,
                        breakpoints=None) -> float:
    """Integrate f over [a, b] to the requested tolerance.

    `breakpoints` (increasing) seeds the refinement with the given
    partition; the points outside (a, b) are ignored.  A seed is needed
    when the integrand is a narrow bump a single 15-point rule would step
    over (its error estimate would vanish spuriously).

    Raises QuadratureFailureError when bisection depth (MAX_DEPTH) or the
    interval budget is exhausted before `sum(errors) <= rel_tol*|I|`.
    """
    if a == b:
        return 0.0
    # heap entries: (-error, tie, depth, a, b, value, error)
    edges = [a] + [x for x in breakpoints or () if a < x < b] + [b]
    tie = 0
    heap = []
    total = 0.0
    total_err = 0.0
    for ia, ib in zip(edges, edges[1:]):
        val, err = _gk15(f, ia, ib)
        heap.append((-err, tie, 0, ia, ib, val, err))
        tie += 1
        total += val
        total_err += err
    heapq.heapify(heap)
    n_intervals = len(edges) - 1
    while total_err > rel_tol * abs(total):
        neg_err, _, depth, ia, ib, ival, ierr = heapq.heappop(heap)
        if depth >= MAX_DEPTH:
            raise QuadratureFailureError(
                f"bisection depth {MAX_DEPTH} exhausted on [{ia!r}, {ib!r}] "
                f"(error estimate {ierr:.3e}, total {total!r})"
            )
        if n_intervals >= MAX_INTERVALS:
            raise QuadratureFailureError(
                f"interval budget {MAX_INTERVALS} exhausted (error {total_err:.3e})"
            )
        mid = 0.5 * (ia + ib)
        if mid <= ia or mid >= ib:
            raise QuadratureFailureError(
                f"interval [{ia!r}, {ib!r}] no longer splittable at depth {depth}"
            )
        v1, e1 = _gk15(f, ia, mid)
        v2, e2 = _gk15(f, mid, ib)
        total += (v1 + v2) - ival
        total_err += (e1 + e2) - ierr
        n_intervals += 1
        tie += 1
        heapq.heappush(heap, (-e1, tie, depth + 1, ia, mid, v1, e1))
        tie += 1
        heapq.heappush(heap, (-e2, tie, depth + 1, mid, ib, v2, e2))
    return total

