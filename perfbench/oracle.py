"""Independent reference for lambda(s), the eigenvalue of the k-nodal
radial solution with central amplitude s.

At lambda = 1 the radial equation -u'' - u'/r = u exp(u^2 + alpha |u|^beta)
becomes, in t = ln r,  u_tt = -sign(u) exp(E) with
E = 2t + ln|u| + u^2 + alpha |u|^beta.  The integration starts at the t0
where E = -40 (u = s to machine precision there) and carries the shifted
time tau = t - t0 and the deviation delta = u - s, so that

    E = -40 + 2 tau + ln|u/s| + delta (2s + delta) + alpha (|u|^beta - s^beta)

never subtracts two huge numbers.  lambda(s) = r_{k+1}^2, where r_{k+1}
is the (k+1)-th zero of u.  scipy's DOP853 does the stepping; this code
shares nothing with the tmb integrator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

E_START = -40.0


def lambda_reference(s: float, k: int, alpha: float, beta: float,
                     rtol: float = 1e-13) -> float:
    """lambda(s) for the k-nodal class, from a DOP853 solve at rtol."""
    sb = s ** beta
    t0 = 0.5 * (E_START - math.log(s) - s * s - alpha * sb)

    def rhs(tau, y):
        d, v = y
        u = s + d
        if u == 0.0:
            return (v, 0.0)
        e = (E_START + 2.0 * tau + math.log(abs(u) / s) + d * (2.0 * s + d)
             + alpha * (abs(u) ** beta - sb))
        # a rejected trial stage can overshoot; any E this large fails the
        # error test, so clipping it only shortens the retry
        return (v, -math.copysign(math.exp(min(e, 700.0)), u))

    def zero(tau, y):
        return s + y[0]

    zero.terminal = k + 1
    # series start: u = s - g r^2/4, with g r0^2 = exp(E_START)
    g = math.exp(E_START)
    # rejected trial steps may overflow to inf; they fail the error test
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, 1e4), (-0.25 * g, -0.5 * g), method="DOP853",
                        rtol=rtol, atol=rtol * 1e-2, events=zero)
    taus = sol.t_events[0]
    if len(taus) < k + 1:
        raise RuntimeError(f"reference found {len(taus)} zero(s) for s={s!r}, "
                           f"needs {k + 1}")
    return math.exp(2.0 * (t0 + taus[k]))
