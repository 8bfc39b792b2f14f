"""Nodal decomposition, energy evaluation, and residual checks.

Every check here is an exact identity or bound for exact solutions: the
per-domain Nehari identity (dirichlet == nehari), the log-weighted peak
identity, the first integral r*u'(r) = -int_rho^r lambda f(u) s ds from
each domain's peak rho, where r u' vanishes, and a Sturm-type bound on the
zero count after a Liouville change of variables.  solutions.csv carries
the whole-disk Nehari and the largest peak-identity residual; only the
tests run the others.

All four certificates read the trajectory's own forcing or channels, and
no formula for f is restated here.  decompose and the Nehari identity read
the augmented channels at the refined zeros (the potential as -q_flux/2);
the peak identity, the first integral and the Sturm bound integrate the
forcing in log radius, where the concentrated mass is spread out: each
covering step in its own frame-local x, one tolerance over all pieces
(source_pieces, adaptive_quadrature).  A domain's sign, peak and radii are read
from the RadialSolution that owns them.  Radii are read as log radii
throughout: the inner radii of a deep solution underflow binary64.
"""

from __future__ import annotations

import math

from .quadrature import adaptive_quadrature
from .records import record
from .shooting import RadialSolution

TWO_PI = 2.0 * math.pi


@record
class NodalDomain:
    """The energies of one sign region of a nodal solution: int |grad u|^2,
    int lambda*f(u)*u and int lambda*F(u), each over the domain with the
    weight r dr.  Its index, sign, peak and radii are the solution's
    (domain_sign, peak_values, log_peak_radii, log_nodal_radii,
    boundary_slopes)."""

    dirichlet: float
    nehari: float
    potential: float


def decompose(sol: RadialSolution) -> list[NodalDomain]:
    """The energies of the k+1 nodal domains, innermost first.

    Per-domain integrals are differences of the running trajectory
    channels at the refined zeros; the channels vanish at the origin.  At a
    zero the running potential lambda * int F(u) s ds is -q_flux/2 (see ode).
    """
    domains = []
    prev = (0.0, 0.0, 0.0)  # the channels at the inner boundary
    for t in sol.log_nodal_radii:
        _, _, e_dir, e_neh, q_flux, _ = sol.trajectory.eval_log(t)
        cur = (e_dir, e_neh, -0.5 * q_flux)
        domains.append(NodalDomain(*(c - q for c, q in zip(cur, prev))))
        prev = cur
    return domains


def energy_report(domains) -> float:
    """The energy functional (1/2) int_B |grad u|^2 - int_B lambda*F(u) of
    decompose's domains."""
    full = TWO_PI * sum(d.dirichlet for d in domains)
    potential = TWO_PI * sum(d.potential for d in domains)
    return 0.5 * full - potential


def _log_weighted_integral(sol: RadialSolution, t_lo: float, t_hi: float,
                           weight) -> float:
    """int lambda*f(u(r)) * weight * r dr over ln r in (t_lo, t_hi), i.e.
    int sign(u) exp(E(t)) * weight(t) dt.  weight must be affine in t only
    when t_lo lies below the first step, where the analytic head is added.

    Each covering step is one piece in its own frame-local x, one tolerance
    over all pieces: a bubble O(1) wide in t may sit ~s^2/2 from the far
    end, where t is rounded to ulp(s^2/2).  weight reads t = x + dt, to a
    relative ulp(t)/|t|.
    """
    traj = sol.trajectory
    pieces = [(lambda x, g=g, dt=dt: g(x) * weight(x + dt), a, b)
              for g, a, b, dt in traj.source_pieces(max(t_lo, traj.t_start), t_hi)]
    val = adaptive_quadrature(pieces, rel_tol=1e-9)
    if t_lo < traj.t_start:
        # analytic head before the first step, where the source is
        # exp(E_start + 2(t - t_start)):  int_-inf^ts e^(2(t-ts)) w(t) dt
        # = w(ts - 1/2)/2, exact for affine weights
        ts = traj.t_start
        val += 0.5 * traj.source_log(ts) * weight(ts - 0.5)
    return val


def identity_residual(sol: RadialSolution, i: int) -> float:
    """Relative residual of the log-weighted peak identity on domain i.

    Outer form:  mu_i = int_{rho_i}^{r_i} lambda f(u) r ln(r_i/r) dr.
    For i >= 2 the inner form (weight ln(r/r_{i-1}) on [r_{i-1}, rho_i])
    is checked too and the larger residual is returned.
    """
    sol.check_domain(i)
    mu = sol.peak_values[i - 1]
    t_rho = sol.log_peak_radii[i - 1]
    t_i = sol.log_nodal_radii[i - 1]
    outer = _log_weighted_integral(sol, t_rho, t_i, lambda t: t_i - t)
    res = abs(abs(outer) - mu) / mu
    if i >= 2:
        t_im1 = sol.log_nodal_radii[i - 2]
        inner = _log_weighted_integral(sol, t_im1, t_rho, lambda t: t - t_im1)
        res = max(res, abs(abs(inner) - mu) / mu)
    return res


def first_integral_residual(sol: RadialSolution) -> float:
    """max over the domains of |int_{rho_i}^{r_i} lambda f(u) s ds + r_i u'(r_i)|
    / |r_i u'(r_i)|, by quadrature from each peak rho_i (rho_1 = 0), where r u'
    vanishes; the inner halves (r_{i-1}, rho_i) are left to the peak identity."""
    return max(abs(_log_weighted_integral(sol, t_rho, t, lambda _: 1.0) + ru) / abs(ru)
               for t_rho, t, ru in zip(sol.log_peak_radii, sol.log_nodal_radii,
                                       sol.boundary_ru))


def boundary_flux(sol: RadialSolution, i: int) -> float:
    """mu_i * r_i * |u'(r_i)| (tends to 2 on concentrating domains)."""
    sol.check_domain(i)
    return sol.peak_values[i - 1] * abs(sol.boundary_ru[i - 1])


def nehari_residual(sol: RadialSolution) -> float:
    """|sum dirichlet - sum nehari| / sum dirichlet over all domains."""
    _, _, e_dir, e_neh, _, _ = sol.trajectory.eval_log(sol.log_nodal_radii[-1])
    if e_dir <= 0.0:
        raise ValueError("degenerate solution: no Dirichlet energy")
    return abs(e_dir - e_neh) / e_dir


def sturm_bound_check(sol: RadialSolution) -> tuple:
    """Zero-count bound after the Liouville transform r = 1/(1 - ln t).

    With v(r) = r*u(t), t = exp(1 - 1/r), the transformed equation is
    v'' + q v = 0 with q(r) = t^2 (ln(e/t))^4 lambda f(u(t))/u(t) >= 0.
    If v has m zeros in (a, b], then m < ((b-a) int_a^b q)^(1/2)/2 + 1.
    int_a^1 q dr is taken in log radius, where q dr = lambda f(u)/u *
    r^2 (1 - ln r)^2 d(ln r).  Returns (bound_rhs, holds).  Requires k >= 1.
    """
    if sol.k < 1:
        raise ValueError("the zero-count bound needs a nodal solution (k >= 1)")
    # innermost usable radius: second zero when available, else the first
    ln_lo = sol.log_nodal_radii[1] if sol.k >= 2 else sol.log_nodal_radii[0]
    # zeros of v in (a, 1], including the boundary zero r_{k+1} = 1
    zero_count = sum(1 for t in sol.log_nodal_radii if t > ln_lo)
    u_log = sol.trajectory.u_log
    integral = _log_weighted_integral(sol, ln_lo, 0.0,
                                      lambda t: (1.0 - t) ** 2 / u_log(t))
    bound = 0.5 * math.sqrt((1.0 - 1.0 / (1.0 - ln_lo)) * integral) + 1.0
    return bound, zero_count < bound
