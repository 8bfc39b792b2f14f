"""Nodal decomposition, energy evaluation, and residual checks.

Every check here is an exact identity or bound for exact solutions: the
per-domain Nehari identity (dirichlet == nehari), the log-weighted peak
identity, the first integral r*u'(r) = -int_0^r lambda f(u) s ds at the
nodal radii, and a Sturm-type bound on the zero count after a Liouville
change of variables.  solutions.csv carries the whole-disk Nehari and the
largest peak-identity residual; only the tests run the others.

decompose yields each nodal domain's energy integrals only; the domain's
sign, peak and radii are read from the RadialSolution that owns them.
The domain energies int(... r dr) are read from the augmented trajectory
channels at the refined zeros, the potential as -q_flux/2; the other
integrals run adaptive quadrature on the dense interpolant, in log
radius, where the concentrated mass is spread out.  Radii are read as log
radii throughout: the inner radii of a deep solution underflow binary64.
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


# cap on the initial partition taken from the accepted steps
_MAX_SEED_INTERVALS = 256


def _thinned(bounds) -> list:
    """Every n-th step bound, n the least that keeps at most
    _MAX_SEED_INTERVALS of them."""
    return bounds[::-(-len(bounds) // _MAX_SEED_INTERVALS) or 1]


def _log_weighted_integral(sol: RadialSolution, t_lo: float, t_hi: float,
                           weight) -> float:
    """int lambda*f(u(r)) * weight * r dr over ln r in (t_lo, t_hi), i.e.
    int sign(u) exp(E(t)) * weight(t) dt; weight is affine in t.

    The partition is seeded from the accepted steps: a concentrated bubble
    is O(1) wide in t but may sit ~s^2/2 away from the far end, where a
    uniform start would step over it.
    """
    traj = sol.trajectory
    lo = max(t_lo, traj.t_start)
    val = adaptive_quadrature(lambda t: traj.source_log(t) * weight(t), lo, t_hi,
                              rel_tol=1e-9, breakpoints=_thinned(traj.log_step_bounds()))
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
    """max over the nodal radii of |int_0^{r_i} lambda f(u) s ds + r_i u'(r_i)|
    / |r_i u'(r_i)|, by quadrature: every step conserves r*u' + e_src exactly."""
    return max(abs(_log_weighted_integral(sol, -math.inf, t, lambda _: 1.0) + ru)
               / abs(ru) for t, ru in zip(sol.log_nodal_radii, sol.boundary_ru))


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
    Returns (bound_rhs, holds).  Requires k >= 1.
    """
    if sol.k < 1:
        raise ValueError("the zero-count bound needs a nodal solution (k >= 1)")
    # innermost usable radius: second zero when available, else the first
    ln_lo = sol.log_nodal_radii[1] if sol.k >= 2 else sol.log_nodal_radii[0]
    # zeros of v in (a, 1], including the boundary zero r_{k+1} = 1
    zero_count = sum(1 for t in sol.log_nodal_radii if t > ln_lo)
    a = 1.0 / (1.0 - ln_lo)
    b = 1.0
    traj = sol.trajectory
    p = sol.params

    def q(rr):
        t = 1.0 - 1.0 / rr  # ln of the radius; ln(e/t) = 1/rr
        u = traj.u_log(t)
        # t^2 * lambda * f(u)/u, combined in one exponent
        e = 2.0 * t + p.log_lambda + u * u + p.alpha * abs(u) ** p.beta
        return math.exp(min(e, 700.0)) / rr ** 4

    # seed the partition with 8 equal parts and the accepted steps, mapped
    # to rr = 1/(1 - t)
    bounds = [1.0 / (1.0 - t) for t in traj.log_step_bounds() if ln_lo < t < 0.0]
    seeds = sorted(set(_thinned(bounds) + [a + j * (b - a) / 8 for j in range(1, 8)]))
    integral = adaptive_quadrature(q, a, b, rel_tol=1e-8, breakpoints=seeds)
    bound = 0.5 * math.sqrt((b - a) * integral) + 1.0
    return bound, zero_count < bound
