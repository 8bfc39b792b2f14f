"""Blow-up rescaling diagnostics.

A concentrating nodal domain, rescaled by its peak data, approaches the
radial Liouville profile

    z(r) = ln(64 / (8 + r^2)^2),   -z'' - z'/r = e^z,  int e^z r dr = 4,

with first-order correction phi/mu^(2-beta),

    phi(r) = alpha*beta_lim*(ln(8 + r^2) + 8/(8 + r^2) - 1 - ln 8).

rescale_profile reads u and r*u' once at each PROFILE_GRID point of a
domain's window: it builds the rescaled samples z_n, measures their
deviation from z, fits the correction coefficient to the samples inside
FIT_WINDOW, and checks the two-sided monotone derivative bound that holds
for every rescaled solution.

The scale gamma and the peak radius rho underflow binary64 once mu is
past ~38, so both are carried as logarithms: the window point
ln(gamma*r + rho) is ln gamma + ln r on the first domain and
ln rho + log1p(r*gamma/rho) on the others, and the trajectory is read
by log radius there.
"""

from __future__ import annotations

import math

from .errors import WindowTooLargeError
from .nonlinearity import ProblemParams
from .records import record
from .shooting import RadialSolution

PROFILE_WINDOW = 6.0
# 61 uniform samples on [0, PROFILE_WINDOW]: the profile CSVs' r column
PROFILE_GRID = tuple(j * (PROFILE_WINDOW / 60) for j in range(61))
FIT_WINDOW = (0.5, 6.0)  # the samples the correction coefficient is fitted on
BOUND_SLACK = 1e-6  # absorbs interpolation roundoff in the derivative bound
_LN64 = math.log(64.0)
_LN8 = math.log(8.0)


@record
class BubbleDiagnostics:
    """Rescaled profile samples and correction fit for one domain."""

    samples: tuple             # (r, z_n, z, phi) rows on PROFILE_GRID
    sup_deviation: float       # max over the window of |z_n - z|
    corr_coefficient: float    # least-squares c in z_n - z ~ c*phi
    predicted_coefficient: float  # 1/mu^(2-beta)
    derivative_bound_holds: bool  # the two-sided bound on z_n' at every sample

    @property
    def coefficient_ratio(self) -> float:
        return self.corr_coefficient / self.predicted_coefficient


def log_gamma_scale(mu: float, p: ProblemParams) -> float:
    """ln gamma, gamma = (2*lambda*mu*f(mu))^(-1/2); finite at every mu > 0."""
    if not (mu > 0.0):
        raise ValueError(f"peak value must be positive, got {mu!r}")
    return -0.5 * (math.log(2.0) + p.log_lambda + 2.0 * math.log(mu)
                   + mu * mu + p.alpha * mu ** p.beta)


def _window_point(log_gamma: float, log_rho: float, rr: float) -> float:
    """ln(gamma*rr + rho): the log radius the rescaled radius rr >= 0 maps
    to (-inf for rr = 0 at an origin peak)."""
    if log_rho == -math.inf:  # origin peak, rho = 0
        return log_gamma + math.log(rr) if rr > 0.0 else -math.inf
    return log_rho + math.log1p(rr * math.exp(log_gamma - log_rho))


def liouville_reference(r: float, beta_star: float, alpha: float) -> tuple:
    """(z(r), phi(r)): the limit profile and its first-order correction."""
    q = 8.0 + r * r
    z = _LN64 - 2.0 * math.log(q)
    phi = alpha * beta_star * (math.log(q) + 8.0 / q - 1.0 - _LN8)
    return z, phi


def rescale_profile(sol: RadialSolution, i: int) -> BubbleDiagnostics:
    """Sample z_n(r) = 2*mu_i*(|u|(gamma_i r + rho_i) - mu_i) on PROFILE_GRID
    and check the two-sided monotone bound on the rescaled derivative,

        0 <= -z_n'(r) <= (r^2/2 + (rho/gamma)*r) / (r + rho/gamma),

    z_n' read as 2*mu*sign*(r*u')/(r + rho/gamma) at the same window point,
    and 0 at the origin peak; each side is relaxed by BOUND_SLACK.

    Every radius is handled as a log radius, so the window is placed at
    any depth.  ValueError unless i indexes a nodal domain; the window
    must stay inside the nodal domain, else WindowTooLargeError.
    """
    sol.check_domain(i)
    mu, sign = sol.peak_values[i - 1], sol.domain_sign(i)
    log_gamma = log_gamma_scale(mu, sol.params)
    log_rho = sol.log_peak_radii[i - 1]
    t_hi = _window_point(log_gamma, log_rho, PROFILE_GRID[-1])
    log_outer = sol.log_nodal_radii[i - 1]
    if t_hi >= log_outer:
        raise WindowTooLargeError(
            f"window reaches log radius {t_hi!r}, outside domain "
            f"(..., {log_outer!r})")
    traj = sol.trajectory
    m = math.exp(log_rho - log_gamma)  # rho/gamma
    beta, alpha = sol.params.beta, sol.params.alpha
    samples = []
    bound_holds = True
    for rr in PROFILE_GRID:
        u, ru = traj.eval_log(_window_point(log_gamma, log_rho, rr))[:2]
        # z_n is 0 by definition at the peak
        zv = 2.0 * mu * (sign * u - mu) if rr > 0.0 else 0.0
        samples.append((rr, zv, *liouville_reference(rr, beta, alpha)))
        denom = rr + m
        zp = 2.0 * mu * sign * ru / denom if denom > 0.0 else 0.0
        bound = (0.5 * rr * rr + m * rr) / denom if denom > 0.0 else 0.0
        bound_holds = bound_holds and -BOUND_SLACK <= -zp <= bound + BOUND_SLACK
    sup_dev = max(abs(zv - zr) for _, zv, zr, _ in samples)
    # least-squares c on the samples inside FIT_WINDOW
    flo, fhi = FIT_WINDOW
    num = 0.0
    den = 0.0
    for rr, zv, zr, ph in samples:
        if flo <= rr <= fhi:
            num += ph * (zv - zr)
            den += ph * ph
    corr = num / den if den > 0.0 else math.nan
    return BubbleDiagnostics(
        samples=tuple(samples),
        sup_deviation=sup_dev,
        corr_coefficient=corr,
        predicted_coefficient=mu ** (sol.params.beta - 2.0),
        derivative_bound_holds=bound_holds,
    )
