"""Blow-up rescaling diagnostics.

A concentrating nodal domain, rescaled by its peak data, approaches the
radial Liouville profile

    z(r) = ln(64 / (8 + r^2)^2),   -z'' - z'/r = e^z,  int e^z r dr = 4,

with first-order correction phi/mu^(2-beta),

    phi(r) = alpha*beta_lim*(ln(8 + r^2) + 8/(8 + r^2) - 1 - ln 8).

This module builds the rescaled samples z_n (on PROFILE_GRID unless told
otherwise), measures the deviation from z, fits the correction
coefficient to the samples inside FIT_WINDOW, and verifies the two-sided
monotone derivative bounds that hold for every rescaled solution.

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
BOUND_SLACK = 1e-6  # absorbs interpolation roundoff in derivative_bound_check
_LN64 = math.log(64.0)
_LN8 = math.log(8.0)


@record
class BubbleDiagnostics:
    """Rescaled profile samples and correction fit for one domain."""

    samples: tuple             # (r, z_n(r)) pairs on the requested grid
    sup_deviation: float       # max over the window of |z_n - z|
    corr_coefficient: float    # least-squares c in z_n - z ~ c*phi
    predicted_coefficient: float  # 1/mu^(2-beta)

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
    """ln(gamma*rr + rho): the log radius the rescaled radius rr maps to
    (-inf at or below the origin)."""
    if log_rho == -math.inf:  # origin peak, rho = 0
        return log_gamma + math.log(rr) if rr > 0.0 else -math.inf
    x = rr * math.exp(log_gamma - log_rho)
    return log_rho + math.log1p(x) if x > -1.0 else -math.inf


def liouville_reference(r: float, beta_star: float, alpha: float) -> tuple:
    """(z(r), phi(r)): the limit profile and its first-order correction."""
    q = 8.0 + r * r
    z = _LN64 - 2.0 * math.log(q)
    phi = alpha * beta_star * (math.log(q) + 8.0 / q - 1.0 - _LN8)
    return z, phi


def rescale_profile(sol: RadialSolution, i: int,
                    grid=PROFILE_GRID) -> BubbleDiagnostics:
    """Sample z_n(r) = 2*mu_i*(|u|(gamma_i r + rho_i) - mu_i) on the grid.

    Every radius is handled as a log radius, so the window is placed at
    any depth.  The grid may contain negative entries for i >= 2 (inward
    window); it must stay inside the nodal domain, else WindowTooLargeError.
    """
    sol.check_domain(i)
    mu = sol.peak_values[i - 1]
    log_rho = sol.log_peak_radii[i - 1]
    log_gamma = log_gamma_scale(mu, sol.params)
    log_outer = sol.log_nodal_radii[i - 1]

    def t_of(rr):
        return _window_point(log_gamma, log_rho, rr)

    lo, hi = min(grid), max(grid)
    t_hi = t_of(hi)
    if t_hi >= log_outer:
        raise WindowTooLargeError(
            f"window reaches log radius {t_hi!r}, outside domain "
            f"(..., {log_outer!r})")
    if (lo < 0.0) if i == 1 else (t_of(lo) <= sol.log_nodal_radii[i - 2]):
        raise WindowTooLargeError(
            f"window reaches rescaled radius {lo!r}, inside the inner edge "
            f"of domain {i}")
    traj = sol.trajectory
    sign = sol.domain_sign(i)

    def z_n(rr):
        if rr == 0.0:
            return 0.0  # definition evaluated at the peak
        return 2.0 * mu * (sign * traj.u_log(t_of(rr)) - mu)

    samples = tuple((rr, z_n(rr)) for rr in grid)
    sup_dev = max(abs(zv - liouville_reference(rr, sol.params.beta,
                                               sol.params.alpha)[0])
                  for rr, zv in samples)
    # least-squares c on the samples inside FIT_WINDOW
    flo, fhi = FIT_WINDOW
    num = 0.0
    den = 0.0
    for rr, zv in samples:
        if flo <= rr <= fhi:
            zr, ph = liouville_reference(rr, sol.params.beta, sol.params.alpha)
            num += ph * (zv - zr)
            den += ph * ph
    corr = num / den if den > 0.0 else math.nan
    return BubbleDiagnostics(
        samples=samples,
        sup_deviation=sup_dev,
        corr_coefficient=corr,
        predicted_coefficient=mu ** (sol.params.beta - 2.0),
    )


def derivative_bound_check(diag: BubbleDiagnostics, sol: RadialSolution,
                           i: int) -> bool:
    """Two-sided monotone bound on the rescaled derivative.

    For r >= 0:  0 <= -z_n'(r) <= (r^2/2 + (rho/gamma)*r) / (r + rho/gamma),
    mirrored for r < 0 when the window extends inward (i >= 2).  z_n' is
    read as 2*mu*sign*(r*u')/(r + rho/gamma) at the window point, and is 0
    at the origin peak.  Each side is relaxed by BOUND_SLACK.
    """
    mu = sol.peak_values[i - 1]
    log_rho = sol.log_peak_radii[i - 1]
    log_gamma = log_gamma_scale(mu, sol.params)
    m = math.exp(log_rho - log_gamma)
    sign = sol.domain_sign(i)
    traj = sol.trajectory
    for rr, _ in diag.samples:
        denom = rr + m
        if rr < 0.0 and denom <= 0.0:
            continue  # outside the transform's validity
        ru = traj.ru_log(_window_point(log_gamma, log_rho, rr))
        zp = 2.0 * mu * sign * ru / denom if denom > 0.0 else 0.0
        if rr >= 0.0:
            bound = (0.5 * rr * rr + m * rr) / denom if denom > 0.0 else 0.0
            if not (-BOUND_SLACK <= -zp <= bound + BOUND_SLACK):
                return False
        else:
            bound = -(0.5 * rr * rr + m * rr) / denom
            if not (-BOUND_SLACK <= zp <= bound + BOUND_SLACK):
                return False
    return True
