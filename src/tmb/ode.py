"""Adaptive integration of the radial equation -u'' - u'/r = lambda*f(u)
from the origin to the n-th zero of u, in the log radius t = ln r, with
dense output, event detection, and augmented quadrature states for the
energy integrals.

In t the equation reads

    u_tt = -sign(u) exp(E),   E = 2t + ln(lambda) + ln|u| + u^2 + alpha*|u|^beta,

and E stays O(1) wherever the dynamics matter.  No overflow budget is
needed: an exponent far above O(1) only occurs in trial stages that the
error test rejects, so it is clipped there.

State vector (6 components, log-radius form):

    y = (u, u_t, e_dir, e_neh, q_flux, e_src)

    u, u_t   solution value and r*u'(r)
    e_dir    running integral of u'(s)^2 * s ds         = int u_t^2 dt
    e_neh    running integral of lambda*u*f(u) * s ds   = int |u| e^E dt
    q_flux   running integral of lambda*f(u)*u' * s^2 ds = int sign(u) e^E u_t dt;
             by parts, lambda * int F(u) s ds = lambda*F(u(r))*r^2/2 - q_flux/2,
             and the boundary term vanishes at zeros of u
    e_src    running integral of lambda*f(u) * s ds     = int sign(u) e^E dt
             (first integral: r*u'(r) + e_src(r) = 0, zero flux at the origin)

Three stretches, each in the variables that keep it accurate:

1. The first bubble.  The start t0 is where E = -40 (never later than
   r = 1e-6); there u = s to machine precision, so no series is needed.
   The frame carries tau = t - t0 and the deviation D = Z - Z_L of
   Z = K*(u - s) from the closed-form Liouville bubble

       Z_L(tau) = -2 ln(1 + K exp(E0 + 2 tau)/8),
       K = 2s + 1/s + alpha*beta*s^(beta-1)   (dE/du at u = s),

   which solves Z'' = -K exp(E0 + 2 tau + Z).  Then D'' = Z_L'' expm1(D + R),
   with R the nonlinear remainder of E in u - s, evaluated with log1p and
   expm1: no u^2 is formed from two huge numbers, and the absolute error
   of D stays far below that of u - s.
2. Free flight.  Once E < -60 past the bubble, the forcing (below 1e-26)
   is dropped and u is linear in t until E climbs back to -60.  The line's
   zero lies ~s^2/2 further on; it is formed in closed form with the
   s^2/2 terms cancelled exactly, where stepping across the flight would
   cost about s^2*2^-53 in its log radius.  Dropping the forcing moves
   that zero by about s^3*exp(-60)/4 (2e-12 at s = 1e5).
3. The rest, in absolute t, from the landing (or from u < s/2 when E
   never falls to -60).  Where the forcing is awake the error test weighs
   u by dE/du, so that later bubbles keep E, not just u, to rel_tol.

After a large amplitude the radii underflow: the first bubble sits near
r ~ exp(-s^2/2).  Radii are therefore stored as log radii everywhere, and
Trajectory answers only by log radius (u_log, ru_log, state_log,
source_log).  Radii and slopes are formed only where they are printed,
by radii() and slopes().

Integrator: Dormand-Prince 5(4) with the classical quartic dense output.
Events (zeros of u, interior critical points) are detected by sign change
at step endpoints and polished on the dense interpolant.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import NoSignChangeError, StiffnessError, ZeroNotReachedError
from .nonlinearity import ProblemParams, primitive_F
from .records import record

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Dense-output weights (order-4 continuous extension).
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)

_NCOMP = 6
_RANGE = tuple(range(_NCOMP))
_EPS = 2.220446049250313e-16
_MIN_STEP = 4.0 * _EPS  # relative to max(1, |x|)
_ULP64 = 64.0 * _EPS    # finest relative error scale the error test asks for

# flattened tableau entries for the unrolled stage loop
_A31, _A32 = _A[2]
_A41, _A42, _A43 = _A[3]
_A51, _A52, _A53, _A54 = _A[4]
_A61, _A62, _A63, _A64, _A65 = _A[5]
_A71, _, _A73, _A74, _A75, _A76 = _A[6]
_C4 = _C[4]
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E
_D1, _, _D3, _D4, _D5, _D6, _D7 = _D

_E_START = -40.0      # exponent at the first step
_E_QUIET = -60.0      # below this, after the bubble, the bubble frame hands over
_HANDOFF_DROP = 0.5   # ... as it does once u < (1 - this) * s
_LOG_R_START_MAX = math.log(1e-6)  # the first step never starts at a larger radius
# Exponents above this only occur in trial stages the error test rejects;
# clipping them keeps those stages finite.
_E_CLIP = 300.0
_LOG_MAX = 709.0      # exp() of more overflows binary64
_LAND_MARGIN = 0.1    # the step with the stop zero ends this far past it
# Runaway caps: an integration that passes either raises ZeroNotReachedError.
MAX_RADIUS = 1e6
MAX_STEPS = 2_000_000


@record
class SolverSettings:
    """Integration tolerances."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12


def _slope(ru: float, r: float) -> float:
    """u'(r) from r*u'(r); +-inf where r underflows to 0.0."""
    if r > 0.0:
        return ru / r
    return math.copysign(math.inf, ru) if ru != 0.0 else 0.0


def radii(log_radii) -> tuple:
    """Radii from log radii (0.0 where a radius underflows)."""
    return tuple(math.exp(t) for t in log_radii)


def slopes(log_radii, rus) -> tuple:
    """u'(r_i) from ln r_i and r_i*u'(r_i) (+-inf where r_i underflows)."""
    return tuple(_slope(ru, math.exp(t)) for t, ru in zip(log_radii, rus))


class RadialState:
    """Solution value, r*u', and running energy integrals at log radius t.

    t and ru stay finite in the deep regime, where r underflows to 0.0 and
    u' overflows to +-inf.  e_potential (the running lambda * int F(u) s ds)
    is recovered lazily from the flux channel: it needs one primitive
    evaluation unless u is small at this radius.
    """

    __slots__ = ("t", "u", "ru", "e_dirichlet", "e_nehari", "e_source",
                 "pot_flux", "_params", "_e_pot")

    def __init__(self, t, y, params):
        self.t = t
        self.u = y[0]
        self.ru = y[1]
        self.e_dirichlet = y[2]
        self.e_nehari = y[3]
        self.pot_flux = y[4]
        self.e_source = y[5]
        self._params = params
        self._e_pot = None

    @property
    def e_potential(self) -> float:
        if self._e_pot is None:
            p = self._params
            au = abs(self.u)
            if au < 1e-4:
                # F(u) = u^2/2 * (1 + 2 alpha |u|^beta/(beta+2) + O(u^2))
                F = 0.5 * self.u * self.u * (
                    1.0 + 2.0 * p.alpha * au ** p.beta / (p.beta + 2.0))
            else:
                F = primitive_F(self.u, p)
            self._e_pot = 0.5 * (F * math.exp(p.log_lambda + 2.0 * self.t)
                                 - self.pot_flux)
        return self._e_pot

    def __repr__(self):
        return (f"RadialState(t={self.t!r}, u={self.u!r}, ru={self.ru!r}, "
                f"e_dirichlet={self.e_dirichlet!r})")


class _Step:
    """One accepted step in its own variable x, with dense-output
    coefficients.  frame is the first-bubble _Frame (x = tau, y carries
    D and D') or None (x = t, y is the log-radius state)."""

    __slots__ = ("x0", "h", "x1", "y0", "y1", "rcont", "frame")

    def __init__(self, x0, h, x1, y0, y1, rcont, frame):
        self.x0 = x0
        self.h = h
        self.x1 = x1
        self.y0 = y0
        self.y1 = y1
        self.rcont = rcont  # 5 tuples of _NCOMP floats (+2 with the channel)
        self.frame = frame

    @property
    def t0(self) -> float:
        return self.x0 if self.frame is None else self.frame.t0 + self.x0

    @property
    def t1(self) -> float:
        return self.x1 if self.frame is None else self.frame.t0 + self.x1

    def dense(self, x):
        th = (x - self.x0) / self.h
        c1, c2, c3, c4, c5 = self.rcont
        om = 1.0 - th
        return tuple(
            c1[i] + th * (c2[i] + om * (c3[i] + th * (c4[i] + om * c5[i])))
            for i in _RANGE
        )

    def at(self, t):
        """Log-radius state at internal log radius t."""
        if self.frame is None:
            return self.dense(t)
        tau = t - self.frame.t0
        return self.frame.state(tau, self.dense(tau))

    def end(self):
        """Log-radius state at the step's end point."""
        if self.frame is None:
            return self.y1
        return self.frame.state(self.x1, self.y1)


class _Frame:
    """Constants of the first-bubble frame (see the module docstring)."""

    __slots__ = ("s", "K", "t0", "E0", "ln_a", "asb", "beta")

    def __init__(self, s, K, t0, E0, alpha, beta):
        self.s = s
        self.K = K
        self.t0 = t0
        self.E0 = E0
        self.ln_a = math.log(K) + E0 - math.log(8.0)
        self.asb = alpha * s ** beta
        self.beta = beta

    def liouville(self, tau):
        """(Z_L, q, 1 - q) with Z_L' = -4q and Z_L'' = -8q(1 - q)."""
        la = self.ln_a + 2.0 * tau
        if la < 0.0:
            a = math.exp(la)
            return -2.0 * math.log1p(a), a / (1.0 + a), 1.0 / (1.0 + a)
        ia = math.exp(-la)
        return -2.0 * (la + math.log1p(ia)), 1.0 / (1.0 + ia), ia / (1.0 + ia)

    def state(self, tau, y):
        """Log-radius state from the frame state y = (D, D', channels)."""
        z_l, q, _ = self.liouville(tau)
        return (self.s + (z_l + y[0]) / self.K, (y[1] - 4.0 * q) / self.K,
                y[2], y[3], y[4], y[5])

    def exponent_at(self, tau, y):
        """E at tau for the frame state y: E0 + 2 tau + Z_L + D + R, with R
        the nonlinear remainder of E in d = u - s (rhs_bubble inlines this)."""
        z_l, _, _ = self.liouville(tau)
        d = (z_l + y[0]) / self.K
        x = max(d / self.s, -0.99)
        lx = math.log1p(x)
        return (self.E0 + 2.0 * tau + z_l + y[0] + (lx - x) + d * d
                + self.asb * (math.expm1(self.beta * lx) - self.beta * x))

    def head(self, tau):
        """Frame state before the first step, where u = s - exp(E)/4 + ...
        and E = E0 + 2 tau: D = D' = 0 and the channels' leading terms."""
        g = math.exp(self.E0 + 2.0 * tau)
        return (0.0, 0.0, g * g / 16.0, self.s * g / 2.0, -g * g / 8.0, g / 2.0)


def _dense_root(step: _Step, comp: int, lo: float, hi: float) -> float:
    """Root of dense component `comp` in theta in [lo, hi] (Illinois method)."""
    def g(th):
        c1, c2, c3, c4, c5 = step.rcont
        om = 1.0 - th
        return c1[comp] + th * (c2[comp] + om * (c3[comp] + th * (c4[comp] + om * c5[comp])))

    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoSignChangeError(
            f"no sign change of component {comp} in theta bracket [{lo}, {hi}]"
        )
    side = 0
    for _ in range(200):
        th = (lo * fhi - hi * flo) / (fhi - flo)
        if not (lo < th < hi):
            th = 0.5 * (lo + hi)
        fm = g(th)
        if fm == 0.0 or (hi - lo) < 1e-16:
            return th
        if flo * fm < 0.0:
            hi, fhi = th, fm
            if side == -1:
                flo *= 0.5
            side = -1
        else:
            lo, flo = th, fm
            if side == 1:
                fhi *= 0.5
            side = 1
    return 0.5 * (lo + hi)


class Trajectory:
    """Dense radial trajectory with detected zeros and interior peaks, by
    log radius t = ln r (finite at every amplitude).

      log_zeros: list of (t, r*u') with strictly increasing t, ending at
        the zero the integration stopped on;
      log_peaks: list of (t, |u|) at interior critical points (the origin
        peak u(0) = amplitude is not included);
      t_start: the first step;
      steps: the accepted _Steps, in the log radius they were integrated
        in (before any dilation by shifted); a first-bubble step carries
        frame-local x and y, so read it through t0, t1 and end();
      u_log, ru_log, eval_log, state_log, source_log: dense evaluation,
        by log radius only;
      log_slope: d ln(lambda)/d ln(s) at the stop zero (sensitivity channel).
    """

    def __init__(self, params: ProblemParams, amplitude: float, t_start: float,
                 steps: list, log_zeros: list, log_peaks: list,
                 shift: float = 0.0, log_slope: float | None = None):
        self.params = params
        self.initial_amplitude = amplitude
        self.t_start = t_start
        self.steps = steps  # internal log radius = external + shift
        self._shift = shift
        self.log_zeros = log_zeros
        self.log_peaks = log_peaks
        self._starts = [st.t0 - shift for st in steps]
        self.log_slope = log_slope

    def _step_for(self, t):
        idx = bisect_right(self._starts, t) - 1
        return self.steps[max(idx, 0)]

    def eval_log(self, t: float):
        """(u, r*u', e_dir, e_neh, q_flux, e_src) at log radius t."""
        if t < self.t_start:
            if t == -math.inf:
                return (self.initial_amplitude, 0.0, 0.0, 0.0, 0.0, 0.0)
            frame = self.steps[0].frame
            tau = t + self._shift - frame.t0
            return frame.state(tau, frame.head(tau))
        return self._step_for(t).at(t + self._shift)

    def u_log(self, t: float) -> float:
        return self.eval_log(t)[0]

    def ru_log(self, t: float) -> float:
        """r*u'(r) at r = exp(t)."""
        return self.eval_log(t)[1]

    def state_log(self, t: float) -> RadialState:
        return RadialState(t, self.eval_log(t), self.params)

    def source_log(self, t: float) -> float:
        """lambda*f(u)*r^2 = sign(u)*exp(E) at log radius t."""
        ti = t + self._shift
        if t < self.t_start:
            frame = self.steps[0].frame
            return math.exp(frame.E0 + 2.0 * (ti - frame.t0))
        st = self._step_for(t)
        if st.frame is not None:  # u > 0 in the bubble frame
            tau = ti - st.frame.t0
            return math.exp(min(st.frame.exponent_at(tau, st.dense(tau)), _LOG_MAX))
        u = st.dense(ti)[0]
        if u == 0.0:
            return 0.0
        p = self.params
        au = abs(u)
        # E is dilation invariant: 2t + ln(lambda) is the same in the frame
        # the steps were integrated in (internal t, lambda*exp(-2*shift))
        e = (2.0 * ti + p.log_lambda - 2.0 * self._shift + math.log(au)
             + u * u + p.alpha * au ** p.beta)
        return math.copysign(math.exp(min(e, _LOG_MAX)), u)

    def log_step_bounds(self) -> list:
        """Log radii of the accepted step boundaries, increasing."""
        return self._starts + [self.steps[-1].t1 - self._shift]

    def shifted(self, dt: float, params: ProblemParams) -> "Trajectory":
        """Dilated trajectory x -> u(exp(dt)*x), valid for the given params.

        Log radii move by -dt; u, r*u' and the lambda-weighted energy
        channels are dilation invariants.
        """
        return Trajectory(params, self.initial_amplitude, self.t_start - dt,
                          self.steps,
                          [(t - dt, ru) for t, ru in self.log_zeros],
                          [(t - dt, a) for t, a in self.log_peaks],
                          shift=self._shift + dt)


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = 134217729.0 * a  # Veltkamp split into two 26-bit halves
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p + e = a*b exactly."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _line_search(f, lo, hi, iters=200):
    """Bisection for the switch of f from False (at lo) to True (at hi)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if f(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _march(rhs, x, y, h, scale, t_of, on_step):
    """Dormand-Prince steps from (x, y) until on_step(step) returns True.

    scale(x, y, x1, y1) gives the error scale of the first _NCOMP components
    (no others are tested) for a trial step, accepted when all are met.
    on_step may also return a number x_land < step.x1: the step is then
    discarded and retaken to end on x_land (unless the error test rejects
    that retake).

    Returns (last accepted step, next step size).
    """
    rng = tuple(range(len(y)))
    k1 = rhs(x, y)
    x_land = None
    while True:
        if x_land is not None:
            h = x_land - x
        elif h <= _MIN_STEP * max(1.0, abs(x)):
            raise StiffnessError(math.exp(t_of(x)), h)

        # stages (unrolled linear combinations; this is the hot loop)
        ka = k1
        kb = rhs(x + 0.2 * h, tuple(y[j] + h * 0.2 * ka[j] for j in rng))
        kc = rhs(x + 0.3 * h, tuple(
            y[j] + h * (_A31 * ka[j] + _A32 * kb[j]) for j in rng))
        kd = rhs(x + 0.8 * h, tuple(
            y[j] + h * (_A41 * ka[j] + _A42 * kb[j] + _A43 * kc[j]) for j in rng))
        ke = rhs(x + _C4 * h, tuple(
            y[j] + h * (_A51 * ka[j] + _A52 * kb[j] + _A53 * kc[j] + _A54 * kd[j])
            for j in rng))
        x1 = x_land if x_land is not None else x + h
        kf = rhs(x1, tuple(
            y[j] + h * (_A61 * ka[j] + _A62 * kb[j] + _A63 * kc[j]
                        + _A64 * kd[j] + _A65 * ke[j]) for j in rng))
        y1 = tuple(
            y[j] + h * (_A71 * ka[j] + _A73 * kc[j] + _A74 * kd[j]
                        + _A75 * ke[j] + _A76 * kf[j]) for j in rng)
        kg = rhs(x1, y1)  # FSAL stage

        err = 0.0
        sc = scale(x, y, x1, y1)
        for j in _RANGE:
            e = h * (_E1 * ka[j] + _E3 * kc[j] + _E4 * kd[j]
                     + _E5 * ke[j] + _E6 * kf[j] + _E7 * kg[j])
            q = abs(e) / sc[j]
            if not q <= err:  # also catches NaN from a wild trial stage
                err = q if q == q else math.inf
        if err <= 1.0:
            ydiff = tuple(y1[j] - y[j] for j in rng)
            bspl = tuple(h * ka[j] - ydiff[j] for j in rng)
            rc4 = tuple(ydiff[j] - h * kg[j] - bspl[j] for j in rng)
            rc5 = tuple(
                h * (_D1 * ka[j] + _D3 * kc[j] + _D4 * kd[j]
                     + _D5 * ke[j] + _D6 * kf[j] + _D7 * kg[j])
                for j in rng
            )
            step = _Step(x, h, x1, y, y1, (y, ydiff, bspl, rc4, rc5), None)
            stop = on_step(step)
            if stop is not None and stop is not True and stop is not False:
                x_land = stop  # retake this step to end on x_land
                continue
            x, y, k1 = x1, y1, kg
            if err == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
            if stop:
                return step, h
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
            x_land = None  # a rejected retake falls back to plain stepping


def integrate_radial(s: float, p: ProblemParams, n_zeros: int,
                     settings: SolverSettings | None = None,
                     sensitivity: bool = False) -> Trajectory:
    """Integrate from u(0) = s > 0 to the n_zeros-th zero of u.

    sensitivity=True adds a channel of two states, never error tested (steps
    and zeros stay bit-identical), that carries d/ds: (V, V') = d(D, D')/ds
    at fixed tau in the frame, the closed-form t_z' across the flight and
    (w, w_t) in t; at the stop zero t_n it sets log_slope = -2s w/u_t.
    Raises ZeroNotReachedError if the radius cap or the step budget is hit
    first, and StiffnessError if the step collapses.
    """
    if not (s > 0.0):
        raise ValueError(f"amplitude must be positive, got {s!r}")
    if n_zeros < 1:
        raise ValueError("need at least one zero to stop on")
    if settings is None:
        settings = SolverSettings()

    alpha, beta, loglam = p.alpha, p.beta, p.log_lambda
    rel, atol = settings.rel_tol, settings.abs_tol
    sb = s ** beta

    # ---- start: E = E_START, u = s to machine precision -------------------
    sq, sq_lo = _two_prod(s, s)
    rest = loglam + math.log(s) + alpha * sb
    t_e = 0.5 * (_E_START - rest - sq)
    t0 = min(t_e, _LOG_R_START_MAX)
    # E0 = 2 t0 + s^2 + rest, with s^2 carried exactly: at large s the
    # first two terms cancel to within rest
    hi, lo = _two_sum(2.0 * t0, sq)
    E0 = (hi + rest) + (lo + sq_lo)
    K = 2.0 * s + 1.0 / s + alpha * beta * sb / s
    frame = _Frame(s, K, t0, E0, alpha, beta)
    # for the channel: kp = K'/K, phi_s = (ln K + E0)', t0_s = t0' (-K/2
    # unless t0 is pinned) and tk_s = t0' + (sK)'/4, its s^2/2 terms cancelled
    kp = (2.0 - 1.0 / sq + alpha * beta * (beta - 1.0) * sb / sq) / K
    sk_s = 4.0 * s + alpha * beta * beta * sb / s  # (sK)'
    phi_s, t0_s, tk_s = (kp + K, 0.0, 0.25 * sk_s) if t_e > _LOG_R_START_MAX else (
        kp, -0.5 * K, 0.25 * alpha * beta * (beta - 2.0) * sb / s - 0.5 / s)

    t_max = math.log(MAX_RADIUS)
    n_accept = [0]
    zeros: list = []
    peaks: list = []
    steps: list = []

    def check_radius(t1):
        if t1 > t_max:
            raise ZeroNotReachedError(
                f"radius cap {MAX_RADIUS!r} reached with "
                f"{len(zeros)} zero(s) found",
                zeros_found=len(zeros), radius=math.exp(min(t1, _LOG_MAX)),
            )

    def check_caps(t1):
        n_accept[0] += 1
        check_radius(t1)
        if n_accept[0] > MAX_STEPS:
            raise ZeroNotReachedError(
                f"step budget {MAX_STEPS} exhausted at radius "
                f"{math.exp(min(t1, _LOG_MAX))!r}",
                zeros_found=len(zeros), radius=math.exp(min(t1, _LOG_MAX)),
            )

    # ---- stretch 1: the first bubble, in (tau, D) -------------------------
    exp, log1p, expm1 = math.exp, math.log1p, math.expm1
    ln_a, asb, inv_k, inv_s = frame.ln_a, frame.asb, 1.0 / K, 1.0 / s

    def rhs_bubble(tau, y):
        dev = y[0]
        la = ln_a + 2.0 * tau
        if la < 0.0:
            a = exp(la)
            z_l = -2.0 * log1p(a)
            q = a / (1.0 + a)
            omq = 1.0 / (1.0 + a)
        else:
            ia = exp(-la)
            z_l = -2.0 * (la + log1p(ia))
            q = 1.0 / (1.0 + ia)
            omq = ia / (1.0 + ia)
        d = (z_l + dev) * inv_k
        x = d * inv_s
        if x < -0.99:
            x = -0.99
        lx = log1p(x)
        dr = dev + (lx - x) + d * d + asb * (expm1(beta * lx) - beta * x)
        e = E0 + 2.0 * tau + z_l + dr
        g = exp(e if e < _E_CLIP else _E_CLIP)
        ut = (y[1] - 4.0 * q) * inv_k
        return (y[1], -8.0 * q * omq * expm1(dr if dr < _E_CLIP else _E_CLIP),
                ut * ut, (s + d) * g, g * ut, g)

    def rhs_bubble_channel(tau, y):
        # V'' = d/ds (Z_L'' expm1(D + R)) at fixed tau, where
        # d/ds Z_L'' = Z_L'' (1 - 2q) phi_s and Z_L'' expm1(D + R) = base[1]
        base = rhs_bubble(tau, y)
        z_l, q, omq = frame.liouville(tau)
        d = (z_l + y[0]) * inv_k
        x = max(d * inv_s, -0.99)
        lx = log1p(x)
        d_s = (y[6] - 2.0 * q * phi_s) * inv_k - d * kp
        x_s = (d_s - x) * inv_s
        v_r = (y[6] + 2.0 * d * d_s  # V + R_s
               + (beta * asb * expm1((beta - 1.0) * lx) - x / (1.0 + x)) * x_s
               + beta * asb * inv_s * (expm1(beta * lx) - beta * x))
        return base + (y[7],
                       base[1] * ((omq - q) * phi_s + v_r) - 8.0 * q * omq * v_r)

    # D and D' enter u = s + Z/K through 1/K; past the bubble D' also sets
    # the slope over the flight of length ~s^2/2, and the zero at its end
    # moves by ~s^2/8 times the error of D'.  These absolute tolerances
    # keep u, and that zero's log radius, within ~abs_tol.
    a_dev = K * atol / (1.0 + 0.5 * s * s)
    a_bubble = (a_dev, a_dev / (1.0 + 0.5 * s), atol, atol, atol, atol)
    last_e = [-math.inf]
    quiet = [False]

    def on_bubble_step(step):
        # hand over once E < E_QUIET past the bubble, or once u < s/2
        step.frame = frame
        steps.append(step)
        check_caps(t0 + step.x1)
        e = frame.exponent_at(step.x1, step.y1)
        quiet[0] = e < min(_E_QUIET, last_e[0])
        if quiet[0] or frame.state(step.x1, step.y1)[0] < (1.0 - _HANDOFF_DROP) * s:
            return True
        last_e[0] = e
        return False

    def scale_bubble(x, y, x1, y1):
        return tuple(a_bubble[j] + rel * max(abs(y[j]), abs(y1[j]))
                     for j in _RANGE)

    step, h = _march(rhs_bubble_channel if sensitivity else rhs_bubble, 0.0,
                     frame.head(0.0) + ((0.0, 0.0) if sensitivity else ()), 0.1,
                     scale_bubble, lambda tau: t0 + tau, on_bubble_step)
    t_hand, h, yf = t0 + step.x1, min(h, 1.0), step.y1
    y = frame.state(step.x1, yf)
    z_l, q, omq = frame.liouville(step.x1)
    if sensitivity:  # (w, w_t) from u = s + (Z_L + D)/K at tau = t - t0
        zh_s, c_s = yf[6] - 2.0 * q * phi_s, yf[7] - 4.0 * q * omq * phi_s
        kut = yf[1] - 4.0 * q  # K u_t
        y += (1.0 + (zh_s - t0_s * kut - (z_l + yf[0]) * kp) * inv_k,
              (c_s - kut * kp - t0_s * (rhs_bubble(step.x1, yf)[1] - 8.0 * q * omq))
              * inv_k)

    # ---- stretch 2: free flight while E < E_QUIET ---------------------------
    if quiet[0]:
        # the forcing (< 1e-26) is dropped: u is linear in t,
        # u = sigma*(t_z - t).  The zero t_z ~ t0 + s^2/2 + O(s^beta) is
        # formed with the s^2/2 cancelled exactly, and the flight is not
        # stepped through: stepping a span of s^2/2 in t would cost about
        # s^2*2^-53 in t_z.
        z_h = z_l + yf[0]
        c = 4.0 * omq + yf[1]  # Z' = -(4 - c) after the bubble
        sigma = (4.0 - c) * inv_k
        sk, sk_lo = _two_prod(s, K)  # u = 0 where Z = -s*K
        head, head_lo = _two_sum(t0, 0.25 * sk)
        t_z = head + (head_lo + 0.25 * sk_lo + step.x1 + 0.25 * z_h
                      + (z_h + sk) * c / (4.0 * (4.0 - c)))
        u_h, e_dir_h = y[0], y[2]
        if sensitivity:  # t_z'
            tz_s = (tk_s + 0.25 * zh_s + (zh_s + sk_s) * c / (4.0 * (4.0 - c))
                    + (z_h + sk) * c_s / ((4.0 - c) * (4.0 - c)))
            sigma_s = -(c_s * inv_k + sigma * kp)

        def line(t):
            u = sigma * (t_z - t)
            return (u, -sigma, e_dir_h + sigma * (u_h - u), y[3], y[4], y[5])

        def awake_on_line(t):
            u = sigma * (t_z - t)
            return u != 0.0 and (2.0 * t + loglam + math.log(abs(u)) + u * u
                                 + alpha * abs(u) ** beta) >= _E_QUIET

        # land where E climbs back to E_QUIET: before the zero if the local
        # maximum of E there (at u ~ sigma/2) reaches it, else past the zero
        u_m = 0.5 * sigma
        for _ in range(50):
            den = 2.0 / sigma - 2.0 * u_m - alpha * beta * u_m ** (beta - 1.0)
            u_m = 1.0 / den if den > 0.0 else math.inf
            if u_m >= u_h:
                break
        if u_m < u_h and awake_on_line(t_z - u_m / sigma):
            t_b = _line_search(awake_on_line, t_hand, t_z - u_m / sigma)
        else:
            dt = 1.0 / sigma
            while not awake_on_line(t_z + dt):
                dt *= 2.0
            t_b = _line_search(awake_on_line, t_z, t_z + dt)
        if t_z < t_b:
            check_radius(t_z)
            zeros.append((t_z, -sigma))
            if len(zeros) >= n_zeros:
                t_b = t_z
        y_b = line(t_b) + ((sigma * tz_s + sigma_s * (t_z - t_b), -sigma_s)
                           if sensitivity else ())
        zero = (0.0,) * len(y_b)
        steps.append(_Step(t_hand, t_b - t_hand, t_b, y, y_b,
                           (y, tuple(b - a for a, b in zip(y, y_b)), zero, zero,
                            zero), None))
        check_caps(t_b)
        if len(zeros) >= n_zeros:
            return Trajectory(p, s, t0, steps, zeros, peaks,
                              log_slope=2.0 * s * tz_s if sensitivity else None)
        t_hand, y = t_b, y_b

    # ---- stretch 3: absolute t -----------------------------------------------
    def rhs_plain(t, y):
        u = y[0]
        ut = y[1]
        if u == 0.0:
            g = 0.0
        else:
            au = abs(u)
            e = 2.0 * t + loglam + math.log(au) + u * u + alpha * au ** beta
            g = math.copysign(exp(e if e < _E_CLIP else _E_CLIP), u)
        return (ut, -g, ut * ut, u * g, g * ut, g)

    def rhs_plain_channel(t, y):
        # w_tt = -w d/du(sign(u) e^E) = -w e^E (1/|u| + 2|u| + ab|u|^(b-1))
        base, u = rhs_plain(t, y), y[0]
        dg = base[5] / u * (1.0 + 2.0 * u * u + alpha * beta * abs(u) ** beta) \
            if u != 0.0 else exp(2.0 * t + loglam)
        return base + (y[7], -dg * y[6])

    def on_plain_step(step):
        y0, y1 = step.y0, step.y1
        events = []
        if (y0[0] > 0.0) != (y1[0] > 0.0) or y1[0] == 0.0:
            th = _dense_root(step, 0, 0.0, 1.0)
            tz = step.x0 + th * step.h
            events.append((tz, 0, step.dense(tz)[1]))
            if len(zeros) + 1 == n_zeros:
                # the stop zero: retake a long step to end just past it,
                # so that the trajectory does not run on far beyond it
                land = tz + _LAND_MARGIN * (tz - step.x0)
                if step.x0 < tz and land < step.x1:
                    return land
        if y0[1] * y1[1] < 0.0:
            th = _dense_root(step, 1, 0.0, 1.0)
            tp = step.x0 + th * step.h
            events.append((tp, 1, abs(step.dense(tp)[0])))
        steps.append(step)
        events.sort()
        for tx, kind, aux in events:
            check_radius(tx)
            if kind == 0:
                zeros.append((tx, aux))
                if len(zeros) >= n_zeros:
                    return True
            else:
                peaks.append((tx, aux))
        check_caps(step.x1)
        return False

    def awake(t, u):
        au = abs(u)
        return au > 0.0 and (2.0 * t + loglam + math.log(au) + u * u
                             + alpha * au ** beta) > _E_QUIET

    def scale_plain(x, y, x1, y1):
        # where the forcing is awake, an error in u moves E by dE/du times
        # as much: weigh u and u_t by it, so that later bubbles keep E (not
        # just u) to rel_tol -- the same trap the bubble frame avoids
        # (but never below what binary64 resolves: 64 ulp)
        m = max(abs(y[0]), abs(y1[0]))
        m1 = max(abs(y[1]), abs(y1[1]))
        kappa = 1.0 + 2.0 * m * m + alpha * beta * m ** beta \
            if awake(x, y[0]) or awake(x1, y1[0]) else 1.0
        return (max((atol + rel * m) / kappa, _ULP64 * m),
                max((atol + rel * m1) / kappa, _ULP64 * m1),
                atol + rel * max(abs(y[2]), abs(y1[2])),
                atol + rel * max(abs(y[3]), abs(y1[3])),
                atol + rel * max(abs(y[4]), abs(y1[4])),
                atol + rel * max(abs(y[5]), abs(y1[5])))

    step, _ = _march(rhs_plain_channel if sensitivity else rhs_plain, t_hand, y,
                     h, scale_plain, lambda t: t, on_plain_step)
    if not sensitivity:
        return Trajectory(p, s, t0, steps, zeros, peaks)
    t_n, ru_n = zeros[-1]  # w(t_n) on the dense output
    th = (t_n - step.x0) / step.h
    c1, c2, c3, c4, c5 = (c[_NCOMP] for c in step.rcont)
    w = c1 + th * (c2 + (1.0 - th) * (c3 + th * (c4 + (1.0 - th) * c5)))
    return Trajectory(p, s, t0, steps, zeros, peaks, log_slope=-2.0 * s * w / ru_n)


def first_integral_residual(traj: Trajectory) -> float:
    """max over accepted steps of |r*u'(r) + e_src(r)| (zero-flux identity)."""
    worst = 0.0
    for st in traj.steps:
        y1 = st.end()
        res = abs(y1[1] + y1[5])
        if res > worst:
            worst = res
    return worst
