"""Adaptive integration of the radial equation -u'' - u'/r = lambda*f(u)
at lambda = 1 from the origin to the n-th zero of u, in the log radius
t = ln r, with dense output, event detection, and augmented quadrature
states for the energy integrals.  The dilation x -> z*x (shifted) alone
applies a lambda, z^2: it leaves E below, and each channel, unchanged.

In t the equation reads

    u_tt = -sign(u) exp(E),   E = 2t + ln|u| + u^2 + alpha*|u|^beta,

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
             and the boundary term vanishes at zeros of u, so the potential
             energy is read there as -q_flux/2 and F is never evaluated
    e_src    running integral of lambda*f(u) * s ds     = int sign(u) e^E dt;
             no certificate reads it (each step conserves r*u' + e_src), but
             the error test weighs it, and dropping it would move every root

A sensitivity channel, two more states that carry d/ds, may follow these
six: each stepped stretch's right-hand side appends their derivatives from the
values it already holds, and the error test never weighs them.

Three stretches, each in the variables that keep it accurate.  Every step
is read through its own frame's map to the log-radius state, and keeps
the right-hand side it stands for, which source_log asks for the forcing:

1. The first bubble.  The start t0 is where E = -40 (never later than
   r = 1e-6); there u = s to machine precision, so no series is needed.
   The frame carries tau = t - t0 and the deviation D = Z - Z_L of
   Z = K*(u - s) from the closed-form Liouville bubble

       Z_L(tau) = -2 ln(1 + K exp(E0 + 2 tau)/8),
       K = 2s + 1/s + alpha*beta*s^(beta-1)   (dE/du at u = s),

   which solves Z'' = -K exp(E0 + 2 tau + Z).  Then D'' = Z_L'' expm1(D + R),
   with R the nonlinear remainder of E in u - s, evaluated with log1p and
   expm1: no u^2 is formed from two huge numbers, and the absolute error
   of D stays far below that of u - s.  R is written once, in the frame's
   right-hand side: the hand-over reads its last FSAL stage, source_log calls it.
   A step ending at u <= 0, past the first zero, is retaken at half its length.
2. Free flight.  The forcing is quiet below one level, E < -60 + min(0,
   ln s) (below 1e-26 min(1, s)): it hands over from the bubble, lands the
   flight and gates stretch 3's dE/du weighting.  Quiet past the bubble,
   the forcing is dropped and u is linear in t until E climbs back: one
   step in t (the identity frame) whose right-hand side keeps the dropped
   forcing, 0 (source_log reads 0).  The line's zero lies ~s^2/2 further
   on; it is formed in closed form with the s^2/2 terms cancelled exactly,
   where stepping across the flight would cost about s^2*2^-53 in its log
   radius.  Dropping the forcing moves that zero by about s^3*exp(-60)/4
   (2e-12 at s = 1e5).
3. The rest, in absolute t (the identity frame), from the landing (or
   from u < s/2 when E is never quiet).  Where it is awake the error test
   weighs u by dE/du, so that later bubbles keep E, not just u, to rel_tol.

After a large amplitude the radii underflow: the first bubble sits near
r ~ exp(-s^2/2).  Radii are therefore stored as log radii everywhere, and
Trajectory answers only by log radius (u_log, ru_log, eval_log,
source_log).  Radii and slopes are formed only where they are printed,
by the records' properties (shooting.LogRadii).

Integrator: DOP853, the explicit Runge-Kutta 8(5,3) pair of Dormand and
Prince (Hairer, Norsett & Wanner, Solving ODE I, sec. II.10), with its
7th-order dense output built lazily: an accepted step keeps its stage
slopes and spends the three extra stages on the interpolant only when it
is first read (while shooting, the steps with a zero or a peak; for a
solution's analysis, every step it reads).  The error test's scale is
abs_tol*min(1, s) + rel_tol*|y| (ibid., sec. II.4), as u is of size s.
Events (zeros of u, interior critical points) are detected by sign
change at step endpoints and polished on the interpolant; a zero counts
once, for the step that crosses it or starts on it; every stretch keeps
its steps and events through one closure, which holds the runaway caps.
A step that crosses an interior zero is retaken to end on it: u*|u|^beta
is not smooth there (ibid., sec. II.6).
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import NoSignChangeError, StiffnessError, ZeroNotReachedError
from .nonlinearity import ProblemParams
from .records import record

# DOP853 (Hairer, Norsett & Wanner, Solving ODE I, sec. II.10), each entry
# the binary64 nearest to the published 30-digit value: the nodes of all 16
# stages; rows 1-11 of _A make stages 2-12, row 12 holds the 8th-order
# weights (the FSAL stage 13 is taken at the new point), rows 13-15 make
# the dense output's three extra stages.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
# Error rows: the 5th-order one, and the 3rd-order weights that stages 1, 9
# and 12 take off the 8th-order ones.
_ER = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_BHH = (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
# Dense output: rows 4-7 of the 7th-order interpolant, on all 16 stages.
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)

_NCOMP = 6
_RANGE = tuple(range(_NCOMP))
_EPS = 2.220446049250313e-16
_MIN_STEP = 4.0 * _EPS  # relative to max(1, |x|)
_ULP64 = 64.0 * _EPS    # finest relative error scale the error test asks for

# flattened tableau entries for the unrolled stage loops (zeros dropped)
_, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _, _, _C14, _C15, _C16 = _C
(_, (_A21,), (_A31, _A32), (_A41, _, _A43), (_A51, _, _A53, _A54),
 (_A61, _, _, _A64, _A65), (_A71, _, _, _A74, _A75, _A76),
 (_A81, _, _, _A84, _A85, _A86, _A87),
 (_A91, _, _, _A94, _A95, _A96, _A97, _A98),
 (_A101, _, _, _A104, _A105, _A106, _A107, _A108, _A109),
 (_A111, _, _, _A114, _A115, _A116, _A117, _A118, _A119, _A1110),
 (_A121, _, _, _A124, _A125, _A126, _A127, _A128, _A129, _A1210, _A1211),
 (_B1, _, _, _, _, _B6, _B7, _B8, _B9, _B10, _B11, _B12),
 (_A141, _, _, _, _, _, _A147, _A148, _A149, _A1410, _A1411, _A1412, _A1413),
 (_A151, _, _, _, _, _A156, _A157, _A158, _, _, _A1511, _A1512, _A1513,
  _A1514),
 (_A161, _, _, _, _, _A166, _A167, _A168, _A169, _, _, _, _A1613, _A1614,
  _A1615)) = _A
_ER1, _, _, _, _, _ER6, _ER7, _ER8, _ER9, _ER10, _ER11, _ER12 = _ER
_BHH1, _BHH9, _BHH12 = _BHH

_E_START = -40.0      # exponent at the first step
_E_QUIET = -60.0      # the forcing is quiet where E < this + min(0, ln s)
_HANDOFF_DROP = 0.5   # the bubble hands over at u > 0 once quiet or u < (1 - this) * s
_LOG_R_START_MAX = math.log(1e-6)  # the first step never starts at a larger radius
# Exponents above this only occur in trial stages the error test rejects;
# clipping them keeps those stages finite.
_E_CLIP = 300.0
_LOG_MAX = 709.0      # exp() of more overflows binary64: caps a reported radius
_LAND_MARGIN = 0.1    # the step with the stop zero ends this far past it
# Amplitude floor: _march's den*sc[j] underflows below it (first at 3.1e-145).
# From it up (k <= 2, beta = 1.3, alpha in {0.2, 3}, 30 points a decade to
# 1e-130) ln(lambda) is ln j_{0,k+1}^2 to 1e-12 at the defaults, 2e-8 at scan.
MIN_AMPLITUDE = 1e-144
# Runaway caps: a step whose end passes MAX_RADIUS, or whose number passes
# MAX_STEPS, is not kept, even with the stop zero: ZeroNotReachedError.
MAX_RADIUS = 1e6
MAX_STEPS = 2_000_000


@record
class SolverSettings:
    """Integration tolerances: from u(0) = s the error test's scale is
    abs_tol*min(1, s) + rel_tol*|y|, so abs_tol is relative to s below 1.

    At the defaults ln(lambda) = 2 t_{k+1} is off the stored 30-digit
    reference (tests/data/reference_lambda.csv: k <= 2, alpha = 1, beta in
    {0.5, 1, 1.3, 1.8}, s in [0.5, 24]) by at most 1.71e-11, at k = 1,
    beta = 1.8, s = 14.070706319014791 (177x less at s(1 + 1e-13)), and by
    at most 2.0e-13 at its other 11 points, below the 1e-10 of roots.
    Below s = 1: within 1.3e-13 of rel_tol=1e-14 (beta in {0.5, 1.2, 1.3,
    1.8}, s from 1e-8 to 0.9) and, for beta >= 1.2, of ln j_{0,k+1}^2 to
    6.9e-14 at s = 1e-12, 1e-16, ..., 1e-140.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


class _Step:
    """One accepted step in its frame's variable x = t - frame.t0, read
    through frame.state: the first-bubble _Frame (x = tau, y carries D and
    D') or _IDENTITY (x = t, y is the log-radius state).  rhs is the
    right-hand side it stands for, in x (the flight's drops the forcing).

    A step keeps the stage slopes its interpolant needs; the first read of
    `rows` spends three more right-hand sides on it and drops them."""

    __slots__ = ("frame", "x0", "h", "x1", "y0", "y1", "rhs", "_ks", "_rows")

    def __init__(self, frame, x0, h, x1, y0, y1, rhs, ks, rows=None):
        self.frame = frame
        self.x0 = x0
        self.h = h
        self.x1 = x1
        self.y0 = y0
        self.y1 = y1
        self.rhs = rhs
        self._ks = ks  # stages 1, 6-13 (13: f at the new point)
        self._rows = rows

    @property
    def t0(self) -> float:
        return self.frame.t0 + self.x0

    @property
    def t1(self) -> float:
        return self.frame.t0 + self.x1

    @property
    def rows(self):
        """The interpolant's 7 coefficient rows: y(x0 + th*h) = y0 +
        th*(r0 + (1-th)*(r1 + th*(r2 + (1-th)*(r3 + th*(r4 + (1-th)*(r5 +
        th*r6))))))."""
        if self._rows is None:
            self._rows = _dense_rows(self.rhs, self.x0, self.h, self.y0,
                                     self.y1, self._ks)
            self._ks = None
        return self._rows

    def value(self, x, i: int) -> float:
        """Component i at x."""
        r0, r1, r2, r3, r4, r5, r6 = self._rows or self.rows
        th = (x - self.x0) / self.h
        om = 1.0 - th
        return self.y0[i] + th * (r0[i] + om * (r1[i] + th * (r2[i] + om * (
            r3[i] + th * (r4[i] + om * (r5[i] + th * r6[i]))))))

    def at(self, t):
        """Log-radius state (_NCOMP components) at internal log radius t."""
        x = t - self.frame.t0
        return self.frame.state(x, tuple(self.value(x, i) for i in _RANGE))

    def end(self):
        """Log-radius state at the step's end point."""
        return self.frame.state(self.x1, self.y1)


def _dense_rows(rhs, x, h, y, y1, ks):
    """Coefficient rows of the DOP853 dense output from a step's stages."""
    k1, k6, k7, k8, k9, k10, k11, k12, k13 = ks
    rng = range(len(y))
    k14 = rhs(x + _C14 * h, [
        y[j] + h * (_A141 * k1[j] + _A147 * k7[j] + _A148 * k8[j]
                    + _A149 * k9[j] + _A1410 * k10[j] + _A1411 * k11[j]
                    + _A1412 * k12[j] + _A1413 * k13[j]) for j in rng])
    k15 = rhs(x + _C15 * h, [
        y[j] + h * (_A151 * k1[j] + _A156 * k6[j] + _A157 * k7[j]
                    + _A158 * k8[j] + _A1511 * k11[j] + _A1512 * k12[j]
                    + _A1513 * k13[j] + _A1514 * k14[j]) for j in rng])
    k16 = rhs(x + _C16 * h, [
        y[j] + h * (_A161 * k1[j] + _A166 * k6[j] + _A167 * k7[j]
                    + _A168 * k8[j] + _A169 * k9[j] + _A1613 * k13[j]
                    + _A1614 * k14[j] + _A1615 * k15[j]) for j in rng])
    dy = tuple(y1[j] - y[j] for j in rng)
    bspl = tuple(h * k1[j] - dy[j] for j in rng)
    return (dy, bspl, tuple(dy[j] - h * k13[j] - bspl[j] for j in rng)) + tuple(
        tuple(h * (d1 * k1[j] + d6 * k6[j] + d7 * k7[j] + d8 * k8[j]
                   + d9 * k9[j] + d10 * k10[j] + d11 * k11[j] + d12 * k12[j]
                   + d13 * k13[j] + d14 * k14[j] + d15 * k15[j] + d16 * k16[j])
              for j in rng)
        for d1, _, _, _, _, d6, d7, d8, d9, d10, d11, d12, d13, d14, d15, d16 in _D)


def _liouville(la):
    """(Z_L, q, 1 - q) of the Liouville bubble at la = ln a + 2 tau, with
    Z_L' = -4q and Z_L'' = -8q(1 - q)."""
    if la < 0.0:
        a = math.exp(la)
        return -2.0 * math.log1p(a), a / (1.0 + a), 1.0 / (1.0 + a)
    ia = math.exp(-la)
    return -2.0 * (la + math.log1p(ia)), 1.0 / (1.0 + ia), ia / (1.0 + ia)


def _exponent(t, au, alpha, beta):
    """E = 2t + ln|u| + u^2 + alpha*|u|^beta at log radius t, for au = |u| > 0."""
    return 2.0 * t + math.log(au) + au * au + alpha * au ** beta


def _source(t, u, alpha, beta):
    """The forcing sign(u)*exp(E) in t, E clipped at _E_CLIP; 0 at u = 0."""
    if u == 0.0:
        return 0.0
    e = _exponent(t, abs(u), alpha, beta)
    return math.copysign(math.exp(e if e < _E_CLIP else _E_CLIP), u)


def _u_de_du(au, alpha, beta):
    """|u| dE/du = 1 + 2u^2 + alpha*beta*|u|^beta at au = |u|."""
    return 1.0 + 2.0 * au * au + alpha * beta * au ** beta


class _Identity:
    """The frame of stretches 2 and 3: x = t, y is the log-radius state."""

    t0 = 0.0

    def state(self, x, y):
        return y


_IDENTITY = _Identity()


class _Frame:
    """Constants of the first-bubble frame (see the module docstring) and
    its map to the log-radius state; E and R are rhs_bubble's alone."""

    __slots__ = ("s", "K", "t0", "E0", "ln_a")

    def __init__(self, s, K, t0, E0):
        self.s = s
        self.K = K
        self.t0 = t0
        self.E0 = E0
        self.ln_a = math.log(K) + E0 - math.log(8.0)

    def state(self, tau, y):
        """Log-radius state from the frame state y = (D, D', channels)."""
        z_l, q, _ = _liouville(self.ln_a + 2.0 * tau)
        return (self.s + (z_l + y[0]) / self.K, (y[1] - 4.0 * q) / self.K,
                y[2], y[3], y[4], y[5])

    def head(self, tau):
        """Frame state before the first step, where u = s - exp(E)/4 + ...
        and E = E0 + 2 tau: D = D' = 0 and the channels' leading terms."""
        g = math.exp(self.E0 + 2.0 * tau)
        return (0.0, 0.0, g * g / 16.0, self.s * g / 2.0, -g * g / 8.0, g / 2.0)


def _dense_root(step: _Step, comp: int, lo: float, hi: float) -> float:
    """Root of dense component `comp` in theta in [lo, hi]: Illinois, then bisection."""
    def g(th):
        return step.value(step.x0 + th * step.h, comp)

    flo, fhi = g(lo), g(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoSignChangeError(
            f"no sign change of component {comp} in theta bracket [{lo}, {hi}]"
        )
    side = n = 0
    while True:
        th = (lo * fhi - hi * flo) / (fhi - flo)
        n += 1
        if n > 200 or not (lo < th < hi):  # a stalled search bisects
            th = 0.5 * (lo + hi)
        fm = g(th)
        if fm == 0.0 or hi - lo < _EPS:  # theta to an ulp or two
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


class Trajectory:
    """Dense radial trajectory with detected zeros and interior peaks, by
    log radius t = ln r (finite at every amplitude).

      log_zeros: list of (t, r*u') with strictly increasing t, ending at
        the zero the integration stopped on;
      log_peaks: list of (t, |u|) at interior critical points (the origin
        peak u(0) = amplitude is not included);
      initial_amplitude, t_start: u(0) and the start, the first step's frame's;
      steps: the accepted _Steps, in the log radius they were integrated
        in (before any dilation by shifted); each carries frame-local x
        and y, so read it through t0, t1, at() and end();
      u_log, ru_log, eval_log, source_log: dense evaluation, by log radius
        only, up to the last step's end (ValueError past it); source_log
        asks each step's own right-hand side;
      log_slope: d ln(lambda)/d ln(s) at the stop zero (sensitivity channel;
        kept by shifted).
    """

    def __init__(self, steps: list, log_zeros: list, log_peaks: list,
                 shift: float = 0.0, log_slope: float | None = None):
        self.initial_amplitude = steps[0].frame.s
        self.t_start = steps[0].frame.t0 - shift
        self.steps = steps  # internal log radius = external + shift
        self._shift = shift
        self.log_zeros = log_zeros
        self.log_peaks = log_peaks
        self._starts = [st.t0 - shift for st in steps]
        self._end = steps[-1].t1 - shift
        self.log_slope = log_slope

    def _step_for(self, t):
        if t > self._end:  # no step covers it: the interpolant would extrapolate
            raise ValueError(f"log radius {t!r} lies past the last step, {self._end!r}")
        # searched from the second start: the first step also answers below t_start
        return self.steps[bisect_right(self._starts, t, 1) - 1]

    def eval_log(self, t: float):
        """(u, r*u', e_dir, e_neh, q_flux, e_src) at log radius t."""
        if t < self.t_start:  # the head; at t = -inf, u = s and r*u' = 0
            frame = self.steps[0].frame
            tau = t + self._shift - frame.t0
            return frame.state(tau, frame.head(tau))
        return self._step_for(t).at(t + self._shift)

    def u_log(self, t: float) -> float:
        return self.eval_log(t)[0]

    def ru_log(self, t: float) -> float:
        """r*u'(r) at r = exp(t)."""
        return self.eval_log(t)[1]

    def source_log(self, t: float) -> float:
        """lambda*f(u)*r^2 = sign(u)*exp(E) at log radius t >= t_start: the
        forcing of the covering step's own right-hand side, on its u (or D)
        alone; 0.0 on the flight, whose forcing the integrator drops."""
        st = self._step_for(t)
        # E is read in the log radius it was integrated in, in the step's frame
        x = t + self._shift - st.frame.t0
        return st.rhs(x, (st.value(x, 0), 0.0, 0.0, 0.0, 0.0, 0.0))[5]

    def log_step_bounds(self) -> list:
        """Log radii of the accepted step boundaries, increasing."""
        return self._starts + [self._end]

    def shifted(self, dt: float) -> "Trajectory":
        """Dilated trajectory x -> u(exp(dt)*x), which solves the equation
        at lambda*exp(2*dt).

        Log radii move by -dt; u, r*u', the lambda-weighted energy channels
        and d ln(lambda)/d ln(s) are dilation invariants.
        """
        return Trajectory(self.steps, [(t - dt, ru) for t, ru in self.log_zeros],
                          [(t - dt, a) for t, a in self.log_peaks],
                          shift=self._shift + dt, log_slope=self.log_slope)


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


def _line_search(f, lo, hi):
    """Bisection for the switch of f from False (at lo) to True (at hi)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if f(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _march(rhs, frame, x, y, h, scale, on_step):
    """DOP853 steps from (x, y), in frame's x, until on_step(step) returns True.

    scale(x, y, x1, y1) gives the error scale of the first _NCOMP components
    (no others are tested) for a trial step.  Each component's error is
    Hairer's combined estimate err5^2/sqrt(err5^2 + 0.01 err3^2) from the
    embedded 5th- and 3rd-order results; the step is accepted when all are
    within their scale, and the next one is scaled by 0.9 err^(-1/8),
    within [0.333, 6].  on_step may also return a float x_land < step.x1:
    the step is then discarded and retaken to end on x_land (unless the
    error test rejects that retake), and stepping goes on at its size.

    Returns (last accepted step, next step size).
    """
    rng = tuple(range(len(y)))
    k1 = rhs(x, y)
    x_land = None
    while True:
        if x_land is not None:
            h = x_land - x
        elif h <= _MIN_STEP * max(1.0, abs(x)):
            raise StiffnessError(math.exp(frame.t0 + x), h)

        # stages (unrolled linear combinations; this is the hot loop)
        k2 = rhs(x + _C2 * h, [y[j] + h * _A21 * k1[j] for j in rng])
        k3 = rhs(x + _C3 * h, [
            y[j] + h * (_A31 * k1[j] + _A32 * k2[j]) for j in rng])
        k4 = rhs(x + _C4 * h, [
            y[j] + h * (_A41 * k1[j] + _A43 * k3[j]) for j in rng])
        k5 = rhs(x + _C5 * h, [
            y[j] + h * (_A51 * k1[j] + _A53 * k3[j] + _A54 * k4[j]) for j in rng])
        k6 = rhs(x + _C6 * h, [
            y[j] + h * (_A61 * k1[j] + _A64 * k4[j] + _A65 * k5[j]) for j in rng])
        k7 = rhs(x + _C7 * h, [
            y[j] + h * (_A71 * k1[j] + _A74 * k4[j] + _A75 * k5[j] + _A76 * k6[j])
            for j in rng])
        k8 = rhs(x + _C8 * h, [
            y[j] + h * (_A81 * k1[j] + _A84 * k4[j] + _A85 * k5[j] + _A86 * k6[j]
                        + _A87 * k7[j]) for j in rng])
        k9 = rhs(x + _C9 * h, [
            y[j] + h * (_A91 * k1[j] + _A94 * k4[j] + _A95 * k5[j] + _A96 * k6[j]
                        + _A97 * k7[j] + _A98 * k8[j]) for j in rng])
        k10 = rhs(x + _C10 * h, [
            y[j] + h * (_A101 * k1[j] + _A104 * k4[j] + _A105 * k5[j]
                        + _A106 * k6[j] + _A107 * k7[j] + _A108 * k8[j]
                        + _A109 * k9[j]) for j in rng])
        k11 = rhs(x + _C11 * h, [
            y[j] + h * (_A111 * k1[j] + _A114 * k4[j] + _A115 * k5[j]
                        + _A116 * k6[j] + _A117 * k7[j] + _A118 * k8[j]
                        + _A119 * k9[j] + _A1110 * k10[j]) for j in rng])
        x1 = x_land if x_land is not None else x + h
        k12 = rhs(x1, [
            y[j] + h * (_A121 * k1[j] + _A124 * k4[j] + _A125 * k5[j]
                        + _A126 * k6[j] + _A127 * k7[j] + _A128 * k8[j]
                        + _A129 * k9[j] + _A1210 * k10[j] + _A1211 * k11[j])
            for j in rng])
        bk = [_B1 * k1[j] + _B6 * k6[j] + _B7 * k7[j] + _B8 * k8[j]
              + _B9 * k9[j] + _B10 * k10[j] + _B11 * k11[j] + _B12 * k12[j]
              for j in rng]
        y1 = tuple(y[j] + h * bk[j] for j in rng)

        err = 0.0
        sc = scale(x, y, x1, y1)
        for j in _RANGE:
            e5 = (_ER1 * k1[j] + _ER6 * k6[j] + _ER7 * k7[j] + _ER8 * k8[j]
                  + _ER9 * k9[j] + _ER10 * k10[j] + _ER11 * k11[j]
                  + _ER12 * k12[j])
            e3 = bk[j] - _BHH1 * k1[j] - _BHH9 * k9[j] - _BHH12 * k12[j]
            den = math.sqrt(e5 * e5 + 0.01 * e3 * e3)
            if den == 0.0:  # e5 and e3 underflow when squared: q <= h*|e5| ~ 0
                continue
            q = h * e5 * e5 / (den * sc[j])
            if not q <= err:  # also catches NaN from a wild trial stage
                err = q if q == q else math.inf
        if err <= 1.0:
            k13 = rhs(x1, y1)  # FSAL stage
            step = _Step(frame, x, h, x1, y, y1, rhs,
                         (k1, k6, k7, k8, k9, k10, k11, k12, k13))
            stop = on_step(step)
            if isinstance(stop, float):
                # retake this step to end on x_land, then go on at this h
                x_land, h_on = stop, h
                continue
            x, y, k1 = x1, y1, k13
            if x_land is not None:
                h, x_land = h_on, None
            elif err == 0.0:
                h *= 6.0
            else:
                h *= min(6.0, max(0.333, 0.9 * err ** -0.125))
            if stop:
                return step, h
        else:
            h *= max(0.333, 0.9 * err ** -0.125)
            x_land = None  # a rejected retake falls back to plain stepping


def integrate_radial(s: float, p: ProblemParams, n_zeros: int,
                     settings: SolverSettings | None = None,
                     sensitivity: bool = False) -> Trajectory:
    """Integrate at lambda = 1 from u(0) = s > 0 to the n_zeros-th zero of u.

    sensitivity=True adds a channel of two states, never error tested (steps
    and zeros stay bit-identical), that carries d/ds: (V, V') = d(D, D')/ds
    at fixed tau in the frame, the closed-form t_z' across the flight and
    (w, w_t) in t; at the stop zero t_n it sets log_slope = -2s w/u_t.
    Each stretch's one right-hand side appends the channel's derivatives.
    The error test's absolute tolerance is abs_tol*min(1, s) (SolverSettings).
    Raises ValueError unless MIN_AMPLITUDE <= s < inf, or for p.lam != 1;
    ZeroNotReachedError when a step's end passes MAX_RADIUS or the step
    count passes MAX_STEPS, even on the step holding the stop zero, which
    is then not counted; StiffnessError if the step collapses.
    """
    if p.lam != 1.0:
        raise ValueError(f"integrate_radial runs at lambda = 1, got {p.lam!r}")
    if not (MIN_AMPLITUDE <= s < math.inf):
        raise ValueError(f"amplitude must be finite, >= {MIN_AMPLITUDE!r}, got {s!r}")
    if n_zeros < 1:
        raise ValueError("need at least one zero to stop on")
    if settings is None:
        settings = SolverSettings()

    alpha, beta = p.alpha, p.beta
    rel, atol = settings.rel_tol, settings.abs_tol * min(1.0, s)  # u ~ s
    sb = s ** beta

    # ---- start: E = E_START, u = s to machine precision -------------------
    sq, sq_lo = _two_prod(s, s)
    rest = math.log(s) + alpha * sb
    t_e = 0.5 * (_E_START - rest - sq)
    t0 = min(t_e, _LOG_R_START_MAX)
    # E0 = 2 t0 + s^2 + rest, with s^2 carried exactly: at large s the
    # first two terms cancel to within rest
    hi, lo = _two_sum(2.0 * t0, sq)
    E0 = (hi + rest) + (lo + sq_lo)
    K = 2.0 * s + 1.0 / s + alpha * beta * sb / s
    frame = _Frame(s, K, t0, E0)
    # for the channel: kp = K'/K, phi_s = (ln K + E0)', t0_s = t0' (-K/2
    # unless t0 is pinned) and tk_s = t0' + (sK)'/4, its s^2/2 terms cancelled
    kp = (2.0 - 1.0 / sq + alpha * beta * (beta - 1.0) * sb / sq) / K
    sk_s = 4.0 * s + alpha * beta * beta * sb / s  # (sK)'
    phi_s, t0_s, tk_s = (kp + K, 0.0, 0.25 * sk_s) if t_e > _LOG_R_START_MAX else (
        kp, -0.5 * K, 0.25 * alpha * beta * (beta - 2.0) * sb / s - 0.5 / s)

    t_max = math.log(MAX_RADIUS)
    zeros: list = []
    peaks: list = []
    steps: list = []

    def keep(step, events=()):  # events: (t, 0 for a zero | 1 for a peak, value)
        steps.append(step)
        t1 = step.t1
        if t1 > t_max or len(steps) > MAX_STEPS:
            radius = math.exp(min(t1, _LOG_MAX))
            raise ZeroNotReachedError(
                f"radius cap {MAX_RADIUS!r} reached with {len(zeros)} zero(s) found"
                if t1 > t_max else
                f"step budget {MAX_STEPS} exhausted at radius {radius!r}",
                zeros_found=len(zeros), radius=radius)
        for tx, kind, value in sorted(events):
            if kind:
                peaks.append((tx, value))
            else:
                zeros.append((tx, value))
                if len(zeros) >= n_zeros:
                    return True
        return False

    # ---- stretch 1: the first bubble, in (tau, D) -------------------------
    exp, log1p, expm1 = math.exp, math.log1p, math.expm1
    ln_a, asb, inv_k, inv_s = frame.ln_a, alpha * sb, 1.0 / K, 1.0 / s

    def rhs_bubble(tau, y):
        z_l, q, omq = _liouville(ln_a + 2.0 * tau)
        dev = y[0]
        d = (z_l + dev) * inv_k
        x = d * inv_s
        if x < -0.99:
            x = -0.99
        lx = log1p(x)
        rb = expm1(beta * lx) - beta * x  # R's beta-term over alpha*s^beta
        dr = dev + (lx - x) + d * d + asb * rb
        e = E0 + 2.0 * tau + z_l + dr
        g = exp(e if e < _E_CLIP else _E_CLIP)
        ut = (y[1] - 4.0 * q) * inv_k
        dpp = -8.0 * q * omq * expm1(dr if dr < _E_CLIP else _E_CLIP)
        if len(y) == _NCOMP:
            return (y[1], dpp, ut * ut, (s + d) * g, g * ut, g)
        # the channel: V'' = d/ds (Z_L'' expm1(D + R)) at fixed tau, where
        # d/ds Z_L'' = Z_L'' (1 - 2q) phi_s and Z_L'' expm1(D + R) = D''
        d_s = (y[6] - 2.0 * q * phi_s) * inv_k - d * kp
        x_s = (d_s - x) * inv_s
        v_r = (y[6] + 2.0 * d * d_s  # V + R_s
               + (beta * asb * expm1((beta - 1.0) * lx) - x / (1.0 + x)) * x_s
               + beta * asb * inv_s * rb)
        return (y[1], dpp, ut * ut, (s + d) * g, g * ut, g, y[7],
                dpp * ((omq - q) * phi_s + v_r) - 8.0 * q * omq * v_r)

    # D and D' enter u = s + Z/K through 1/K; past the bubble D' also sets
    # the slope over the flight of length ~s^2/2, and the zero at its end
    # moves by ~s^2/8 times the error of D'.  These absolute tolerances
    # keep u, and that zero's log radius, within ~abs_tol.
    a_dev = K * atol / (1.0 + 0.5 * s * s)
    a_bubble = (a_dev, a_dev / (1.0 + 0.5 * s), atol, atol, atol, atol)
    e_quiet = _E_QUIET + min(0.0, math.log(s))  # quiet relative to u ~ s

    def awake(t, u):  # the flight's landing and scale_plain's weighting
        return u != 0.0 and _exponent(t, abs(u), alpha, beta) >= e_quiet

    g_quiet = exp(e_quiet)

    def on_bubble_step(step):
        # a step that ends at u <= 0 has passed the first zero: retake it at
        # half its length.  Else hand over once the FSAL stage's forcing is
        # below exp(e_quiet) (E starts >= 20 above it and climbs to the
        # bubble before it falls), or once u < s/2
        u1 = step.end()[0]
        if u1 <= 0.0:
            return step.x0 + 0.5 * step.h
        keep(step)
        return step._ks[8][5] < g_quiet or u1 < (1.0 - _HANDOFF_DROP) * s

    def scale_bubble(x, y, x1, y1):
        return tuple(a_bubble[j] + rel * max(abs(y[j]), abs(y1[j]))
                     for j in _RANGE)

    step, h = _march(rhs_bubble, frame, 0.0,
                     frame.head(0.0) + ((0.0, 0.0) if sensitivity else ()), 0.1,
                     scale_bubble, on_bubble_step)
    t_hand, h, yf = step.t1, min(h, 1.0), step.y1
    y = step.end()
    z_l, q, omq = _liouville(ln_a + 2.0 * step.x1)
    if sensitivity:  # (w, w_t) from u = s + (Z_L + D)/K; D'' is the FSAL stage's
        zh_s, c_s = yf[6] - 2.0 * q * phi_s, yf[7] - 4.0 * q * omq * phi_s
        kut = yf[1] - 4.0 * q  # K u_t
        y += (1.0 + (zh_s - t0_s * kut - (z_l + yf[0]) * kp) * inv_k,
              (c_s - kut * kp - t0_s * (step._ks[8][1] - 8.0 * q * omq))
              * inv_k)

    # ---- stretch 2: free flight while E < E_QUIET ---------------------------
    if step._ks[8][5] < g_quiet:
        # the forcing (< 1e-26) is dropped: u = sigma*(t_z - t), its zero
        # t_z ~ t0 + s^2/2 + O(s^beta) formed with the s^2/2 cancelled exactly
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

        def woken(t):
            return awake(t, line(t)[0])

        # land where E climbs back to the quiet level: before the zero if the
        # local maximum of E there (at u ~ sigma/2) reaches it, else past it
        u_m = 0.5 * sigma
        for _ in range(50):
            den = 2.0 / sigma - 2.0 * u_m - alpha * beta * u_m ** (beta - 1.0)
            u_m = 1.0 / den if den > 0.0 else math.inf
            if u_m >= u_h:
                break
        lo, hi = t_hand, t_z - u_m / sigma
        if not (u_m < u_h and woken(hi)):
            dt = 1.0 / sigma
            while not woken(t_z + dt):
                dt *= 2.0
            lo, hi = t_z, t_z + dt
        t_b = _line_search(woken, lo, hi)
        crossed = t_z < t_b
        if crossed and len(zeros) + 1 >= n_zeros:  # the stop zero
            t_b = t_z
        y_b = line(t_b) + ((sigma * tz_s + sigma_s * (t_z - t_b), -sigma_s)
                           if sensitivity else ())

        def rhs_flight(t, y):  # the forcing dropped: u is linear in t
            return (y[1], 0.0, y[1] * y[1], 0.0, 0.0, 0.0)

        flight = _Step(_IDENTITY, t_hand, t_b - t_hand, t_b, y, y_b, rhs_flight, None,
                       (tuple(b - a for a, b in zip(y, y_b)),) + ((0.0,) * len(y_b),) * 6)
        if keep(flight, [(t_z, 0, -sigma)] if crossed else ()):
            return Trajectory(steps, zeros, peaks,
                              log_slope=2.0 * s * tz_s if sensitivity else None)
        t_hand, y = t_b, y_b

    # ---- stretch 3: absolute t -----------------------------------------------
    def rhs_plain(t, y):
        u, ut = y[0], y[1]
        g = _source(t, u, alpha, beta)
        if len(y) == _NCOMP:
            return (ut, -g, ut * ut, u * g, g * ut, g)
        # the channel: w_tt = -w d/du(sign(u) e^E) = -w (g/u) |u| dE/du
        dg = g / u * _u_de_du(abs(u), alpha, beta) if u != 0.0 else exp(2.0 * t)
        return (ut, -g, ut * ut, u * g, g * ut, g, y[7], -dg * y[6])

    landed = [None]

    def on_plain_step(step):
        y0, y1 = step.y0, step.y1
        events = []
        # a zero is this step's if it crosses it or starts on it (theta = 0)
        if (y0[0] > 0.0) != (y1[0] > 0.0):
            th = _dense_root(step, 0, 0.0, 1.0)
            tz = step.x0 + th * step.h
            events.append((tz, 0, step.value(tz, 1)))
            if len(zeros) + 1 == n_zeros:
                # the stop zero: retake a long step to end just past it,
                # so that the trajectory does not run on far beyond it
                land = tz + _LAND_MARGIN * (tz - step.x0)
                if step.x0 < tz and land < step.x1:
                    return land
            elif step.x0 < tz and landed[0] not in (step.x0, step.x1):
                # u*|u|^beta is not smooth at a zero: a step across it costs
                # up to 2.4e-10 in ln(lambda).  Retake the step to end on it;
                # it and the next step keep a zero rounding left at an end
                landed[0] = tz
                return tz
        if y0[1] * y1[1] < 0.0:
            th = _dense_root(step, 1, 0.0, 1.0)
            tp = step.x0 + th * step.h
            events.append((tp, 1, abs(step.value(tp, 0))))
        return keep(step, events)

    def scale_plain(x, y, x1, y1):
        # where the forcing is awake, an error in u moves E by dE/du times
        # as much: weigh u and u_t by it, so that later bubbles keep E (not
        # just u) to rel_tol -- the same trap the bubble frame avoids
        # (but never below what binary64 resolves: 64 ulp)
        m = max(abs(y[0]), abs(y1[0]))
        m1 = max(abs(y[1]), abs(y1[1]))
        kappa = _u_de_du(m, alpha, beta) if awake(x, y[0]) or awake(x1, y1[0]) else 1.0
        return (max((atol + rel * m) / kappa, _ULP64 * m),
                max((atol + rel * m1) / kappa, _ULP64 * m1),
                atol + rel * max(abs(y[2]), abs(y1[2])),
                atol + rel * max(abs(y[3]), abs(y1[3])),
                atol + rel * max(abs(y[4]), abs(y1[4])),
                atol + rel * max(abs(y[5]), abs(y1[5])))

    step, _ = _march(rhs_plain, _IDENTITY, t_hand, y, h, scale_plain, on_plain_step)
    if not sensitivity:
        return Trajectory(steps, zeros, peaks)
    t_n, ru_n = zeros[-1]  # w(t_n) on the dense output
    w = step.value(t_n, _NCOMP)
    return Trajectory(steps, zeros, peaks, log_slope=-2.0 * s * w / ru_n)

