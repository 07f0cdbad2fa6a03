"""Saddle points of the two phase functions and the contour topology built
on them.

The scaled Wright functions are Laplace-type contour integrals of
exp(x*h(u)) where the phase is

    minus sign:  h(u) = (e^u - e^(-lam*u))/2 - a*u
    plus sign:   h(u) = (e^u + e^(-lam*u))/2 - a*u

The integration contour runs from infinity below the real axis (Im u = -pi)
around to infinity above it (Im u = +pi) and is deformed onto steepest
descent paths.  Which saddles those paths cross decides the shape of the
asymptotic expansion, so alongside the root-finding (in doubles, with an
mpmath Newton polish for the expansions) this module carries the
descent-path tracer, `contour` (the contributory saddles of either phase),
and the parameter-plane boundaries where the saddle configuration
changes.  Every real root comes from `newton_root`: Newton's method on
a derivative the caller has at hand (h'' beside h'), kept inside a
sign-change bracket.  Every complex saddle, and every polish, comes from
`_newton`: Newton's method on h' = 0 in the arithmetic of its start,
complex doubles from a seed ladder or mpmath from a located saddle.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import mpmath as mp

from .core import DomainError, Sign, check_lam_a


class NoRealSaddle(ValueError):
    """Minus phase: no real stationary point for these parameters."""


class ConvergenceFailure(RuntimeError):
    """Root iteration failed to locate a saddle."""


class StepFailure(RuntimeError):
    """Descent-path integration stalled or ran out of steps."""


class OnStokesBoundary(RuntimeError):
    """Parameters sit on (or numerically at) a contour-change boundary,
    where the contributory count is ambiguous."""


class NoBoundary(ValueError):
    """No contour-change boundary exists in the scanned parameter range."""


@dataclass(frozen=True)
class Phase:
    """One of the two phase functions, with its parameters attached.
    derivs evaluates it; h and dh are views of derivs."""

    lam: float
    a: float
    sign: Sign

    def __post_init__(self) -> None:
        check_lam_a(self.lam, self.a)
        object.__setattr__(self, "_half",
                           -0.5 if self.sign is Sign.MINUS else 0.5)

    # on first mp use only (scans build a Phase per level); float->mpf is exact
    @functools.cached_property
    def _mp_params(self) -> tuple:
        return mp.mpf(self.lam), mp.mpf(self.a), mp.mpf(self._half)

    def parts(self, u) -> tuple:
        """lam, a, P = e^u/2 and Q = +-e^(-lam u)/2 in u's own arithmetic:
        mpmath for an mpf or mpc, cmath for a complex, math otherwise."""
        t = type(u)
        if t is mp.mpf or t is mp.mpc:
            lam, a, half = self._mp_params
            return lam, a, mp.exp(u) / 2, half * mp.exp(-lam * u)
        exp = cmath.exp if t is complex else math.exp
        return self.lam, self.a, 0.5 * exp(u), self._half * exp(-self.lam * u)

    def derivs(self, u, n: int, parts: tuple | None = None) -> list:
        """[h(u), h'(u), ..., h^(n)(u)] from one evaluation of parts(u),
        or from parts where the caller has it: h = P + Q - a u and h^(k) =
        P + (-lam)^k Q, less a for k = 1."""
        lam, a, p, q = parts or self.parts(u)
        out = [p + q - a * u]
        if n:
            out.append(p - lam * q - a)
            for k in range(2, n + 1):
                out.append(p + (-lam) ** k * q)
        return out

    def h(self, u):
        return self.derivs(u, 0)[0]

    def dh(self, u):
        return self.derivs(u, 1)[1]


class SaddleKind(enum.Enum):
    REAL_SIMPLE = "real_simple"
    COMPLEX_PAIR = "complex_pair"
    REAL_DOUBLE = "real_double"


class Regime(enum.Enum):
    SINGLE_REAL = "single_real"
    TWO_REAL = "two_real"
    CONJUGATE_PAIR = "conjugate_pair"
    DOUBLE = "double"
    CHAIN = "chain"


@dataclass(frozen=True)
class Saddle:
    """A stationary point of the phase.  Conjugate pairs are stored through
    their upper-half-plane representative; index 0 is the real or principal
    saddle, index k >= 1 the k-th member of the plus-phase complex chain."""

    location: complex
    phase_value: complex
    second_derivative: complex
    index: int
    kind: SaddleKind


@dataclass(frozen=True)
class Contour:
    """The saddles one phase's steepest-descent contour crosses.

    regime tags the configuration: on the minus axis the single real
    saddle (lam <= 0), the larger of two real saddles, the conjugate pair
    (through its upper member) or the double saddle; on the plus axis
    CHAIN, the real saddle followed by the contributory chain pairs.
    saddles lists the contributory saddles, the primary one first, and
    last_pair_subdominant records whether the final chain pair's
    contribution decays exponentially (Re h(u_N) < 0).  off_contour holds
    the two-real regime's smaller real saddle, which the contour misses.
    """

    regime: Regime
    saddles: tuple[Saddle, ...]
    last_pair_subdominant: bool = False
    off_contour: Saddle | None = None


_RESIDUAL_TOL = 1e-12
# relative distance from the coalescence curve inside which the
# simple-saddle series degenerate, so contour takes the double saddle
_NEAR_CURVE_REL = 1e-6
_POLISH_STEPS = 6
# a step this many ulp or shorter ends an mp Newton polish: there u can
# cycle in its last bits (by 4e-52 to 2e-51 at 50 digits at (1.5, 0.5, -))
_POLISH_ULPS = 16
_MAX_PAIRS = 64
_MAX_DESCENT_STEPS = 500000
# the range of a in which stokes_boundary looks for a level sign change
_BOUNDARY_A_MIN = 0.02
_BOUNDARY_A_MAX = 4.0


def _make_saddle(u, derivs: list, index: int, kind: SaddleKind) -> Saddle:
    h0, h1, h2 = derivs  # [h, h', h''] at u, from the root-finder
    if abs(h1) > _RESIDUAL_TOL * max(1.0, abs(h2)):
        raise ConvergenceFailure(
            f"saddle residual {abs(h1):.2e} out of tolerance at u={u}")
    return Saddle(
        location=complex(u),
        phase_value=complex(h0),
        second_derivative=complex(h2),
        index=index,
        kind=kind,
    )


def _sup(v):
    """max(|Re v|, |Im v|), in v's own arithmetic (|v| for a real v)."""
    return max(abs(v.real), abs(v.imag))


def _newton(phase: Phase, u, steps: int, tol):
    """Up to `steps` Newton steps on h' = 0 from u, in u's own arithmetic
    (complex doubles, or an mpf or mpc); returns u, [h, h', h''] there and
    the Phase.parts(u) they came from.  The iteration ends where h'' = 0
    or where the next step would move u by at most tol in the larger of
    |Re| and |Im| (no square root), so that a u cycling in its last bits
    costs no further evaluation."""
    parts = phase.parts(u)
    d = phase.derivs(u, 2, parts)
    for _ in range(steps):
        if not d[2]:
            break
        step = d[1] / d[2]
        if _sup(step) <= tol:
            break
        u = u - step
        parts = phase.parts(u)
        d = phase.derivs(u, 2, parts)
    return u, d, parts


def u_star(lam):
    """u* = 2 ln|lam|/(1+lam) in lam's own arithmetic (mpmath for an mpf),
    where the minus phase's h'' vanishes: the double saddle on the curve."""
    log = mp.log if type(lam) is mp.mpf else math.log
    return 2 * log(abs(lam)) / (1 + lam)


def double_saddle_curve(lam: float) -> float:
    """Parameter ratio a at which the two minus-phase real saddles
    coalesce: a = ((1+lam)/2) * lam^((1-lam)/(1+lam)), defined for lam > 0."""
    if lam <= 0.0:
        raise DomainError("coalescence curve requires lam > 0")
    return 0.5 * (1.0 + lam) * lam ** ((1.0 - lam) / (1.0 + lam))


def double_saddle_point(lam: float) -> Saddle:
    """The coalesced (double) saddle u0 = u_star(lam) on the curve.

    Second derivative vanishes identically there; stored as exact zero.
    """
    phase = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    u0 = u_star(lam)
    return Saddle(
        location=complex(u0),
        phase_value=complex(phase.h(u0)),
        second_derivative=0j,
        index=0,
        kind=SaddleKind.REAL_DOUBLE,
    )


_ROOT_STEPS = 100


def newton_root(fd, lo: float, hi: float, xtol: float = 0.0) -> float:
    """A root of f in [lo, hi], where fd(x) gives (f(x), f'(x)), by
    Newton's method kept inside the shrinking sign-change bracket (rtsafe,
    Numerical Recipes 9.4).  It starts at the secant point of the ends,
    bisects where a Newton step would not land strictly inside, and
    returns an exact zero (an end's too), or x once a step moves it by at
    most xtol (so for xtol = 0, once a step leaves it unchanged).  Raises
    ValueError on a NaN f or a same-sign bracket, and ConvergenceFailure
    after _ROOT_STEPS steps.
    """
    flo, fhi = fd(lo)[0], fd(hi)[0]
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    lo_negative = flo < 0.0
    if flo != flo or fhi != fhi or lo_negative == (fhi < 0.0):
        raise ValueError(
            f"f does not change sign on [{lo}, {hi}]: {flo}, {fhi}")
    x = lo - flo * (hi - lo) / (fhi - flo)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(_ROOT_STEPS):
        f, df = fd(x)
        if f != f:
            raise ValueError(f"f is NaN at x={x}")
        if f == 0.0:
            return x
        if (f < 0.0) == lo_negative:
            lo = x
        else:
            hi = x
        new = x - f / df if df else math.nan
        if not (lo < new < hi or abs(new - x) <= xtol):
            new = 0.5 * (lo + hi)
        if abs(new - x) <= xtol:
            return new
        x = new
    raise ConvergenceFailure(
        f"no root within xtol={xtol} after {_ROOT_STEPS} steps "
        f"in [{lo}, {hi}]")


def _bracket(f, start: float, step: int) -> tuple[float, float]:
    """Walk from start, right for step = +1 and left for step = -1, until
    f turns positive; f(start) must be <= 0.  Returns the ascending
    bracket."""
    end = start + step
    for _ in range(200):
        if f(end) > 0.0:
            return (start, end) if step > 0 else (end, start)
        end += step * max(1.0, 0.5 * abs(end))
    raise ConvergenceFailure("no sign change found expanding "
                             + ("right" if step > 0 else "left"))


def solve_real_saddle(phase: Phase):
    """Real stationary points.

    Plus phase: the derivative grows monotonically, so there is exactly one
    real saddle for every lam > -1; returns a single Saddle.

    Minus phase: for -1 < lam <= 0 a single root (returned alone); for
    lam > 0 the exponential sum is convex with its minimum at
    u* (u_star), so there are two roots when a exceeds the
    coalescence curve (returned as an ascending pair) and none below it
    (NoRealSaddle).  On the curve itself both entries collapse onto the
    double point.

    Each root is bracketed by a sign change of h' and located by
    newton_root on (h', h'').
    """
    lam, a = phase.lam, phase.a
    f = phase.dh

    def fd(u: float) -> list:
        return phase.derivs(u, 2)[1:]

    def simple(root: float) -> Saddle:
        return _make_saddle(root, phase.derivs(root, 2), 0,
                            SaddleKind.REAL_SIMPLE)

    if phase.sign is Sign.PLUS:
        # monotone increasing from -a (at -inf on the lam>0 side) to +inf
        bracket = (_bracket(f, 0.0, 1) if f(0.0) <= 0.0
                   else _bracket(lambda u: -f(u), 0.0, -1))
        return simple(newton_root(fd, *bracket))

    # minus phase
    if lam <= 0.0:
        # derivative dips then rises; the single root sits on the rising branch
        if lam == 0.0:
            root = math.log(2.0 * a)
        else:
            root = newton_root(fd, *_bracket(f, u_star(lam), 1))
        return simple(root)

    us = u_star(lam)
    _, f_min, h2 = phase.derivs(us, 2)
    scale = max(1.0, abs(h2))
    if f_min > _RESIDUAL_TOL * scale:
        raise NoRealSaddle(
            f"no real saddle: a={a} lies below the coalescence curve "
            f"{double_saddle_curve(lam):.12g} at lam={lam}")
    if f_min > -_RESIDUAL_TOL * scale:
        d = double_saddle_point(lam)
        return d, d
    right = newton_root(fd, *_bracket(f, us, 1))
    left = newton_root(fd, *_bracket(f, us, -1))
    return simple(left), simple(right)


def polish_saddle(phase: Phase, location: complex):
    """Newton-polish a double-precision saddle location at the working
    mpmath precision; returns (u0, h(u0), h''(u0), Phase.parts(u0)), in
    mpf when the location is real and in mpc otherwise, the parts as
    the coefficient engine takes them.

    The location must actually be stationary for this phase: a point
    with |h'| above 1e-10 of the local derivative scale (for instance a
    saddle solved under the other sign) is rejected.
    """
    _, grad, h2, h3 = phase.derivs(location, 3)
    scale = max(1.0, abs(h2), abs(h3))
    if abs(grad) > 1e-10 * scale:
        raise DomainError(
            f"location {location} is not a stationary point of this phase "
            f"(|h'| = {abs(grad):.2e})")
    u = mp.mpc(location) if location.imag != 0 else mp.mpf(location.real)
    # u moves by far less than itself, so the tolerance is set once
    u, (h0, _, h2), pq = _newton(phase, u, _POLISH_STEPS,
                                 _POLISH_ULPS * mp.eps * _sup(u))
    return u, h0, h2, pq


def _ladder_saddle(phase: Phase, base: complex, shifts: tuple, window,
                   index: int, what: str) -> Saddle:
    """The first root that up to 120 steps of _newton reach from base +
    shift, shift by shift in order, with Im u > 0, window(Im u) and a
    residual _make_saddle accepts; ConvergenceFailure, saying what was
    not found, when none does."""
    for shift in shifts:
        seed = base + shift
        try:
            u, d, _ = _newton(phase, seed, 120, 1e-15 * max(1.0, abs(seed)))
            if u.imag > 0 and window(u.imag):
                return _make_saddle(u, d, index, SaddleKind.COMPLEX_PAIR)
        except (OverflowError, ConvergenceFailure):
            pass
    raise ConvergenceFailure(f"{what} for lam={phase.lam}, a={phase.a}")


def solve_complex_pair(phase: Phase) -> Saddle:
    """Minus phase below the coalescence curve: the conjugate saddle pair,
    returned through its upper-half member (0 < Im u < pi).

    Seeds damped Newton from the convexity minimum lifted progressively off
    the axis; continuation over the seed ladder covers the whole region.
    """
    if phase.sign is not Sign.MINUS:
        raise DomainError("solve_complex_pair applies to the minus phase")
    lam, a = phase.lam, phase.a
    if lam <= 0.0:
        raise DomainError("conjugate pair requires lam > 0")
    if a >= double_saddle_curve(lam) - 1e-13:
        raise DomainError(
            "parameters on or above the coalescence curve have real saddles")
    return _ladder_saddle(phase, complex(u_star(lam), 0.0),
                          (0.3j, 0.5j, 0.7j, 0.9j, 1.2j, 1.6j, 2.1j, 2.7j),
                          lambda y: 1e-9 < y < math.pi, 0,
                          "conjugate pair not located")


# ln(2^(2/3) Gamma(1/3) sin(pi/3) / (3 pi)): the double-saddle series'
# k = 0 term (B_0 = 1) without its e^(x h0) (H x/3)^(-1/3)
_LN_DOUBLE_LEAD = math.log(2 ** (2 / 3) * math.gamma(1 / 3)
                           * math.sin(math.pi / 3) / (3 * math.pi))


def minus_log_scale(lam: float, a: float, x: float) -> float:
    """ln|W-(lam, a; x)| as the leading steepest-descent term gives it, in
    doubles.

    At the contributory real saddle that is x Re h(u0) - ln(2 pi x
    |h''(u0)|)/2; a conjugate pair adds ln 2, which bounds the pair's sum
    2 Re(...) without its cosine; in the double regime (within 1e-6 of the
    coalescence curve, where the expansions take the double route) it is
    that route's k = 0 term, at this a.  Raises what contour raises.
    """
    c = contour(lam, a, Sign.MINUS)
    if c.regime is Regime.DOUBLE:
        h0, _, _, h3 = Phase(lam, a, Sign.MINUS).derivs(u_star(lam), 3)
        return x * h0 + _LN_DOUBLE_LEAD - math.log(2 * abs(h3) * x / 3) / 3
    s = c.saddles[0]
    out = (x * s.phase_value.real
           - math.log(2 * math.pi * x * abs(s.second_derivative)) / 2)
    return out + math.log(2) if s.kind is SaddleKind.COMPLEX_PAIR else out


def chain_member(phase: Phase, k: int) -> Saddle:
    """Member k (from 1) of the plus-phase complex saddle string, by
    Newton from a short ladder of real-part seeds at its level; members
    are solved independently.

    Member k sits near Im u = (2k-1)*pi/lam: the first inside
    (pi/lam, 3*pi/lam), later ones within half a strip of the estimate.
    """
    if phase.sign is not Sign.PLUS:
        raise DomainError("the complex saddle chain belongs to the plus phase")
    lam = phase.lam
    if lam <= 0.0:
        raise DomainError("chain saddles require lam > 0")
    y_est = (2 * k - 1) * math.pi / lam
    if k == 1:
        # closed lower edge: at lam = 1 the first saddle sits
        # exactly on Im u = pi/lam (u = i pi - arcsinh(a))
        def window(y):
            return math.pi / lam - 1e-9 <= y < 3.0 * math.pi / lam
    else:
        def window(y):
            return abs(y - y_est) < math.pi / lam
    return _ladder_saddle(phase, complex(0.0, y_est),
                          (0.0, 0.1, 0.2, 0.3, 0.5, -0.1, 0.8, 1.2), window,
                          k, f"chain saddle {k} not found")


class PathBranch(enum.Enum):
    UPPER_LEFT = "upper_left"
    UPPER_RIGHT = "upper_right"


class Terminus(enum.Enum):
    INFINITY_PLUS_PI = "infinity_plus_pi"
    MINUS_INFINITY_STRIP = "minus_infinity_strip"


@dataclass(frozen=True)
class PathOutcome:
    terminus: Terminus
    samples: list[complex]
    strip_index: int | None = None  # odd multiple of pi/lam reached, if any


def _descent_rays(h2: complex) -> tuple[complex, complex]:
    """Unit vectors of the two descent directions at a simple saddle:
    angles where h''(u) e^(2 i theta) is real negative."""
    th = (math.pi - cmath.phase(h2)) / 2.0
    return cmath.exp(1j * th), cmath.exp(1j * (th + math.pi))


def _pick_ray(saddle: Saddle, branch: PathBranch) -> complex:
    r1, r2 = _descent_rays(saddle.second_derivative)
    if saddle.kind is SaddleKind.REAL_SIMPLE:
        # a real saddle has one upper descent path; both branch labels take it
        return r1 if r1.imag > 0 else r2
    left, right = (r1, r2) if r1.real < r2.real else (r2, r1)
    return left if branch is PathBranch.UPPER_LEFT else right


def _known_saddles(phase: Phase) -> list[Saddle]:
    """Saddles a descent path passes close to, where its steps shrink:
    on the plus axis the real saddle and, for lam > 0 (as in contour),
    the first chain members."""
    if phase.sign is Sign.PLUS:
        known = [solve_real_saddle(phase)]
        if phase.lam <= 0.0:
            return known
        # chain members up to one strip above the endpoint valley matter
        kmax = max(1, int((phase.lam + 3.0) / 2.0) + 1)
        try:
            known.extend([chain_member(phase, k) for k in range(1, kmax + 1)])
        except ConvergenceFailure:
            pass
        return known
    return list(contour(phase.lam, phase.a, Sign.MINUS).saddles)


def trace_descent_path(phase: Phase, from_saddle: Saddle,
                       branch: PathBranch) -> PathOutcome:
    """Follow a steepest descent path from a simple saddle.

    Integrates du/ds = -conj(h'(u))/|h'(u)| with RK4 and projects each step
    back onto the level set Im h = Im h(saddle).  Steps adapt to the local
    second derivative within [1e-3, 1e-1] and shrink to 2e-4 near other
    saddles so close passages are resolved instead of hopped over.

    Terminates at Re u > 20 (the right-hand valley toward infinity with
    Im u near pi) or Re u < -20 (a left-hand strip valley at an odd
    multiple of pi/lam; meaningful for the plus phase).
    """
    if from_saddle.kind is SaddleKind.REAL_DOUBLE:
        raise DomainError("descent tracing from a double saddle is not supported")
    others = [s for s in _known_saddles(phase)
              if abs(s.location - from_saddle.location) > 1e-9]
    level = phase.h(from_saddle.location).imag
    direction = _pick_ray(from_saddle, branch)
    u = from_saddle.location + 1e-6 * direction
    samples = [from_saddle.location, u]

    def flow(v: complex) -> complex:
        d = phase.dh(v)
        m = abs(d)
        return -d.conjugate() / m if m > 0 else 0.0j

    for it in range(_MAX_DESCENT_STEPS):
        _, g, h2 = phase.derivs(u, 2)
        ag = abs(g)
        near = min((abs(u - s.location) for s in others), default=math.inf)
        cap = 2e-4 if near < 0.5 else 0.1
        floor = 2e-4 if near < 0.5 else 1e-3
        step = min(cap, max(floor, 0.05 * ag / max(abs(h2), 1e-9)))
        k1 = flow(u)
        k2 = flow(u + 0.5 * step * k1)
        k3 = flow(u + 0.5 * step * k2)
        k4 = flow(u + step * k3)
        du = (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if abs(du) < 1e-15:
            raise StepFailure(f"descent step underflow at u={u}")
        u = u + du
        hu, g2 = phase.derivs(u, 1)
        if abs(g2) > 1e-13:
            delta = level - hu.imag
            corr = 1j * delta * g2.conjugate() / abs(g2) ** 2
            if abs(corr) < 0.5 * step:
                u = u + corr
        if it % 50 == 0:
            samples.append(u)
        if u.real > 20.0:
            samples.append(u)
            return PathOutcome(Terminus.INFINITY_PLUS_PI, samples)
        if u.real < -20.0:
            samples.append(u)
            strip = round(u.imag * phase.lam / math.pi)
            return PathOutcome(Terminus.MINUS_INFINITY_STRIP, samples,
                               strip_index=strip)
    raise StepFailure(
        f"descent path did not terminate in {_MAX_DESCENT_STEPS} steps")


def contour(lam: float, a: float, sign: Sign) -> Contour:
    """The contributory saddles of the phase of this sign.

    Minus phase: for lam > 0 the coalescence curve a* splits the plane:
    above it two real saddles (only the larger lies on the descent
    contour; the path through the smaller, off_contour, is a steepest
    ascent), below it a conjugate pair.  Within |a - a*| <= 1e-6 *
    max(1, a*), where the simple-saddle series degenerate, the regime is
    DOUBLE (the expansions' route there, and what `wright saddles`
    reports) and the saddle is the double saddle on the curve.

    Plus phase: the real saddle, then the chain pairs on the deformed
    contour.  Pair k is on the contour while the imaginary part of its
    phase value stays above the level of the real saddle (zero); counting
    stops at the first pair at or below it.  The sign change of Im h(u_k)
    in the parameter plane is exactly where the descent path topology
    reconnects (pair k joins or leaves the contour), which is what
    stokes_boundary locates.  Raises OnStokesBoundary when the first
    non-counted pair sits within 1e-6 (in a-distance) of its sign change,
    where the count is ambiguous.
    """
    phase = Phase(lam, a, sign)
    if sign is Sign.MINUS:
        if lam <= 0.0:
            return Contour(Regime.SINGLE_REAL, (solve_real_saddle(phase),))
        curve = double_saddle_curve(lam)
        if abs(a - curve) <= _NEAR_CURVE_REL * max(1.0, curve):
            return Contour(Regime.DOUBLE, (double_saddle_point(lam),))
        if a > curve:
            smaller, larger = solve_real_saddle(phase)
            return Contour(Regime.TWO_REAL, (larger,), off_contour=smaller)
        return Contour(Regime.CONJUGATE_PAIR, (solve_complex_pair(phase),))
    members = [solve_real_saddle(phase)]
    if lam <= 0.0:
        # both exponentials grow rightward: no complex string to count
        return Contour(Regime.CHAIN, tuple(members))
    for k in range(1, _MAX_PAIRS + 1):
        sadl = chain_member(phase, k)
        im = sadl.phase_value.imag
        # the level margin in parameter distance: |d Im h(u_k)/da| = Im u_k
        if abs(im) < 1e-6 * max(1.0, sadl.location.imag):
            raise OnStokesBoundary(
                f"pair {k} sits on the contour-change boundary at "
                f"lam={lam}, a={a}")
        if im > 0.0:
            members.append(sadl)
        else:
            break
    sub = len(members) > 1 and members[-1].phase_value.real < 0.0
    return Contour(Regime.CHAIN, tuple(members), sub)


def stokes_boundary(lam: float, pair_index: int) -> float:
    """Parameter a in [0.02, 4] at which chain pair `pair_index` joins or
    leaves the contour for fixed lam: the root of Im h(u_k)(a) = 0.

    The level falls strictly in a (h' = 0 at u_k, so d Im h(u_k)/da =
    -Im u_k <= -(pi/lam - 1e-9) for every member chain_member accepts):
    it changes sign at most once.  So bisecting the indices of an 80-point
    log grid on [0.02, 4] finds the cell a scan from 0.02 would, and
    newton_root refines it on that level and slope, both from one member
    solve, returning an exact zero at a grid point as it is.  Raises
    NoBoundary when the level has one sign at both range ends.
    """
    if pair_index < 1:
        raise DomainError("pair_index counts from 1")

    @functools.cache
    def level(a: float) -> tuple:
        sadl = chain_member(Phase(lam, a, Sign.PLUS), pair_index)
        return sadl.phase_value.imag, -sadl.location.imag

    n_scan = 80
    grid = [_BOUNDARY_A_MIN * (_BOUNDARY_A_MAX / _BOUNDARY_A_MIN)
            ** (i / (n_scan - 1.0)) for i in range(n_scan)]
    below = level(grid[0])[0] < 0.0
    lo, hi = 0, n_scan - 1
    if (level(grid[hi])[0] < 0.0) == below:
        raise NoBoundary(
            f"pair {pair_index} has no level sign change for lam={lam} "
            f"in [{_BOUNDARY_A_MIN}, {_BOUNDARY_A_MAX}]")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = ((mid, hi) if (level(grid[mid])[0] < 0.0) == below
                  else (lo, mid))
    return newton_root(level, grid[lo], grid[hi], xtol=1e-10)
