"""Saddle points of the two phase functions and the contour topology built
on them.

The scaled Wright functions are Laplace-type contour integrals of
exp(x*h(u)) where the phase is

    minus sign:  h(u) = (e^u - e^(-lam*u))/2 - a*u
    plus sign:   h(u) = (e^u + e^(-lam*u))/2 - a*u

The integration contour runs from infinity below the real axis (Im u = -pi)
around to infinity above it (Im u = +pi) and is deformed onto steepest
descent paths.  Which saddles those paths cross decides the shape of the
asymptotic expansion, so alongside the root-finding this module carries the
descent-path tracer, the conjugate-pair counter for the plus phase, and the
parameter-plane boundaries where the saddle configuration changes.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

from scipy.optimize import brentq

from .core import DomainError, Sign


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
    """One of the two phase functions, with its parameters attached."""

    lam: float
    a: float
    sign: Sign

    def __post_init__(self) -> None:
        if self.lam <= -1.0:
            raise DomainError(f"lam must exceed -1, got {self.lam}")
        if self.a <= 0.0:
            raise DomainError(f"a must be positive, got {self.a}")

    @property
    def _s(self) -> float:
        return -1.0 if self.sign is Sign.MINUS else 1.0

    def h(self, u):
        if isinstance(u, complex):
            return 0.5 * (cmath.exp(u) + self._s * cmath.exp(-self.lam * u)) - self.a * u
        return 0.5 * (math.exp(u) + self._s * math.exp(-self.lam * u)) - self.a * u

    def dh(self, u):
        lam = self.lam
        if isinstance(u, complex):
            return 0.5 * (cmath.exp(u) - self._s * lam * cmath.exp(-lam * u)) - self.a
        return 0.5 * (math.exp(u) - self._s * lam * math.exp(-lam * u)) - self.a

    def dnh(self, u, n: int):
        """n-th derivative for n >= 2: (e^u + sign*(-lam)^n e^(-lam*u))/2."""
        if n < 2:
            raise ValueError("dnh covers n >= 2; use h/dh below that")
        lam = self.lam
        if isinstance(u, complex):
            return 0.5 * (cmath.exp(u) + self._s * (-lam) ** n * cmath.exp(-lam * u))
        return 0.5 * (math.exp(u) + self._s * (-lam) ** n * math.exp(-lam * u))

    def d2h(self, u):
        return self.dnh(u, 2)


class SaddleKind(enum.Enum):
    REAL_SIMPLE = "real_simple"
    COMPLEX_PAIR = "complex_pair"
    REAL_DOUBLE = "real_double"


class Regime(enum.Enum):
    SINGLE_REAL = "single_real"
    TWO_REAL = "two_real"
    CONJUGATE_PAIR = "conjugate_pair"
    DOUBLE = "double"


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
class SaddleClassification:
    regime: Regime
    contributory: list[Saddle]


@dataclass(frozen=True)
class RegionCount:
    """Contributory conjugate-pair count for the plus phase.

    saddles lists the real saddle followed by the n_pairs chain members on
    the deformed contour; last_pair_subdominant records whether the final
    pair's contribution decays exponentially (Re h(u_N) < 0).
    """

    n_pairs: int
    saddles: list[Saddle]
    last_pair_subdominant: bool


_RESIDUAL_TOL = 1e-12


def _make_saddle(phase: Phase, u, index: int, kind: SaddleKind) -> Saddle:
    h2 = phase.d2h(u)
    res = abs(phase.dh(u))
    if res > _RESIDUAL_TOL * max(1.0, abs(h2)):
        raise ConvergenceFailure(
            f"saddle residual {res:.2e} out of tolerance at u={u}")
    return Saddle(
        location=complex(u),
        phase_value=complex(phase.h(u)),
        second_derivative=complex(h2),
        index=index,
        kind=kind,
    )


def _newton_polish(phase: Phase, u: float, steps: int = 4) -> float:
    for _ in range(steps):
        d = phase.dh(u)
        dd = phase.d2h(u)
        if dd == 0:
            break
        u -= d / dd
    return u


def double_saddle_curve(lam: float) -> float:
    """Parameter ratio a at which the two minus-phase real saddles
    coalesce: a = ((1+lam)/2) * lam^((1-lam)/(1+lam)), defined for lam > 0."""
    if lam <= 0.0:
        raise DomainError("coalescence curve requires lam > 0")
    return 0.5 * (1.0 + lam) * lam ** ((1.0 - lam) / (1.0 + lam))


def double_saddle_point(lam: float) -> Saddle:
    """The coalesced (double) saddle u0 = 2 ln(lam)/(1+lam) on the curve.

    Second derivative vanishes identically there; stored as exact zero.
    """
    if lam <= 0.0:
        raise DomainError("double saddle requires lam > 0")
    u0 = 2.0 * math.log(lam) / (1.0 + lam)
    a = double_saddle_curve(lam)
    phase = Phase(lam, a, Sign.MINUS)
    return Saddle(
        location=complex(u0),
        phase_value=complex(phase.h(u0)),
        second_derivative=0j,
        index=0,
        kind=SaddleKind.REAL_DOUBLE,
    )


def _bracket_right(f, lo: float) -> tuple[float, float]:
    """Expand right from lo until f changes sign; f(lo) must be <= 0."""
    hi = lo + 1.0
    for _ in range(200):
        if f(hi) > 0.0:
            return lo, hi
        hi += max(1.0, 0.5 * abs(hi))
    raise ConvergenceFailure("no sign change found expanding right")


def _bracket_left(f, hi: float) -> tuple[float, float]:
    lo = hi - 1.0
    for _ in range(200):
        if f(lo) > 0.0:
            return lo, hi
        lo -= max(1.0, 0.5 * abs(lo))
    raise ConvergenceFailure("no sign change found expanding left")


def solve_real_saddle(phase: Phase):
    """Real stationary points.

    Plus phase: the derivative grows monotonically, so there is exactly one
    real saddle for every lam > -1; returns a single Saddle.

    Minus phase: for -1 < lam <= 0 a single root (returned alone); for
    lam > 0 the exponential sum is convex with its minimum at
    u* = 2 ln(lam)/(1+lam), so there are two roots when a exceeds the
    coalescence curve (returned as an ascending pair) and none below it
    (NoRealSaddle).  On the curve itself both entries collapse onto the
    double point.
    """
    lam, a = phase.lam, phase.a
    if phase.sign is Sign.PLUS:
        f = phase.dh
        # monotone increasing from -a (at -inf on the lam>0 side) to +inf
        u = 0.0
        lo, hi = u, u
        while f(lo) > 0.0:
            lo -= 1.0
        while f(hi) < 0.0:
            hi += 1.0
        root = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
        root = _newton_polish(phase, root)
        return _make_saddle(phase, root, 0, SaddleKind.REAL_SIMPLE)

    # minus phase
    f = phase.dh
    if lam <= 0.0:
        # derivative dips then rises; the single root sits on the rising branch
        if lam == 0.0:
            root = math.log(2.0 * a)
        else:
            al = abs(lam)
            u_min = 2.0 * math.log(al) / (1.0 - al) if al != 1.0 else 0.0
            lo, hi = _bracket_right(f, u_min)
            root = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
        root = _newton_polish(phase, root)
        return _make_saddle(phase, root, 0, SaddleKind.REAL_SIMPLE)

    u_star = 2.0 * math.log(lam) / (1.0 + lam)
    f_min = f(u_star)
    scale = max(1.0, abs(phase.d2h(u_star)))
    if f_min > _RESIDUAL_TOL * scale:
        raise NoRealSaddle(
            f"no real saddle: a={a} lies below the coalescence curve "
            f"{double_saddle_curve(lam):.12g} at lam={lam}")
    if f_min > -_RESIDUAL_TOL * scale:
        d = double_saddle_point(lam)
        return d, d
    lo, hi = _bracket_right(f, u_star)
    right = _newton_polish(phase, brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))
    lo, hi = _bracket_left(f, u_star)
    left = _newton_polish(phase, brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))
    return (
        _make_saddle(phase, left, 0, SaddleKind.REAL_SIMPLE),
        _make_saddle(phase, right, 0, SaddleKind.REAL_SIMPLE),
    )


def _complex_newton(phase: Phase, seed: complex, steps: int = 120) -> complex | None:
    u = seed
    try:
        for _ in range(steps):
            d = phase.dh(u)
            dd = phase.d2h(u)
            if dd == 0:
                return None
            du = d / dd
            u = u - du
            if abs(du) < 1e-15 * max(1.0, abs(u)):
                break
        if abs(phase.dh(u)) < 1e-13 * max(1.0, abs(phase.d2h(u))):
            return u
    except (OverflowError, ZeroDivisionError):
        return None
    return None


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
    u_star = 2.0 * math.log(lam) / (1.0 + lam)
    for off in (0.3, 0.5, 0.7, 0.9, 1.2, 1.6, 2.1, 2.7):
        root = _complex_newton(phase, complex(u_star, off))
        if root is not None and 1e-9 < root.imag < math.pi:
            return _make_saddle(phase, root, 0, SaddleKind.COMPLEX_PAIR)
    raise ConvergenceFailure(
        f"conjugate pair not located for lam={lam}, a={a}")


def classify_minus(lam: float, a: float) -> SaddleClassification:
    """Saddle configuration of the minus phase.

    For lam > 0 the coalescence curve splits the plane: above it two real
    saddles (only the larger lies on the descent contour; the path through
    the smaller is a steepest ascent), below it a conjugate pair, on it
    (within 1e-12 relative) the double saddle.
    """
    if lam <= -1.0:
        raise DomainError(f"lam must exceed -1, got {lam}")
    if a <= 0.0:
        raise DomainError(f"a must be positive, got {a}")
    phase = Phase(lam, a, Sign.MINUS)
    if lam <= 0.0:
        s = solve_real_saddle(phase)
        return SaddleClassification(Regime.SINGLE_REAL, [s])
    curve = double_saddle_curve(lam)
    if abs(a - curve) <= 1e-12 * max(1.0, curve):
        return SaddleClassification(Regime.DOUBLE, [double_saddle_point(lam)])
    if a > curve:
        _, larger = solve_real_saddle(phase)
        return SaddleClassification(Regime.TWO_REAL, [larger])
    return SaddleClassification(
        Regime.CONJUGATE_PAIR, [solve_complex_pair(phase)])


def complex_saddle_chain(phase: Phase, count: int) -> list[Saddle]:
    """First `count` members of the plus-phase complex saddle string.

    Member k sits near Im u = (2k-1)*pi/lam: the first inside
    (pi/lam, 3*pi/lam), later ones within half a strip of the estimate.
    """
    return [_chain_member(phase, k) for k in range(1, count + 1)]


def _chain_member(phase: Phase, k: int) -> Saddle:
    """Member k of the plus-phase chain, by Newton from a short ladder of
    real-part seeds at its level; members are solved independently."""
    if phase.sign is not Sign.PLUS:
        raise DomainError("the complex saddle chain belongs to the plus phase")
    lam = phase.lam
    if lam <= 0.0:
        raise DomainError("chain saddles require lam > 0")
    y_est = (2 * k - 1) * math.pi / lam
    for xr in (0.0, 0.1, 0.2, 0.3, 0.5, -0.1, 0.8, 1.2):
        cand = _complex_newton(phase, complex(xr, y_est))
        if cand is None or cand.imag <= 0:
            continue
        if k == 1:
            # closed lower edge: at lam = 1 the first saddle sits
            # exactly on Im u = pi/lam (u = i pi - arcsinh(a))
            ok = math.pi / lam - 1e-9 <= cand.imag < 3.0 * math.pi / lam
        else:
            ok = abs(cand.imag - y_est) < math.pi / lam
        if ok:
            return _make_saddle(phase, cand, k, SaddleKind.COMPLEX_PAIR)
    raise ConvergenceFailure(
        f"chain saddle {k} not found for lam={lam}, a={phase.a}")


class PathBranch(enum.Enum):
    UPPER_LEFT = "upper_left"
    UPPER_RIGHT = "upper_right"


class Terminus(enum.Enum):
    INFINITY_PLUS_PI = "infinity_plus_pi"
    MINUS_INFINITY_STRIP = "minus_infinity_strip"
    HITS_SADDLE = "hits_saddle"


@dataclass(frozen=True)
class PathOutcome:
    terminus: Terminus
    samples: list[complex]
    strip_index: int | None = None  # odd multiple of pi/lam reached, if any
    hit_index: int | None = None    # index of the saddle the path ran into


def _descent_rays(phase: Phase, u: complex) -> tuple[complex, complex]:
    """Unit vectors of the two descent directions at a simple saddle:
    angles where h''(u) e^(2 i theta) is real negative."""
    h2 = phase.d2h(u)
    th = (math.pi - cmath.phase(h2)) / 2.0
    return cmath.exp(1j * th), cmath.exp(1j * (th + math.pi))


def _pick_ray(phase: Phase, saddle: Saddle, branch: PathBranch) -> complex:
    r1, r2 = _descent_rays(phase, saddle.location)
    if saddle.kind is SaddleKind.REAL_SIMPLE:
        # a real saddle has one upper descent path; both branch labels take it
        return r1 if r1.imag > 0 else r2
    left, right = (r1, r2) if r1.real < r2.real else (r2, r1)
    return left if branch is PathBranch.UPPER_LEFT else right


def _known_saddles(phase: Phase) -> list[Saddle]:
    """Saddles a descent path might run into, for connection detection."""
    if phase.sign is Sign.PLUS:
        known = [solve_real_saddle(phase)]
        # chain members up to one strip above the endpoint valley matter
        kmax = max(1, int((phase.lam + 3.0) / 2.0) + 1)
        try:
            known.extend(complex_saddle_chain(phase, kmax))
        except ConvergenceFailure:
            pass
        return known
    cls = classify_minus(phase.lam, phase.a)
    return list(cls.contributory)


def trace_descent_path(phase: Phase, from_saddle: Saddle,
                       branch: PathBranch,
                       max_steps: int = 500000) -> PathOutcome:
    """Follow a steepest descent path from a simple saddle.

    Integrates du/ds = -conj(h'(u))/|h'(u)| with RK4 and projects each step
    back onto the level set Im h = Im h(saddle).  Steps adapt to the local
    second derivative within [1e-3, 1e-1] and shrink to 2e-4 near other
    saddles so close passages are resolved instead of hopped over.

    Terminates at Re u > 20 (the right-hand valley toward infinity with
    Im u near pi), Re u < -20 (a left-hand strip valley at an odd multiple
    of pi/lam; meaningful for the plus phase), or on running into another
    saddle (|u - s| < 0.1 with |h'| < 1e-8), which signals a contour-change
    boundary.
    """
    if from_saddle.kind is SaddleKind.REAL_DOUBLE:
        raise DomainError("descent tracing from a double saddle is not supported")
    others = [s for s in _known_saddles(phase)
              if abs(s.location - from_saddle.location) > 1e-9]
    level = phase.h(from_saddle.location).imag
    direction = _pick_ray(phase, from_saddle, branch)
    u = from_saddle.location + 1e-6 * direction
    samples = [from_saddle.location, u]

    def flow(v: complex) -> complex:
        d = phase.dh(v)
        m = abs(d)
        return -d.conjugate() / m if m > 0 else 0.0j

    for it in range(max_steps):
        g = phase.dh(u)
        ag = abs(g)
        near = min((abs(u - s.location) for s in others), default=math.inf)
        for s in others:
            if abs(u - s.location) < 0.1 and ag < 1e-8:
                samples.append(u)
                return PathOutcome(Terminus.HITS_SADDLE, samples,
                                   hit_index=s.index)
        cap = 2e-4 if near < 0.5 else 0.1
        floor = 2e-4 if near < 0.5 else 1e-3
        step = min(cap, max(floor, 0.05 * ag / max(abs(phase.d2h(u)), 1e-9)))
        k1 = flow(u)
        k2 = flow(u + 0.5 * step * k1)
        k3 = flow(u + 0.5 * step * k2)
        k4 = flow(u + step * k3)
        du = (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if abs(du) < 1e-15:
            raise StepFailure(f"descent step underflow at u={u}")
        u = u + du
        g2 = phase.dh(u)
        if abs(g2) > 1e-13:
            delta = level - phase.h(u).imag
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
    raise StepFailure(f"descent path did not terminate in {max_steps} steps")


def count_contributory_pairs(lam: float, a: float,
                             max_pairs: int = 64) -> RegionCount:
    """How many conjugate pairs of the plus-phase chain lie on the deformed
    integration contour.

    Membership criterion: pair k is on the contour while the imaginary part
    of its phase value stays above the level of the real saddle (zero);
    counting stops at the first pair at or below it.  The sign change of
    Im h(u_k) in the parameter plane is exactly where the descent path
    topology reconnects (pair k joins or leaves the contour), which is what
    stokes_boundary locates.

    Raises OnStokesBoundary when the first non-counted pair sits within
    1e-6 (in a-distance) of its sign change, where the count is ambiguous.
    """
    phase = Phase(lam, a, Sign.PLUS)
    real = solve_real_saddle(phase)
    members = [real]
    if lam <= 0.0:
        # both exponentials grow rightward: no complex string to count
        return RegionCount(n_pairs=0, saddles=members,
                           last_pair_subdominant=False)
    n = 0
    for k in range(1, max_pairs + 1):
        sadl = _chain_member(phase, k)
        im = sadl.phase_value.imag
        if abs(im) < 1e-3:
            # convert the level margin to parameter distance before guarding
            da = 1e-4 * max(a, 0.1)
            above = _chain_member(Phase(lam, a + da, Sign.PLUS), k)
            slope = abs(above.phase_value.imag - im) / da
            if abs(im) < 1e-6 * max(1.0, slope):
                raise OnStokesBoundary(
                    f"pair {k} sits on the contour-change boundary at "
                    f"lam={lam}, a={a}")
        if im > 0.0:
            members.append(sadl)
            n = k
        else:
            break
    sub = n >= 1 and members[-1].phase_value.real < 0.0
    return RegionCount(n_pairs=n, saddles=members, last_pair_subdominant=sub)


def stokes_boundary(lam: float, pair_index: int,
                    a_min: float = 0.02, a_max: float = 4.0) -> float:
    """Parameter a at which chain pair `pair_index` joins or leaves the
    contour for fixed lam: the root of Im h(u_k)(a) = 0.

    Scans [a_min, a_max] for a sign change and refines it with brentq.
    Raises NoBoundary when the level keeps one sign over the whole range.
    """
    if pair_index < 1:
        raise DomainError("pair_index counts from 1")

    def level(a: float) -> float:
        phase = Phase(lam, a, Sign.PLUS)
        return _chain_member(phase, pair_index).phase_value.imag

    n_scan = 80
    grid = [a_min * (a_max / a_min) ** (i / (n_scan - 1.0))
            for i in range(n_scan)]
    prev_a, prev_v = grid[0], level(grid[0])
    for ai in grid[1:]:
        vi = level(ai)
        if prev_v == 0.0:
            return prev_a
        if (prev_v < 0.0) != (vi < 0.0):
            return brentq(level, prev_a, ai, xtol=1e-10)
        prev_a, prev_v = ai, vi
    raise NoBoundary(
        f"pair {pair_index} has no level sign change for lam={lam} "
        f"in [{a_min}, {a_max}]")
