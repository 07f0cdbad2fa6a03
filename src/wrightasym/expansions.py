"""Steepest-descent asymptotic expansions of the scaled Wright functions
for large x at fixed lam and a.

Two entries, one per sign, over one body that reads the saddles the
contour crosses (saddles.contour) and names the route after its regime:

  expand_minus_auto  minus sign, in one of three regimes:
                       real saddle (the larger of two above the
                         coalescence curve a*, the only one for lam <= 0)
                       conjugate pair (below the curve)
                       double saddle (contour's DOUBLE regime,
                         |a - a*| <= 1e-6 * max(1, a*), where `wright
                         saddles` reports `regime: double`)
  expand_plus        plus sign: the real saddle plus the contributory
                     complex-pair chain

The body builds one SaddleSeries per contributory saddle (location, h0,
prefactor, terms and coefficients, where the series is cut and why, and
the component it adds: its terms summed to the cut, twice the real part
for a conjugate pair), the double-saddle one on that route, and the
value is the sum of their components.  Every series comes from one
builder (_series) over the resumable coefficient engine
(coeffs.SaddleCoeffs), whatever its saddle or policy: a route supplies
only the prefactor and the factors of its terms.  A fixed series runs the engine to its k; an
optimal one is built term by term, and only until its terms have risen
well past their least one or fallen below the working precision.  The
result keeps those series, the value and the value at every shorter cut
(the partial sums), so callers can study the error behaviour from one
call rather than just consume a number; a subdominant last chain pair
that the value leaves out is polished and built only when a caller
reads the components.  Both entries work at one extended precision, 50
digits: e^(x h0) reaches 1e12 and beyond, where double rounding alone
would swamp the small differences (oracle minus expansion) these
expansions are judged by; the deep tail of a series reaches relative
errors near 1e-13, where double-precision noise in A_4, A_5 already
shows; and the plus-phase value feeds differences (W - I_0) in which
twelve leading digits cancel, leaving about 38.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate, chain, count
from operator import mul

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_mul, \
    round_nearest

from .core import DomainError, ScaledArgs, Sign
from .coeffs import SaddleCoeffs
from .saddles import Phase, Regime, contour, double_saddle_curve, \
    polish_saddle, u_star

_PREC_DPS = 50
_ZERO = mp.mpf(0)
# the highest order a series is computed to: the cap of the optimal
# rule and the largest fixed truncation k
_MAX_ORDER = 40
# an optimal series stops at its least term once the two latest terms'
# binary exponents, as _series estimates them, lie this many above the
# least one's (over 10 decades apart), and at the working precision once
# two consecutive nonzero terms lie this many bits more than the working
# precision below their partial sums (over 8 more, real or complex)
_RISE = 35
_TINY = 10
_ROUTES = {Regime.SINGLE_REAL: "real-saddle", Regime.TWO_REAL: "real-saddle",
           Regime.CONJUGATE_PAIR: "conjugate-pair",
           Regime.DOUBLE: "double-saddle", Regime.CHAIN: "chain"}


class WrongRegime(ValueError):
    """An expansion entry was called with arguments of the other sign."""


class TruncationMode(enum.Enum):
    FIXED = "fixed"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class TruncationPolicy:
    mode: TruncationMode
    k: int | None = None

    def __post_init__(self) -> None:
        if self.mode is TruncationMode.OPTIMAL:
            if self.k is not None:
                raise DomainError("optimal truncation takes no order")
        elif self.k is None or self.k < 0:
            raise DomainError("truncation order must be nonnegative")
        elif self.k > _MAX_ORDER:
            raise DomainError(f"truncation order must be at most {_MAX_ORDER}")

    @classmethod
    def fixed(cls, k: int) -> "TruncationPolicy":
        return cls(TruncationMode.FIXED, k)

    @classmethod
    def optimal(cls) -> "TruncationPolicy":
        return cls(TruncationMode.OPTIMAL)


def optimal_truncation(magnitudes) -> int:
    """Index of the globally smallest nonzero term magnitude; ties go to
    the smaller index.  Truncation is inclusive of that term.

    Exact zeros are structural (every third double-saddle term vanishes)
    and never meant as the stopping signal, so they are skipped.
    """
    best = None
    for j, m in enumerate(magnitudes):
        if m == 0:
            continue
        if best is None or m < magnitudes[best]:
            best = j
    if best is None:
        raise ValueError("no nonzero terms to truncate on")
    return best


@dataclass(frozen=True)
class SaddleSeries:
    """One contributory saddle's series and where it is cut.

    location is the double-precision saddle the route solved; a complex
    location is the upper member of a conjugate pair, whose mirror saddle
    adds the complex conjugate.  h0 is h(u0) at the polished saddle, pref
    the prefactor and mp_terms the series terms after it is pulled out,
    built from coefficients (the A_k, or the B_k at the double saddle),
    k = 0 .. len(mp_terms) - 1, to the fixed k or where the optimal rule
    stopped (_series), and cut and reason where it is cut and why:
    "fixed" (the policy's k), "minimum" (the smallest term), "precision"
    (the last computed term: it and the nonzero one before lie below the
    working precision of the partial sum) or "capped" (the optimal rule
    landed on the last term the order cap allows, so the minimum may lie
    beyond it).  component is what the series adds: pref * sum_{j<=cut}
    t_j, the sum exact and rounded once, twice its real part for a
    complex location, formed at the precision the series is built at.
    """

    location: complex
    h0: object
    pref: object
    mp_terms: tuple
    coefficients: tuple
    cut: int = field(repr=False)
    reason: str = field(repr=False)
    component: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        acc = functools.reduce(_exact_add, self.mp_terms[:self.cut + 1])
        object.__setattr__(self, "component", _component(self, acc))


@dataclass(frozen=True)
class ExpansionResult:
    """One evaluated expansion.

    series holds each contributory saddle's SaddleSeries, the primary one
    first.  terms (rounded to complex doubles) and coefficients (the A_k,
    or on the double route the B_k) are views of the primary series,
    which an optimal call builds only until its rule stops, and
    truncation_index is where it was actually cut (inclusive).  mp_value
    is the extended-precision result, and value its double rounding.
    mp_partial_sums[k] is the value with the primary series cut at k
    instead, for k = 0 .. truncation_index, so one call serves a whole
    fixed-k error study; it is built on first read, and its last entry is
    mp_value.  mp_components carries the per-saddle contributions I_j in
    saddle order, each series' component (for the single-saddle routes
    just the value itself), and
    components their doubles, component_truncations and
    truncation_reasons each series' own cut and reason (SaddleSeries), and
    exponent = x * Re h(u0) locates the overall scale.  A chain
    pair the value leaves out (the subdominant last one) is still listed
    in series, the components, component_truncations and
    truncation_reasons; its saddle is polished and its series built on
    the first read of any of them, once, at the working precision (a
    degenerate saddle refuses that read), and mp_summands lists the
    components as the value adds them without building it.
    """

    truncation_mode: TruncationMode
    exponent: float
    mp_value: object
    route: str
    # the SaddleSeries the value adds, the primary first
    _added: tuple
    # builds the series of the saddle left out of the value, if any; two
    # results of one call compare equal whether or not it has run
    _left_out: Callable[[], SaddleSeries] | None = field(default=None,
                                                         compare=False)

    @functools.cached_property
    def series(self) -> tuple[SaddleSeries, ...]:
        """The series the value adds, then the left-out saddle's, built
        and cut at the working precision."""
        if self._left_out is None:
            return self._added
        with mp.workdps(_PREC_DPS):
            return self._added + (self._left_out(),)

    @property
    def component_truncations(self) -> tuple[int, ...]:
        return tuple(s.cut for s in self.series)

    @property
    def truncation_reasons(self) -> tuple[str, ...]:
        return tuple(s.reason for s in self.series)

    @property
    def mp_components(self) -> tuple:
        return tuple(s.component for s in self.series)

    @property
    def mp_summands(self) -> tuple:
        """What mp_value sums, one entry per saddle listed in series: the
        mp_components, except that a pair the value leaves out adds 0 and
        is not built."""
        left = (mp.mpf(0),) if self._left_out is not None else ()
        return tuple(s.component for s in self._added) + left

    @property
    def terms(self) -> tuple[complex, ...]:
        return tuple(complex(t) for t in self._added[0].mp_terms)

    @property
    def coefficients(self) -> tuple:
        return self._added[0].coefficients

    @property
    def truncation_index(self) -> int:
        return self._added[0].cut

    @functools.cached_property
    def mp_partial_sums(self) -> tuple:
        s, *rest = self._added
        added = [r.component for r in rest]
        sums = accumulate(s.mp_terms[:s.cut + 1], _exact_add)
        with mp.workdps(_PREC_DPS):
            return tuple(sum(added, _component(s, acc)) for acc in sums)

    @property
    def value(self) -> float:
        return float(self.mp_value)

    @property
    def components(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.mp_components)


def _exact_add(u, v):
    """mp.fadd(u, v, exact=True) for u, v both mpf or both mpc."""
    if type(u) is mp.mpc:
        (a, b), (c, d) = u._mpc_, v._mpc_
        return mp.make_mpc((mpf_add(a, c), mpf_add(b, d)))
    return mp.make_mpf(mpf_add(u._mpf_, v._mpf_))


def _component(s: SaddleSeries, acc):
    """pref * acc, acc an exact sum of s's terms rounded once, and twice
    its real part for a complex location."""
    v = s.pref * (+acc)
    return 2 * mp.re(v) if s.location.imag != 0 else v


def _saddle_series(phase: Phase, location: complex, x: float,
                   order: int, optimal: bool) -> SaddleSeries:
    """One simple-saddle series at working precision:

        e^(x h0) / sqrt(2 pi x h0'') * sum_k (-1)^k (1/2)_k A_k / (x/2)^k

    with the location Newton-polished first (principal square root for
    a complex saddle); to A_order, or cut by the optimal rule (_series).
    A degenerate saddle is refused by SaddleCoeffs (DegenerateSaddle).
    """
    um, h0, h2, pq = polish_saddle(phase, location)
    xm = mp.mpf(x)
    built = _series(SaddleCoeffs(phase, um, 2, order, pq), _ratios(xm),
                    order, optimal)
    pref = mp.e ** (xm * h0) / mp.sqrt(2 * mp.pi * xm * h2)
    return SaddleSeries(location, h0, pref, *built)


def _ratios(xm):
    """((r_k,), log2 |r_k|) for r_k = (-1)^k (1/2)_k / (x/2)^k, k = 0, 1,
    ...: r_(k+1) = r_k (k + 1/2) / (-x/2), both steps rounded, on raw
    mpfs (no operator dispatch), and its log2 as a float sum."""
    prec, x = mp.mp.prec, float(xm)
    r, hx, lr = mp.mpf(1)._mpf_, (-xm / 2)._mpf_, 0.0
    for k in count():
        yield (mp.make_mpf(r),), lr
        r = mpf_div(mpf_mul(r, from_man_exp(2 * k + 1, -1), prec,
                            round_nearest), hx, prec, round_nearest)
        lr += math.log2((2 * k + 1) / x)


def _mag(v) -> int | None:
    """e with 2^(e-1) <= max(|Re v|, |Im v|) < 2^e; None for v = 0."""
    if type(v) is mp.mpc:
        (_, m, e, bc), (_, mi, ei, bci) = v._mpc_
        if mi and (not m or ei + bci > e + bc):
            return ei + bci
    else:
        _, m, e, bc = v._mpf_
    return e + bc if m else None


def _sizes(terms) -> list[int]:
    """Exact ints ordered as the moduli of a series' terms: |t| 2^-e0, or
    |t|^2 2^(-2 e0) if complex, e0 the least exponent of their parts."""
    if type(terms[0]) is mp.mpc:
        raw = [p for t in terms for p in t._mpc_]
    else:
        raw = [t._mpf_ for t in terms]
    e0 = min([e for _, m, e, _ in raw if m], default=0)
    flat = [m << (e - e0) if m else 0 for _, m, e, _ in raw]
    if len(flat) == len(terms):
        return flat
    return [a * a + b * b for a, b in zip(flat[::2], flat[1::2])]


def _term(c, f):
    """c times the factors f, left to right; an exact 0 for f None."""
    return _ZERO if f is None else functools.reduce(mul, f, c)


def _series(coeffs: SaddleCoeffs, ratios, cap: int,
            optimal: bool) -> tuple:
    """(terms, coefficients, cut, reason) of one saddle's series, as
    SaddleSeries takes them: t_k = c_k f_k, c_k from coeffs and (f_k,
    l_k) the k-th item of ratios, f_k a tuple of factors (_term) and l_k
    a float log2 of their product, both None where it is 0.  A fixed
    series ends at k = cap ("fixed"); an optimal one is built one c_k at
    a time and ends at the first n at which
    - the two latest terms lie _RISE binary orders above the least so far
      (cut there, "minimum"; l_k + SaddleCoeffs.log2(k) is at most 1
      above log2 |t_k| and under 1/2 below, so 35 leaves 2^33.5 > 1e10);
    - two consecutive nonzero terms lie wp + _TINY bits below their
      partial sums, wp the working precision (cut at n, "precision"); or
    - n = cap (cut at the least term, "capped" if that is t_n).
    The terms are formed once it stops, unless one may come within reach
    of the second test: from there on each comes with the exact partial
    sum the test reads.  An exact zero term neither counts toward that
    test nor starts the forming.  Where the engine re-runs the orders
    used at a larger scale (SaddleCoeffs.rescale), it is built again.
    """
    if not optimal:
        coeff = coeffs.checked(cap)
        return (tuple(_term(c, f) for c, (f, _) in zip(coeff, ratios)),
                tuple(coeff), cap, "fixed")
    floor = mp.mp.prec + _TINY
    # a term is formed once it may lie floor bits below its partial sum,
    # which is under (cap + 1) times the largest term
    reach = floor - (cap + 1).bit_length() - 3
    seen, terms, why, tiny = [], None, None, False
    low, top, prev = math.inf, -math.inf, None
    for k, item in zip(range(cap + 1), ratios):
        seen.append(item)
        f, lr = item
        m = None if lr is None else coeffs.log2(k)
        if m is not None:
            m += lr
            if m < low:
                low = m
            if m > top:
                top = m
        if terms is not None:
            terms.append(_term(coeffs.upto(k)[k], f))
            acc = _exact_add(acc, terms[-1])
        elif m is not None and m <= top - reach:
            terms = [_term(c, g) for c, (g, _) in zip(coeffs.upto(k), seen)]
            acc = functools.reduce(_exact_add, terms)
        if terms is not None and (mt := _mag(terms[-1])) is not None:
            sm = _mag(acc)
            was, tiny = tiny, sm is not None and mt <= sm - floor
            if was and tiny:
                why = "precision"
                break
        if m is not None and prev is not None and min(m, prev) >= low + _RISE:
            break
        prev = m
    if coeffs.rescale():
        return _series(coeffs, chain(seen, ratios), cap, optimal)
    coeff = coeffs.upto(k)
    if terms is None:
        terms = [_term(c, g) for c, (g, _) in zip(coeff, seen)]
    if why is None:
        cut = optimal_truncation(_sizes(terms))
        why = "capped" if cut == k else "minimum"
    else:
        cut = k
    return tuple(terms), tuple(coeff), cut, why


def _double_ratios(hx3, g, sine):
    """The double-saddle factors for _series: Gamma((k+1)/3)/(H x/3)^(k/3)
    from g at k = 0, 1 and hx3 = H x/3, then the sine, sqrt(3)/2 times 1,
    1, 0, -1, -1, 0 for k = 0..5 (mod 6), multiplying B_k in that order."""
    g, d, signed = list(g), 3 * hx3, (sine, -sine)
    lg = [math.log2(abs(float(v) * float(sine))) for v in g]
    step = math.log2(float(d))
    for k in count():
        j = k % 3
        if j == 2:
            yield None, None
            continue
        yield (g[j], signed[k % 6 > 1]), lg[j]
        # Gamma(s + 1) = s Gamma(s) carries g from k to k + 3
        g[j] = g[j] * (k + 1) / d
        lg[j] += math.log2(k + 1) - step


def _double_series(lam: float, x: float, order: int,
                   optimal: bool) -> SaddleSeries:
    """The double-saddle series at working precision, on the coalescence
    curve a = a*(lam), to B_order or cut by the optimal rule (_series):

        2^(2/3) e^(x h0) / (3 pi) * sum_k B_k Gamma((k+1)/3)
                                    * sin(pi (k+1)/3) / (H x/3)^((k+1)/3)

    with H = 2 h'''(u0).  The sine kills every k = 2 (mod 3) term, so those
    appear as exact zeros in the term list.
    """
    phase = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    coeffs = SaddleCoeffs(phase, u_star(lam), 3, order)
    xm = mp.mpf(x)
    u0 = u_star(mp.mpf(lam))
    h0, _, _, h3 = phase.derivs(u0, 3)
    hx3 = 2 * h3 * xm / 3
    root = mp.cbrt(hx3)
    g13, g23, sine, c23, pi3 = _double_constants(mp.mp.prec)
    built = _series(coeffs, _double_ratios(hx3, (g13, g23 / root), sine),
                    order, optimal)
    pref = c23 * mp.e ** (xm * h0) / (pi3 * root)
    return SaddleSeries(complex(u0), h0, pref, *built)


@functools.cache
def _double_constants(prec: int) -> tuple:
    """Gamma(1/3), Gamma(2/3), sqrt(3)/2, 2^(2/3) and 3 pi at prec bits,
    as _double_series uses them."""
    with mp.workprec(prec):
        return (mp.gamma(mp.mpf(1) / 3), mp.gamma(mp.mpf(2) / 3),
                mp.sqrt(3) / 2, mp.mpf(2) ** (mp.mpf(2) / 3), 3 * mp.pi)


def _expand(sign: Sign, args: ScaledArgs, trunc: TruncationPolicy,
            include_subdominant: bool, max_order: int) -> ExpansionResult:
    """Both entries' body: the series of the saddles args' contour
    crosses, their components summed under the route its regime names.
    A subdominant last pair the value leaves out is polished and built on
    first read (and refused there, if degenerate)."""
    if args.sign is not sign:
        raise WrongRegime(f"{sign.value}-phase route called with "
                          f"{args.sign.value}-sign arguments")
    if not 0 <= max_order <= _MAX_ORDER:
        raise ValueError("max_order must be nonnegative" if max_order < 0
                         else f"max_order must be at most {_MAX_ORDER}")
    lam, a, x = args.lam, args.a, args.x
    c = contour(lam, a, args.sign)
    fixed = trunc.mode is TruncationMode.FIXED
    order = trunc.k if fixed else max_order
    kept = len(c.saddles) - 1
    if c.last_pair_subdominant and not include_subdominant:
        kept -= 1
    series, left_out = [], None
    with mp.workdps(_PREC_DPS):
        if c.regime is Regime.DOUBLE:
            series.append(_double_series(lam, x, order, not fixed))
        else:
            phase = Phase(lam, a, args.sign)
            for j, sadl in enumerate(c.saddles):
                # the primary series to the policy's k, every other one
                # (and an optimal primary one) term by term to max_order
                build = functools.partial(_saddle_series, phase,
                                          sadl.location, x,
                                          max_order if j else order,
                                          bool(j) or not fixed)
                if j <= kept:
                    series.append(build())
                else:
                    left_out = build
        comps = [s.component for s in series]
        return ExpansionResult(
            truncation_mode=trunc.mode,
            exponent=float(x * mp.re(series[0].h0)),
            mp_value=sum(comps[1:], comps[0]),
            route=_ROUTES[c.regime],
            _added=tuple(series),
            _left_out=left_out,
        )


def expand_minus_auto(args: ScaledArgs,
                      trunc: TruncationPolicy) -> ExpansionResult:
    """Minus-phase expansion over the saddle its contour crosses.

    At a real saddle (the larger of two above the coalescence curve, the
    only one for lam <= 0):

        e^(x h0) / sqrt(2 pi x h0'') * sum_k (-1)^k (1/2)_k A_k / (x/2)^k

    Below the curve, over the conjugate pair:

        sqrt(2/(pi x)) * Re{ e^(x h0) / sqrt(h0'')
                             * sum_k (-1)^k (1/2)_k A_k / (x/2)^k }

    evaluated at the upper saddle with the principal square root; the
    conjugate saddle contributes the mirror term, hence the real part.
    Near the curve a* the reversion behind the A_k is ill conditioned, so
    in contour's DOUBLE regime, |a - a*| <= 1e-6 * max(1, a*), the
    double-saddle series (_double_series) is evaluated on the curve
    itself.  The saddles are located once.
    """
    return _expand(Sign.MINUS, args, trunc, False, _MAX_ORDER)


def expand_plus(args: ScaledArgs, trunc: TruncationPolicy,
                include_subdominant: bool = False,
                max_order: int = _MAX_ORDER) -> ExpansionResult:
    """Plus-phase expansion: the real-saddle series I_0 plus the
    contributory complex-pair contributions I_1..I_N.

    The truncation policy applies to I_0; each pair series is cut at its
    own optimal point (their terms diverge much earlier, and the fixed-k
    error study only makes sense against fully converged corrections), so
    partial sum k is I_0 cut at k plus the same pair values.  When the
    last pair is subdominant (Re h(u_N) < 0, exponentially small against
    I_0) it is reported in components but left out of the value unless
    include_subdominant is set; left out, its saddle is polished and its
    series built on the first read of the components (or of series,
    their cuts or reasons), so a caller of the value alone never pays for
    it, and a degenerate one refuses that read, not the call.  max_order
    caps the order of the pair series (and of an optimal I_0): each is
    built term by term only until its optimal rule stops, at its least
    term, at the working precision or at the cap.  It must lie in 0..40;
    anything else is refused with ValueError.
    """
    return _expand(Sign.PLUS, args, trunc, include_subdominant, max_order)
