"""Watson-lemma coefficients at simple and double saddles.

At a simple saddle the substitution h(u0) - h(u0 + t) = w^2/2 maps the
descent integral onto a Gaussian; at a double saddle (h'' = 0,
h''' != 0) the cubic substitution h(u0) - h(u0 + t) = w^3/3 plays the
same role.  Integrating termwise over the inverted series t(w) gives the
coefficient sequence A_k at a simple saddle and B_k, scaled by
H = 2 h'''(u0), at the double saddle.

Both come from one engine, SaddleCoeffs, which states the method and
its error budget: the normalized coefficients beta_k of t(w), each
solving one linear equation whose known part is two convolutions against
the series of e^t and e^(-lam t), O(n^2) to order n, on exact Python
integers in fixed point whatever u0's arithmetic (Brent and Zimmermann,
Modern Computer Arithmetic, ch. 3).  It is resumable: the recurrence is
a generator whose frame holds the series, so a caller pays only for the
orders it reads, and sized from the most orders the caller may ask for,
every order's ints are those of a one-shot run.  It reads one series'
coefficients off them, one order at a time or all at once: the A_k at a
simple saddle Newton-polished at the working precision
(saddles.polish_saddle, which also hands over the P and Q it evaluated
there), the B_k in floats at the float u*, since the double-saddle
series rounds them to double anyway; double_saddle_coeffs is its
one-shot form for the B_k.  A saddle whose m-th derivative vanishes
(|h^(m)| < 1e-10) is refused with DegenerateSaddle.
No closed forms live here: the tests keep them as independent
references.
"""

from __future__ import annotations

import math
from itertools import count
from operator import add, mul

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest

from .core import DomainError, Sign
from .saddles import Phase, double_saddle_curve, u_star


class DegenerateSaddle(ValueError):
    """Vanishing second derivative: the simple-saddle reversion does not
    apply (use the double-saddle route)."""


# every beta keeps at least wp + _GUARD bits in units of its fixed-point
# scale, wp the working precision
_GUARD = 32
# orders and bits of the pilot run that sizes the rescale of s, and the
# headroom per pilot order the full run starts with
_PILOT = 12
_PILOT_BITS = 112
_SLACK = 3


def _exact(x) -> tuple[int, int, int]:
    """(re, im, e) with x = (re + i im) 2^e exactly, for an mpf, mpc,
    float or complex x."""
    if type(x) is mp.mpc or type(x) is complex:
        (a, ea), (b, eb) = _binary(x.real), _binary(x.imag)
        e = min(ea, eb)
        return a << (ea - e), b << (eb - e), e
    n, e = _binary(x)
    return n, 0, e


def _make(parts: list):
    """An mpf from [re] or an mpc from [re, im], raw mpfs."""
    return (mp.make_mpf(parts[0]) if len(parts) == 1
            else mp.make_mpc(tuple(parts)))


def _binary(x) -> tuple[int, int]:
    """(n, e) with x = n 2^e exactly, for an mpf or a float."""
    if type(x) is mp.mpf:
        sign, man, exp, _ = x._mpf_
        return (-man if sign else man), exp
    n, d = x.as_integer_ratio()
    return n, 1 - d.bit_length()


def _rz(x: int, s: int, d: int = 1) -> int:
    """x / (d 2^s) rounded toward zero, d > 0.  This rounding commutes with
    negation, so a beta that vanishes by symmetry (every other one on the
    curve at lam = 1) comes out exactly 0."""
    return (x >> s) // d if x >= 0 else -((-x >> s) // d)


def _fixed_ratio(a, b, scale: int) -> tuple[int, int]:
    """a/b in units of 2^-scale, real and imaginary part rounded toward
    zero, for a and b as _exact gives them."""
    ar, ai, ae = a
    br, bi, be = b
    den = br * br + bi * bi
    nr, ni = ar * br + ai * bi, ai * br - ar * bi
    s = ae - be + scale
    if s < 0:
        return _rz(nr, -s, den), _rz(ni, -s, den)
    return _rz(nr << s, 0, den), _rz(ni << s, 0, den)


def _series_start(cl, m: int, fb: int, r: int) -> tuple[list, list]:
    """E and F through order m with only beta_1 = 1: e_j = 1/j! and f_j =
    (-lam)^j/j! in units of 2^-(fb + r j)."""
    return ([_rz(1 << (fb + r * j), 0, math.factorial(j))
             for j in range(m + 1)],
            [_rz(cl ** j << (fb + r * j), fb * j, math.factorial(j))
             for j in range(m + 1)])


def _real_betas(cp, cq, cl, m: int, fb: int, r: int, ib: list):
    """Appends k beta_k to the empty list ib, in units of 2^-(fb + r k),
    one order k = 1, 2, ... per step, at a real saddle: cp = P/lead, cq =
    lam Q/lead and cl = -lam in units of 2^-fb, m = 2 or 3.  A generator:
    its frame holds the series, so each step resumes where the last one
    left off."""
    f2 = 2 * fb
    e, f = _series_start(cl, m, fb, r)
    ib.append(1 << (fb + r))
    solve = f2 + r * (m - 1)
    yield
    for k in count(2):
        top = k + m - 1
        se = sum(map(mul, ib, reversed(e)))
        sf = sum(map(mul, ib, reversed(f)))
        kb = _rz(-k * (cp * se - cq * sf), solve, top)
        e.append(_rz(se, fb, top))
        f.append(_rz(cl * sf, f2, top))
        # beta_k s^k multiplies E by e^(beta_k s^k) and F by
        # e^(-lam beta_k s^k), adding to orders k..k+m-1; o descends, so
        # e[o] is read before its own update, and the square enters only
        # at o = k (m = 3, k = 2), where e_0 = f_0 = 1
        b = _rz(kb, 0, k)
        bf = _rz(cl * b, fb)
        for o in range(m - 1, -1, -1):
            de, df, s = b * e[o], bf * f[o], fb
            if o == k:
                de, df, s = 2 * de + b * b, 2 * df + bf * bf, fb + 1
            e[k + o] += _rz(de, s)
            f[k + o] += _rz(df, s)
        ib.append(kb)
        yield


def _complex_betas(cp, cq, cl, m: int, fb: int, r: int, br: list,
                   bi: list):
    """_real_betas at a complex saddle, appending to br and bi: every
    series, cp and cq as (re, im) pairs of ints and each series' re + im
    kept beside it, so that a complex dot product takes three real ones
    (Gauss; TAOCP 4.6.4).  Every complex saddle is simple (m = 2; the
    double route runs m = 3 at the real u* only), so the square that
    _real_betas adds at o = k never enters."""
    (pr, pi), (qr, qi) = cp, cq
    f2 = 2 * fb
    er, fr = _series_start(cl, m, fb, r)
    ei, fi = [0] * (m + 1), [0] * (m + 1)
    es, fs = er[:], fr[:]
    br.append(1 << (fb + r))
    bi.append(0)
    bs = br[:]
    solve = f2 + r * (m - 1)

    def cdot(yr, yi, ys):
        p1 = sum(map(mul, br, reversed(yr)))
        p2 = sum(map(mul, bi, reversed(yi)))
        return p1 - p2, sum(map(mul, bs, reversed(ys))) - p1 - p2

    yield
    for k in count(2):
        top = k + m - 1
        ser, sei = cdot(er, ei, es)
        sfr, sfi = cdot(fr, fi, fs)
        xr = pr * ser - pi * sei - qr * sfr + qi * sfi
        xi = pr * sei + pi * ser - qr * sfi - qi * sfr
        kr = _rz(-k * xr, solve, top)
        ki = _rz(-k * xi, solve, top)
        er.append(_rz(ser, fb, top))
        ei.append(_rz(sei, fb, top))
        fr.append(_rz(cl * sfr, f2, top))
        fi.append(_rz(cl * sfi, f2, top))
        b_r, b_i = _rz(kr, 0, k), _rz(ki, 0, k)
        g_r, g_i = _rz(cl * b_r, fb), _rz(cl * b_i, fb)
        for o in range(m - 1, -1, -1):
            dr = b_r * er[o] - b_i * ei[o]
            di = b_r * ei[o] + b_i * er[o]
            hr = g_r * fr[o] - g_i * fi[o]
            hi = g_r * fi[o] + g_i * fr[o]
            j = k + o
            er[j] += _rz(dr, fb)
            ei[j] += _rz(di, fb)
            fr[j] += _rz(hr, fb)
            fi[j] += _rz(hi, fb)
        # orders k..top are the ones just appended or updated
        es[k:] = map(add, er[k:], ei[k:])
        fs[k:] = map(add, fr[k:], fi[k:])
        br.append(kr)
        bi.append(ki)
        bs.append(kr + ki)
        yield


class SaddleCoeffs:
    """The coefficients of one saddle's series, as they are asked for:
    A_0, A_1, ..., A_cap at a simple saddle (m = 2), mpmath numbers at the
    working precision, u0 an mp location (polish it first); B_0, B_1,
    ..., B_cap at the double saddle (m = 3), doubles, u0 the float u*.

    Both are read off one engine, resumable: k beta_k for k = 1..len(self),
    in units of 2^-(fb + r k), as one int list at a real u0 and (re, im)
    lists at a complex one (parts), and h^(m)(u0) in u0's arithmetic
    (hm).  t = sum_k beta_k s^k solves h(u0) - h(u0 + t) = w^m/m in the
    normalized variable s = b_1 w, so beta_k = b_k / b_1^k and beta_1 = 1.

    In s the differentiated substitution reads

        t'(s) h'(u0 + t) = s^(m-1) h^(m)(u0)/(m-1)!,

    with h'(u0 + t) = P (E - 1) - lam Q (F - 1), E = e^t, F = e^(-lam t),
    P = e^(u0)/2 and Q = sign e^(-lam u0)/2 from Phase.parts.  The
    order-k equation is linear in beta_k with weight lead (k+m-1), lead =
    h^(m)(u0)/(m-1)!; its other part is two convolutions, sum i beta_i
    e_(k+m-1-i) and sum i beta_i f_(k+m-1-i).  The same two sums are
    (k+m-1) e_(k+m-1) and -(k+m-1) f_(k+m-1)/lam with beta_k still 0, from
    E' = t' E and F' = -lam t' F.  Once beta_k is solved, beta_k s^k
    multiplies E by e^(beta_k s^k), so e_(k+o) gains beta_k e_o for o <
    m (and beta_k^2/2 where o = k), and likewise F: O(m) each.  So each
    order costs two dot products, and the series to order n O(n^2) in
    all.

    The recurrence runs on Python ints in fixed point (_real_betas, and
    _complex_betas on (re, im) lists at a complex saddle).  P, Q and lam
    are binary fractions, so lam Q and lead are formed from them exactly,
    and P/lead and lam Q/lead are rounded to units of 2^-F (fb in the
    code).  A value of order j is kept in units of 2^-(F + r j), which
    rescales s by 2^r: r comes from a pilot run of the first 12 orders at
    112 bits and levels the betas' geometric rise or fall, which spans
    2^-180..2^800 over 81 orders at the saddles measured.  Error budget:
    - every dot product is exact, and every stored value is rounded once
      (a shift, with a division by an order folded in) toward zero, so it
      is off by under one unit from the recurrence on the values before
      it; those units carry into later orders;
    - F starts at wp + 32 + 3 min(n, 12) bits, wp the working precision
      (53 for floats) and n = step cap + 1 the most betas the c_k up to
      cap read.  If some beta keeps fewer than wp + 32 bits (the larger
      of it and its neighbour counting, so an isolated zero beta does
      not), rescale runs the orders again at F raised by the shortfall;
    - what is read off the ints is rounded once: an A_k in its quotient
      by h''^k, a beta to a double before the B_k are formed.
    Rounding toward zero commutes with negation, so a beta that vanishes
    by symmetry (every other one on the curve at lam = 1) is exactly 0.
    Measured at 50 digits at the five saddles of
    test_engine_matches_80_digit_engine, beta_1..beta_81 are within
    1.3e-51 (half an ulp) of the fdot engine of tests/fdot_engine.py run
    at 120 digits on the same P, Q and lam, so what the A_k keep is set by
    the rounding of u0, P, Q and h'', not by the recurrence.

    A_k = (-1)^k (2k+1) b_(2k+1) / b_1 from the m = 2 reversion, which in
    the normalized coefficients (b_1^2 = -1/h'') is (2k+1) beta_(2k+1) /
    h''(u0)^k: no square-root branch enters, and at a real saddle every
    A_k is an mpf.  h''(u0)^k is an exact running power, rounded once.

    B_k = (k+1) b_(k+1) (H^(1/3) e^(-i pi/3))^(k+1) / 2^(2/3), H = 2
    h'''(u0), where the principal cube root b_1 = (2/h''')^(1/3)
    e^(i pi/3) carries the contour orientation.  In the normalized
    coefficients b_(k+1) = beta_(k+1) b_1^(k+1) that is B_k = (k+1)
    beta_(k+1) 2^(2k/3): real throughout, with no rotation to take back
    out.

    Sized from cap, every order's ints are a one-shot run's.  log2 and
    upto extend the engine unchecked; rescale checks its bits, and where
    it re-runs it at a larger scale, the c_k given before are void;
    checked does both.  pq, if given, is Phase.parts(u0) (as
    polish_saddle returns it).  Raises DegenerateSaddle where
    |h^(m)(u0)| < 1e-10.
    """

    def __init__(self, phase: Phase, u0, m: int, cap: int,
                 pq: tuple | None = None) -> None:
        lam, _, p, q = pq or phase.parts(u0)
        to_mp = type(u0) is mp.mpf or type(u0) is mp.mpc
        cplx = type(u0) is mp.mpc or type(u0) is complex
        self._wp = mp.mp.prec if to_mp else 53
        # (m-1)! P, (m-1)! lam Q and h^(m) = P + (-lam)^m Q exactly; h^(m)
        # rounded once to u0's arithmetic
        ln, le = _binary(lam)
        (pr, pi, pe), (qr, qi, qe) = _exact(p), _exact(q)
        fm, c = math.factorial(m - 1), (-ln) ** m
        pa, lq = (fm * pr, fm * pi, pe), (fm * ln * qr, fm * ln * qi,
                                          qe + le)
        e0 = min(pe, qe + m * le)
        sp, sq = pe - e0, qe + m * le - e0
        hx = ((pr << sp) + (c * qr << sq), (pi << sp) + (c * qi << sq), e0)
        if to_mp:
            hm = [from_man_exp(x, e0, self._wp, round_nearest)
                  for x in hx[:2]]
            hm = mp.make_mpc(tuple(hm)) if cplx else mp.make_mpf(hm[0])
        else:
            hm = [math.ldexp(float(x), e0) for x in hx[:2]]
            hm = complex(*hm) if cplx else hm[0]
        if abs(hm) < 1e-10:
            raise DegenerateSaddle(f"|h^({m})(u0)| = {float(abs(hm)):.2e}: "
                                   f"saddle is (numerically) of higher "
                                   f"order")
        self.hm = hm
        recur = _complex_betas if cplx else _real_betas

        def run(fb: int, r: int) -> tuple:
            # P/lead and lam Q/lead, lead = h^(m)/(m-1)!, and -lam
            cp, cq = _fixed_ratio(pa, hx, fb), _fixed_ratio(lq, hx, fb)
            cl = (-ln << (fb + le) if fb + le >= 0
                  else _rz(-ln, -(fb + le)))
            if not cplx:
                cp, cq = cp[0], cq[0]
            cols = ([], []) if cplx else ([],)
            return cols, recur(cp, cq, cl, m, fb, r, *cols)

        self._run = run
        # c_k is read off n beta_n, n = step k + 1: A_k off the odd betas
        # (the even ones integrate to 0 on the Gaussian), B_k off all
        self._step = 2 if m == 2 else 1
        n = self._step * cap + 1
        self.r = 0
        if n > _PILOT:
            # the pilot's last k beta_k against its unit gives log2 of the
            # betas' rise per order; r undoes it, rounding a fall up so
            # that it is overcorrected rather than left to eat the guard
            # bits
            (pilot, *_), steps = run(_PILOT_BITS, 0)
            for _ in range(_PILOT):
                next(steps)
            top = max(map(int.bit_length, pilot[-2:]))
            self.r = -((top - _PILOT_BITS) // (_PILOT - 1))
        self.fb = self._wp + _GUARD + _SLACK * min(n, _PILOT)
        self.parts, self._steps = run(self.fb, self.r)
        # at m = 2, h''^k is an exact running power of the rounded h''
        self._hx = _exact(hm)
        # log2 |c_k| = log2 |n beta_n| - k lh
        self._lh = math.log2(abs(complex(hm))) if m == 2 else -2 / 3
        self._c, self._pw = [], (1, 0)

    def __len__(self) -> int:
        return len(self.parts[0])

    def extend(self, n: int) -> None:
        """Betas through order n."""
        for _ in range(n - len(self.parts[0])):
            next(self._steps)

    def log2(self, k: int) -> float | None:
        """e with e - 1 <= log2 |c_k| < e + 1/2, read off the bits of
        n beta_n; None where c_k = 0."""
        n, parts = self._step * k + 1, self.parts
        if len(parts[0]) < n:
            self.extend(n)
        bits = parts[0][n - 1].bit_length()
        if len(parts) == 2:
            bits = max(bits, parts[1][n - 1].bit_length())
        return bits - self.fb - self.r * n - k * self._lh if bits else None

    def upto(self, k: int) -> list:
        """[c_0, ..., c_k]."""
        out, step, parts = self._c, self._step, self.parts
        self.extend(step * k + 1)
        hr, hi, e = self._hx
        pr, pi = self._pw
        for j in range(len(out), k + 1):
            n = step * j + 1
            s = self.fb + self.r * n
            if step == 1:
                # beta_n rounded once to a double, then B_j in floats
                x = parts[0][j]
                beta = x / (n << s) if s >= 0 else (x << -s) / n
                out.append(n * beta * 2.0 ** (2 * j / 3))
                continue
            # n beta_n exactly, then one rounding in the quotient by
            # h''^j, an exact running power rounded once
            num = _make([from_man_exp(v[n - 1], -s) for v in parts])
            pw = [from_man_exp(x, e * j, mp.mp.prec, round_nearest)
                  for x in (pr, pi)[:len(parts)]]
            out.append(num / _make(pw))
            pr, pi = pr * hr - pi * hi, pr * hi + pi * hr
        self._pw = pr, pi
        return out[:k + 1]

    def rescale(self) -> bool:
        """If some beta so far keeps fewer than wp + _GUARD bits (the
        larger of it and its neighbour counting, so an isolated zero beta
        does not), raises fb by the shortfall, runs those orders again,
        voids the c_k given before and returns True."""
        bits = [max(map(int.bit_length, v)) for v in zip(*self.parts)]
        short = self._wp + _GUARD - min(map(max, bits, bits[1:]),
                                        default=bits[0])
        if short <= 0:
            return False
        n = len(self)
        self.fb += short
        self.parts, self._steps = self._run(self.fb, self.r)
        self.extend(n)
        self._c, self._pw = [], (1, 0)
        return True

    def checked(self, k: int) -> list:
        """[c_0, ..., c_k], the bits of the orders behind them checked."""
        self.extend(self._step * k + 1)
        self.rescale()
        return self.upto(k)


def double_saddle_coeffs(lam: float, order: int) -> list[float]:
    """B_0..B_order for the double-saddle series on the coalescence curve
    (SaddleCoeffs, m = 3, at the float u*)."""
    if lam <= 0.0:
        raise DomainError("double-saddle coefficients require lam > 0")
    if order < 0:
        raise ValueError("order must be nonnegative")
    phase = Phase(lam, double_saddle_curve(lam), Sign.MINUS)
    return SaddleCoeffs(phase, u_star(lam), 3, order).checked(order)
