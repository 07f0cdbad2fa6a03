"""Seeded point generator shared by the three point workloads.

A point is (kind, lam, a, x, sign).  Each kind has its own random stream,
seeded from (seed, kind), so the i-th point of a kind is the same in every
workload that runs one seed: eval-oracle and expand-* see the same inputs,
and the cheaper workloads simply take more of each stream.

Within a stream the inputs the program's cost and accuracy depend on are
stratified rather than left to chance, so every run has the same mix:

  * x is log-spread over [20, 400] in four bins taken in turn, the last
    one [200, 400] (the x >= 200 share is a quarter of every four points);
  * near-curve offsets |a/a* - 1| take each decade of [1e-6, 1e-1] in turn,
    with alternating sign;
  * lambda takes the three thirds of its range in turn, so chain N=0
    points cycle through (-1, 0], (0, 1) and [1, 2]; in (0, 1) the
    plus-axis chain counter does not converge for most a.

The kinds and the saddle configuration each one is meant to hit:

  real-neg    minus axis, -1 < lam <= 0: the single real saddle
  real        minus axis, lam > 0, a 30% to 100% above the coalescence curve
  conjugate   minus axis, lam > 0, a 30% to 80% below the curve
  double      minus axis, a on the curve a*(lam)
  near-curve  minus axis, 1e-6 <= |a/a* - 1| <= 1e-1 (non-uniform band)
  chain0      plus axis, no contributory pair (N = 0)
  chain1      plus axis, one contributory pair
  chain2      plus axis, two contributory pairs
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# log-bins of x; the last starts at 200 so the large-x oracle share is exact
X_EDGES = (20.0, 43.0887, 92.8318, 200.0, 400.0)

KINDS = ("real-neg", "real", "conjugate", "double", "near-curve",
         "chain0", "chain1", "chain2")


@dataclass(frozen=True)
class Point:
    kind: str
    lam: float
    a: float
    x: float
    minus: bool

    def as_dict(self) -> dict:
        return {"lam": self.lam, "a": self.a, "x": self.x,
                "sign": "minus" if self.minus else "plus"}


def curve(lam: float) -> float:
    """Coalescence curve a*(lam) of the two real minus-axis saddles."""
    return 0.5 * (1.0 + lam) * lam ** ((1.0 - lam) / (1.0 + lam))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _thirds(rng: random.Random, i: int, lo: float, hi: float) -> float:
    """Uniform in the (i mod 3)-th third of [lo, hi]."""
    w = (hi - lo) / 3.0
    return rng.uniform(lo + (i % 3) * w, lo + (i % 3 + 1) * w)


def _lam_a(kind: str, i: int, rng: random.Random) -> tuple[float, float, bool]:
    if kind == "real-neg":
        return _thirds(rng, i, -0.95, 0.0), rng.uniform(0.2, 1.2), True
    if kind == "chain0":
        return _thirds(rng, i, -1.0, 2.0), rng.uniform(0.5, 1.2), False
    if kind == "chain1":
        return rng.uniform(2.0, 3.5), rng.uniform(0.15, 0.3), False
    if kind == "chain2":
        return rng.uniform(5.0, 6.0), rng.uniform(0.15, 0.3), False
    lam = _thirds(rng, i, 0.1, 6.0)
    a = curve(lam)
    if kind == "real":
        return lam, a * (1.0 + rng.uniform(0.3, 1.0)), True
    if kind == "conjugate":
        return lam, a * (1.0 - rng.uniform(0.3, 0.8)), True
    if kind == "double":
        return lam, a, True
    if kind == "near-curve":
        # decades from 1e-4 first, so a stream's first point is never close
        # enough for the package's curve test to send it to the double route
        decade = -6 + (i + 2) % 5
        delta = _log_uniform(rng, 10.0 ** decade, 10.0 ** (decade + 1))
        sign = 1.0 if (i // 5) % 2 == 0 else -1.0
        return lam, a * (1.0 + sign * delta), True
    raise ValueError(f"unknown kind {kind!r}")


def kind_stream(seed: int, kind: str, count: int) -> list[Point]:
    """The first `count` points of one kind for one seed."""
    rng = random.Random(f"{seed}/{kind}")
    offset = KINDS.index(kind)
    out = []
    for i in range(count):
        b = (i + offset) % (len(X_EDGES) - 1)
        x = _log_uniform(rng, X_EDGES[b], X_EDGES[b + 1])
        lam, a, minus = _lam_a(kind, i, rng)
        out.append(Point(kind, lam, a, x, minus))
    return out


def batch(seed: int, counts: dict[str, int]) -> list[Point]:
    """A workload batch: the given number of points of each kind, shuffled
    by the seed so kinds interleave in time."""
    pts = [p for kind in KINDS for p in kind_stream(seed, kind,
                                                    counts.get(kind, 0))]
    random.Random(f"{seed}/order").shuffle(pts)
    return pts


def mix(points: list[Point]) -> dict[str, float]:
    """Share of each kind in a batch, and of points with x >= 200."""
    n = len(points)
    out = {kind: sum(p.kind == kind for p in points) / n for kind in KINDS}
    out["x>=200"] = sum(p.x >= 200.0 for p in points) / n
    return out
