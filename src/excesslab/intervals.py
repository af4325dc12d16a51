"""Closed intervals: `Interval` for arithmetic, `Enclosure` for results.

Series brackets, normalization constants and probabilities are `Interval`s,
and so is arithmetic on them.  Every public function that certifies a
quantity returns an `Enclosure`: an interval guaranteed to contain the true
value, plus the value it reports.  The intervals track series truncation and
pruned probability mass; plain double rounding is treated as negligible
against every tolerance used downstream (widths here are >= 1e-12 wherever
they matter, rounding is ~1e-16 relative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INV_E = 1.0 / math.e


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other) -> "Interval":
        o = _coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = _coerce(other)
        return Interval(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other) -> "Interval":
        o = _coerce(other)
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(c), max(c))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        if self.lo <= 0.0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1.0 / self.hi, 1.0 / self.lo)

    def clamp(self, lo: float = 0.0, hi: float = 1.0) -> "Interval":
        return Interval(min(max(self.lo, lo), hi), min(max(self.hi, lo), hi))


@dataclass(frozen=True)
class Enclosure(Interval):
    """A certified value in bits: the true quantity lies in [lo, hi].  The
    reported `value` is stored, not derived: a table's plug-in value need not
    be the midpoint of its rounded endpoints."""

    value: float

    def __post_init__(self) -> None:
        if not self.lo <= self.value <= self.hi:
            raise ValueError(f"value {self.value} outside [{self.lo}, {self.hi}]")

    @classmethod
    def around(cls, value: float, err: float) -> "Enclosure":
        return cls(value - err, value + err, value)

    # Aliases of lo and hi, read by the benchmark harness (perfbench/workloads.py).
    lower = property(lambda self: self.lo)
    upper = property(lambda self: self.hi)


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x), float(x))


def entropy_term(p: Interval) -> Interval:
    """Enclosure of -p*log2(p) over an interval of probabilities.

    The map peaks at p = 1/e and vanishes at both ends of [0, 1], so the
    enclosure needs the critical point only when the interval straddles it.
    """
    p = p.clamp(0.0, 1.0)
    vals = [_phi(p.lo), _phi(p.hi)]
    hi = max(vals)
    if p.lo < _INV_E < p.hi:
        hi = _phi(_INV_E)
    return Interval(min(vals), hi)


def _phi(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x)


def binary_entropy(delta: float) -> float:
    """h(delta) in bits; 0 at the endpoints."""
    if delta <= 0.0 or delta >= 1.0:
        return 0.0
    return -delta * math.log2(delta) - (1.0 - delta) * math.log2(1.0 - delta)
