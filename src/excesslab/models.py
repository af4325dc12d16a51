"""The three built-in hidden Markov constructions.

All three processes share the same skeleton: countably many hidden states
grouped into levels, level n holding r(n) equally probable phases, with the
level law P(N = n) = C / (n * log2(n)**alpha) for a tail exponent
alpha in (1, 2].  They differ in r(n), in the transition kernel, and in the
deterministic symbol each state emits:

  hpm1 - r(n) = n; disjoint cycles per level; emits 1 once per period.
  hpm2 - r(n) = s(n), the binary digit count of n; disjoint cycles; emits a
         delimiter 2 followed by the binary digits of n (most significant
         digit replaced by the delimiter).
  hmc  - r(n) = 3*s(n); levels communicate through the end-of-word branch,
         making the chain ergodic; emits delimiter, digits, a run of 3s,
         then the digits again.

Two independent rules give the symbols: `emission_word` spells a whole
cycle for the exact tables, and `emission_digits` names the one digit a
phase shows, which the sampler reads at any level (`sampling._symbols`).

Normalization constants are certified interval enclosures; every stationary
or transition probability derived from them carries the enclosure along.
The level and branch tail masses are C and D times sums that `series`
computes and caches.
"""

from __future__ import annotations

import enum

import numpy as np

from .intervals import Interval
from .series import (
    branch_normalization_sum,
    branch_weight_sum,
    level_tail_sum,
    normalization_sum,
)

DEFAULT_SERIES_CUTOFF = 10_000_000
MIN_SERIES_CUTOFF = 100

_DIGIT_SYMBOLS = bytes.maketrans(b"01", b"\x00\x01")  # ASCII binary digits -> symbols


class Kind(str, enum.Enum):
    HPM1 = "hpm1"
    HPM2 = "hpm2"
    HMC = "hmc"


ALPHABETS: dict[Kind, tuple[int, ...]] = {
    Kind.HPM1: (0, 1),
    Kind.HPM2: (0, 1, 2),
    Kind.HMC: (0, 1, 2, 3),
}


def binary_length(n: int) -> int:
    """s(n): the number of binary digits of n >= 1."""
    if n < 1:
        raise ValueError(f"binary_length requires n >= 1, got {n}")
    return n.bit_length()


def phase_count(kind: Kind, level: int) -> int:
    """r(n): phases per level; n (hpm1), s(n) (hpm2), 3*s(n) (hmc)."""
    if level < 2:
        raise ValueError(f"levels start at 2, got {level}")
    if kind is Kind.HPM1:
        return level
    if kind is Kind.HPM2:
        return binary_length(level)
    return 3 * binary_length(level)


class ProcessModel:
    """One of the three constructions, with certified normalization constants.

    `fixed_level` collapses the level mixture to a point mass on one level;
    this degenerate configuration exists for diagnostics and tests (the
    kernel and emission map are unchanged, only the level law is).
    """

    def __init__(
        self,
        kind: Kind | str,
        alpha: float = 2.0,
        series_cutoff: int = DEFAULT_SERIES_CUTOFF,
        fixed_level: int | None = None,
    ) -> None:
        self.kind = Kind(kind)
        if not 1.0 < alpha <= 2.0:
            raise ValueError(f"tail exponent must lie in (1, 2], got {alpha}")
        if series_cutoff < MIN_SERIES_CUTOFF:
            raise ValueError(f"series cutoff must be >= {MIN_SERIES_CUTOFF}, got {series_cutoff}")
        if fixed_level is not None and fixed_level < 2:
            raise ValueError(f"levels start at 2, got fixed_level={fixed_level}")
        self.alpha = float(alpha)
        self.series_cutoff = int(series_cutoff)
        self.fixed_level = fixed_level

    def __repr__(self) -> str:
        extra = f", fixed_level={self.fixed_level}" if self.fixed_level else ""
        return f"ProcessModel({self.kind.value!r}, alpha={self.alpha}{extra})"

    @property
    def alphabet(self) -> tuple[int, ...]:
        return ALPHABETS[self.kind]

    @property
    def norm_c(self) -> Interval:
        """Enclosure of C with C**-1 = sum_{n>=2} 1/(n*log2(n)**alpha)."""
        return normalization_sum(self.alpha, self.series_cutoff).reciprocal()

    @property
    def norm_d(self) -> Interval:
        """Enclosure of the branch constant D (hmc only)."""
        if self.kind is not Kind.HMC:
            raise ValueError("branch constant is defined for the ergodic kind only")
        return branch_normalization_sum(self.alpha, self.series_cutoff).reciprocal()

    def phase_count(self, level: int) -> int:
        return phase_count(self.kind, level)

    # ----- tail masses ------------------------------------------------------

    def level_tail_mass(self, level_cutoff: int) -> Interval:
        """Enclosure of P(N > level_cutoff): C times `series.level_tail_sum`."""
        if self.fixed_level is not None:
            return Interval.point(1.0 if self.fixed_level > level_cutoff else 0.0)
        return (self.norm_c * level_tail_sum(self.alpha, level_cutoff)).clamp(0.0, 1.0)

    def branch_tail_mass(self, level_cutoff: int) -> Interval:
        """Enclosure of the hmc branch mass beyond level_cutoff: 1 - D times
        `series.branch_weight_sum` up to it."""
        total = branch_weight_sum(self.alpha, level_cutoff)
        return (1.0 - self.norm_d * Interval.point(total)).clamp(0.0, 1.0)

    # ----- emission ---------------------------------------------------------

    def emission_digits(self, digits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Which binary digit of an hpm2 or hmc level of `digits` digits the
        0-based phase `offsets` emit, elementwise: its place p (0 the least
        significant digit), or -2 where the symbol is the delimiter 2 and -3
        where it is one of hmc's 3s.

        Digits 2..s sit at offsets 1..s-1 and, for hmc, again at
        2s+1..3s-1, so a symbol is known from s and the one digit it shows.
        """
        s, k = digits, offsets
        p = s - 1 - k
        if self.kind is Kind.HMC:
            p += 2 * s * (k > 2 * s)
            np.putmask(p, (k >= s) & (k <= 2 * s), -3)
        np.putmask(p, k == 0, -2)
        return p

    def emission_word(self, level: int) -> bytes:
        """One full cycle of emissions, phases 1..r(level), as bytes,
        built from the binary digits of `level` in one pass."""
        if level < 2:
            raise ValueError(f"levels start at 2, got {level}")
        if self.kind is Kind.HPM1:
            return bytes(level - 1) + b"\x01"
        digits = bin(level)[3:].encode().translate(_DIGIT_SYMBOLS)  # digits 2..s
        if self.kind is Kind.HPM2:
            return b"\x02" + digits
        return b"\x02" + digits + b"\x03" * (len(digits) + 2) + digits
