"""Level decoders: the revealed-level variable computable from either block.

For each construction there is a variable D that (a) is a function of the
hidden level at the block boundary whenever the level's signature fits
inside a block, and (b) can be decoded from the past block alone and from
the future block alone.  The decoders here are total functions of the block:
they return the decoded level, or 0 when the block does not determine one.
Unreachable blocks carry no mass, so returning 0 on them is harmless.

Each decoder works on a matrix of blocks, one uint8 row per distinct block,
and returns one level per row, all in numpy.  Rows are decoded in chunks of
2**16 symbols, so temporaries stay bounded.  A future block is decoded as its
reversal with the past rule, with its digits read the other way.  Levels
are int64 unless a digit word has 62 or more digits, which needs n >= 126;
the levels are then exact Python integers in an object array.

The decomposition E(n) = H(D) + I(past; future | D) then gives certified
lower bounds on block mutual information through the closed-form H(D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .exact import JointBlockTable, _label_decomposition
from .intervals import Enclosure, Interval, entropy_term
from .models import ALPHABETS, DEFAULT_SERIES_CUTOFF, Kind
from .series import _check_alpha, level_weight_sums, normalization_sum

_CHUNK_SYMBOLS = 1 << 16  # symbols decoded at once
_LIMB = 62  # digits per int64 limb of a level
_POWERS_OF_TWO = 1 << np.arange(63, dtype=np.int64)  # binary lengths by searchsorted


def _decode(kind: Kind, future: bool, blocks: np.ndarray) -> np.ndarray:
    """The decoded level of each row of the (k, n) block matrix, 0 where the
    row does not determine one.  Raises ValueError on a symbol outside the
    kind's alphabet."""
    blocks = np.asarray(blocks)
    top = ALPHABETS[kind][-1]
    if blocks.size and blocks.max() > top:
        raise ValueError(f"symbol {blocks.max()} outside alphabet 0..{top}")
    # One block per column, so that every reduction over a block's symbols
    # runs along contiguous rows; a future block is read from its end.
    columns = blocks.T[::-1] if future else blocks.T
    chunk = max(1, _CHUNK_SYMBOLS // blocks.shape[1])
    parts = [
        _decode_columns(kind, future, np.ascontiguousarray(columns[:, i : i + chunk]))
        for i in range(0, len(blocks), chunk)
    ]
    return np.concatenate(parts) if parts else np.zeros(0, np.int64)


def _decode_columns(kind: Kind, mirror: bool, c: np.ndarray) -> np.ndarray:
    """The past rules, on one chunk of blocks held as the columns of `c`.

    hpm1 and hpm2 read the last two markers (1) or delimiters (2): their
    distance p must satisfy 2p <= n, and for hpm2 p >= 2, with the digit
    word in between.  hmc reads (delimiter, digits, run of 3s) at the end of
    the block: with s = digits + 1, the run must have length 1..s and
    2s <= n.  Positions are int16 (int64 past 2**14 symbols)."""
    n = len(c)
    pos = np.arange(n, dtype=np.int16 if n < 1 << 14 else np.int64)[:, None]
    if kind is Kind.HMC:
        head = np.where(c != 3, pos, -1).max(0)  # the run of 3s follows it
        start = np.where((c == 2) & (pos <= head), pos, -1).max(0)
        stop = head + 1
        run = n - stop
        ok = (start >= 0) & (run >= 1) & (stop - start >= 2) & (run <= stop - start)
        ok &= np.where((c == 3) & (pos <= head), pos, -1).max(0) < start  # digits only
    else:
        marks = np.where(c == ALPHABETS[kind][-1], pos, -1)  # marker 1 or delimiter 2
        stop = marks.max(0)
        start = np.where(marks < stop, marks, -1).max(0)
        ok = start >= 0
        if kind is Kind.HPM1:
            return np.where(ok & (stop - start <= n // 2), stop - start, 0).astype(np.int64)
        ok &= stop - start >= 2
    ok &= stop - start <= n // 2
    start = np.where(ok, start, stop - 1)  # an empty word where nothing decodes
    return np.where(ok, _word_levels(c, pos, start, stop, mirror), 0)


def _word_levels(
    c: np.ndarray, pos: np.ndarray, start: np.ndarray, stop: np.ndarray, mirror: bool
) -> np.ndarray:
    """int("1" + word, 2) for the binary word c[start+1:stop] of each
    column, most significant digit first, or last when `mirror`.

    Each int64 limb holds 62 place values; a word of 62 or more digits joins
    its limbs as exact Python integers."""
    place = pos - start - 1 if mirror else stop - 1 - pos
    digits = stop - start - 1
    ones = c == 1
    limbs = []
    for low in range(0, int(digits.max()) + 1, _LIMB):
        part = place - low
        bits = ones & (part >= 0) & (part < np.minimum(digits - low, _LIMB))
        lead = (digits >= low) & (digits < low + _LIMB)
        # Shifts are masked to 0..63, where only the bits kept are nonzero.
        limbs.append(
            (bits.astype(np.int64) << (part & 63)).sum(0)
            | (lead.astype(np.int64) << ((digits - low) & 63))
        )
    levels = limbs[-1]
    for limb in reversed(limbs[:-1]):
        levels = (levels.astype(object) << _LIMB) | limb.astype(object)
    return levels


def past_decoder(kind: Kind | str) -> Callable[[np.ndarray], np.ndarray]:
    """The past rule of `kind` on a (k, n) uint8 matrix of blocks."""
    return partial(_decode, Kind(kind), False)


def future_decoder(kind: Kind | str) -> Callable[[np.ndarray], np.ndarray]:
    """The future rule of `kind`: the past rule on each reversed block, with
    the digit word read back to front."""
    return partial(_decode, Kind(kind), True)


def _revealed_phase_bounds(
    kind: Kind, levels: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The phases at which the hidden state at time 0 reveals its level to
    blocks of length n, for an int64 array of levels below 2**62: the first
    such phase and one past the last, (0, 0) where none does.  A cyclic kind
    reveals at every phase or at none: when two markers (hpm1) or two
    delimiters (hpm2) fit in each block.  hmc reveals when 2s <= n, s the
    level's binary length, at phases s+1..2s: the run of threes that the
    past block ends in and the future block starts from.  A level of more
    than n // 2 binary digits never reveals, so clipping it to any such
    value changes nothing."""
    if kind is Kind.HPM1:
        hit = 2 * levels <= n
        return np.where(hit, 1, 0), np.where(hit, levels + 1, 0)
    s = _POWERS_OF_TWO.searchsorted(levels, "right")
    hit = 2 * s <= n
    lo, hi = (1, s + 1) if kind is Kind.HPM2 else (s + 1, 2 * s + 1)
    return np.where(hit, lo, 0), np.where(hit, hi, 0)


# ----- closed-form entropy of the revealed level ------------------------------


def decoded_level_entropy(
    kind: Kind | str,
    alpha: float,
    n: int,
    series_cutoff: int = DEFAULT_SERIES_CUTOFF,
) -> Enclosure:
    """Certified H(D) in bits from the closed-form law of the revealed level:
    the enclosure of the closed form, valued at its midpoint.

    The supports are 2..floor(n/2) for the single-marker kind and
    2..2**floor(n/2)-1 for the digit kinds; the ergodic kind carries an
    extra factor 1/3 (only one phase window in three reveals the level).
    The remaining probability sits on D = 0.  Supports beyond the direct
    summation limit are handled by per-digit-group integral brackets.  An
    alpha outside (1, 2] or an n below 1 raises ValueError naming the kind,
    alpha and n.
    """
    kind = Kind(kind)
    where = f"{kind.value} alpha={alpha} n={n}: "
    _check_alpha(alpha, where)
    if n < 1:
        raise ValueError(f"{where}block length must be >= 1, got {n}")
    if n < 2:
        return Enclosure(0.0, 0.0, 0.0)
    if kind is Kind.HPM1:
        top = n // 2
    else:
        top = (1 << (n // 2)) - 1
    if top < 2:
        return Enclosure(0.0, 0.0, 0.0)

    c = normalization_sum(alpha, series_cutoff).reciprocal()
    if kind is Kind.HMC:
        c = c * Interval.point(1.0 / 3.0)
    sums = level_weight_sums(alpha, top)
    # sum of -p log2 p over the positive support, with p = c * w(m):
    #   c * (S1 + alpha*S2) + (-c log2 c) * S0
    positive = c * (sums.s1 + alpha * sums.s2) + entropy_term(c) * sums.s0
    p0 = (1.0 - c * sums.s0).clamp(0.0, 1.0)
    h = positive + entropy_term(p0)
    return Enclosure(h.lo, h.hi, h.mid)


@dataclass(frozen=True)
class DecompositionCheck:
    """Residual of E(n) = H(D) + I(past; future | D) on one table, and the
    three enclosures it was taken from."""

    residual: float
    allowance: float
    block_mi: Enclosure
    label_entropy: Enclosure
    conditional_mi: Enclosure

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.allowance


def mi_decomposition_residual(table: JointBlockTable, kind: Kind | str) -> DecompositionCheck:
    """Evaluate E(n) - H(D) - I(past; future | D) on a table.

    Zero in exact arithmetic whenever the decoders agree on every entry: the
    residual is an identity among the plug-in values of one table, so the
    pruned mass behind the certified widths does not enter it.  The
    allowance is a float-roundoff fudge that grows with the table size.
    """
    kind = Kind(kind)
    e, h_label, cond = _label_decomposition(table, past_decoder(kind), future_decoder(kind))
    residual = e.value - h_label.value - cond.value
    fudge = 1e-11 * max(1.0, math.log2(1 + len(table.masses))) * (1 + table.n)
    return DecompositionCheck(residual, fudge, e, h_label, cond)
