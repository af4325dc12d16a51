"""Level decoders: the revealed-level variable computable from either block.

For each construction there is a variable D that (a) is a function of the
hidden level at the block boundary whenever the level's signature fits
inside a block, and (b) can be decoded from the past block alone and from
the future block alone.  The decoders here are total functions of the block:
they return the decoded level, or 0 when the block does not determine one.
Unreachable blocks carry no mass, so returning 0 on them is harmless.

The decomposition E(n) = H(D) + I(past; future | D) then gives certified
lower bounds on block mutual information through the closed-form H(D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .exact import JointBlockTable, MIResult, _label_decomposition
from .intervals import Interval, entropy_term
from .models import DEFAULT_SERIES_CUTOFF, Kind, binary_length
from .series import level_weight_sums, normalization_sum

Block = Sequence[int]

_RUN_BYTE = b"\x03"
_SYMBOLS = {top: bytes(range(top + 1)) for top in (1, 2, 3)}
_DIGIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _as_bytes(block: Block, top: int) -> bytes:
    """Validate the symbol range and get a bytes view for C-speed scanning."""
    b = block if isinstance(block, bytes) else bytes(block)
    # Stripping the alphabet off both ends leaves nothing unless some
    # symbol lies outside it; the largest symbol is then a bad one.
    if b.strip(_SYMBOLS[top]):
        raise ValueError(f"symbol {max(b)} outside alphabet 0..{top}")
    return b


def _level_from_digits(digits: bytes) -> int:
    """The level whose binary digits after the leading 1 are `digits`."""
    return int(b"1" + digits.translate(_DIGIT_CHARS), 2)


# ----- single-marker cyclic kind ---------------------------------------------


def decode_past_hpm1(past: Block) -> int:
    """Period revealed by the past block: distance between the last two
    marker symbols, if twice that distance fits in the block; else 0."""
    b = _as_bytes(past, 1)
    last = b.rfind(1)
    if last < 0:
        return 0
    second = b.rfind(1, 0, last)
    if second < 0:
        return 0
    period = last - second
    return period if 2 * period <= len(b) else 0


def decode_future_hpm1(future: Block) -> int:
    """Mirror rule: distance between the first two marker symbols."""
    b = _as_bytes(future, 1)
    first = b.find(1)
    if first < 0:
        return 0
    nxt = b.find(1, first + 1)
    if nxt < 0:
        return 0
    period = nxt - first
    return period if 2 * period <= len(b) else 0


# ----- digit cyclic kind ------------------------------------------------------


def decode_past_hpm2(past: Block) -> int:
    """Level whose digit word sits between the last two delimiters, if the
    full period (twice the digit count) fits in the block; else 0."""
    b = _as_bytes(past, 2)
    last = b.rfind(2)
    if last < 0:
        return 0
    second = b.rfind(2, 0, last)
    if second < 0:
        return 0
    period = last - second
    if period < 2 or 2 * period > len(b):
        return 0
    return _level_from_digits(b[second + 1 : last])


def decode_future_hpm2(future: Block) -> int:
    """Mirror rule on the first two delimiters."""
    b = _as_bytes(future, 2)
    first = b.find(2)
    if first < 0:
        return 0
    nxt = b.find(2, first + 1)
    if nxt < 0:
        return 0
    period = nxt - first
    if period < 2 or 2 * period > len(b):
        return 0
    return _level_from_digits(b[first + 1 : nxt])


# ----- ergodic copy kind ------------------------------------------------------


def decode_past_hmc(past: Block) -> int:
    """Level read off a past block ending in (delimiter, digits, run of 3s).

    The trailing run of separator symbols must have length l in 1..s(m) and
    the digit word (with its leading delimiter) must be fully visible with
    2*s(m) <= n; any violation decodes to 0.
    """
    b = _as_bytes(past, 3)
    head = b.rstrip(_RUN_BYTE)
    run = len(b) - len(head)
    if run == 0:
        return 0
    start = head.rfind(2)
    if start < 0:
        return 0
    digits = head[start + 1 :]
    if not digits or digits.find(3) >= 0:
        return 0
    s = len(digits) + 1
    if run > s or 2 * s > len(b):
        return 0
    return _level_from_digits(digits)


def decode_future_hmc(future: Block) -> int:
    """Mirror rule: (run of 3s, digits, delimiter) at the start of the block."""
    b = _as_bytes(future, 3)
    tail = b.lstrip(_RUN_BYTE)
    run = len(b) - len(tail)
    if run == 0:
        return 0
    end = tail.find(2)
    if end < 0:
        return 0
    digits = tail[:end]
    if not digits or digits.find(3) >= 0:
        return 0
    s = len(digits) + 1
    if run > s or 2 * s > len(b):
        return 0
    return _level_from_digits(digits)


_PAST = {Kind.HPM1: decode_past_hpm1, Kind.HPM2: decode_past_hpm2, Kind.HMC: decode_past_hmc}
_FUTURE = {
    Kind.HPM1: decode_future_hpm1,
    Kind.HPM2: decode_future_hpm2,
    Kind.HMC: decode_future_hmc,
}


def past_decoder(kind: Kind | str) -> Callable[[Block], int]:
    return _PAST[Kind(kind)]


def future_decoder(kind: Kind | str) -> Callable[[Block], int]:
    return _FUTURE[Kind(kind)]


def hidden_truth(kind: Kind | str, state_at_origin, n: int) -> int:
    """The defined value of the revealed level, from the hidden state at the
    last past position (time 0).  Used to check decoders against the truth."""
    level, phase = state_at_origin.level, state_at_origin.phase
    return level if phase in _revealed_phases(Kind(kind), level, n) else 0


def _revealed_phases(kind: Kind, level: int, n: int) -> range:
    """The phases of `level` at which the state at time 0 reveals the level
    to blocks of length n.  A cyclic kind reveals at every phase or at none:
    when two markers (hpm1) or two delimiters (hpm2) fit in each block.  hmc
    reveals when 2s <= n and the state sits in phases s+1..2s, the run of
    threes that the past block ends in and the future block starts from."""
    if kind is Kind.HPM1:
        return range(1, level + 1) if 2 * level <= n else range(0)
    s = binary_length(level)
    if 2 * s > n:
        return range(0)
    return range(1, s + 1) if kind is Kind.HPM2 else range(s + 1, 2 * s + 1)


# ----- closed-form entropy of the revealed level ------------------------------


def decoded_level_entropy(
    kind: Kind | str,
    alpha: float,
    n: int,
    series_cutoff: int = DEFAULT_SERIES_CUTOFF,
) -> MIResult:
    """Certified H(D) in bits from the closed-form law of the revealed level.

    The supports are 2..floor(n/2) for the single-marker kind and
    2..2**floor(n/2)-1 for the digit kinds; the ergodic kind carries an
    extra factor 1/3 (only one phase window in three reveals the level).
    The remaining probability sits on D = 0.  Supports beyond the direct
    summation limit are handled by per-digit-group integral brackets.
    """
    kind = Kind(kind)
    if n < 2:
        return MIResult(0.0, 0.0, 0.0)
    if kind is Kind.HPM1:
        top = n // 2
    else:
        top = (1 << (n // 2)) - 1
    if top < 2:
        return MIResult(0.0, 0.0, 0.0)

    c = normalization_sum(alpha, series_cutoff).reciprocal()
    if kind is Kind.HMC:
        c = c * Interval.point(1.0 / 3.0)
    sums = level_weight_sums(alpha, top)
    # sum of -p log2 p over the positive support, with p = c * w(m):
    #   c * (S1 + alpha*S2) + (-c log2 c) * S0
    positive = c * (sums.s1 + alpha * sums.s2) + entropy_term(c) * sums.s0
    p0 = (1.0 - c * sums.s0).clamp(0.0, 1.0)
    h = positive + entropy_term(p0)
    mid = h.mid
    return MIResult(mid, mid - h.lo, h.hi - mid)


@dataclass(frozen=True)
class DecompositionCheck:
    """Residual of E(n) = H(D) + I(past; future | D) on one table."""

    residual: float
    allowance: float
    block_mi: MIResult
    label_entropy: MIResult
    conditional_mi: MIResult

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.allowance


def mi_decomposition_residual(table: JointBlockTable, kind: Kind | str) -> DecompositionCheck:
    """Evaluate E(n) - H(D) - I(past; future | D) on a table.

    Zero in exact arithmetic whenever the decoders agree on every entry; the
    allowance combines the three certified widths with a float-roundoff
    fudge proportional to the table size.
    """
    kind = Kind(kind)
    e, h_label, cond = _label_decomposition(table, past_decoder(kind), future_decoder(kind))
    residual = e.value - h_label.value - cond.value
    fudge = 1e-11 * max(1.0, math.log2(1 + len(table.entries))) * (1 + table.n)
    allowance = e.err_high + h_label.err_high + cond.err_high + fudge
    return DecompositionCheck(residual, allowance, e, h_label, cond)
