"""Seeded trajectory sampling and block-MI estimation.

Every variate is a pure function of (seed, stream, lane, draw): draw k of
lane p of stream s is the four 64-bit words that Philox4x64-10 (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) gives with key
(seed, s) and counter (k, p, 0, 0).  No generator carries state from one
variate to the next, so a stream does not depend on which streams are
drawn with it, and `sample_trajectories` builds all of its streams in array
passes; its trajectory i equals `sample_trajectory(model, length, seed,
stream=i)` bit for bit.  Seeds and streams are 64-bit words.  The lanes:

* lane 0, draw 0: the initial hidden state.  Word 0 is the level's
  uniform, word 1 its within-group uniform, word 2 the phase and word 3 the
  first 64 low digits of a tail level.
* lane 1, draw k: the level of hmc word k + 1, the (k+1)-th word after the
  initial one, from its words 0, 1 and 3 as in lane 0.
* lane 2: the further words of a phase count of 2**32 or more, which only
  hpm1 levels reach.
* lane 3 + w: the further low digits of the tail level of word w (0 is the
  initial word).

A uniform is the top 53 bits of a word times 2**-53.  Levels are drawn by
inverse CDF.  Below the last entry of a one-million-level prefix table
(`_prefix_levels`) the uniform gives its level exactly as tabulated.
Beyond it, it gives a binary-digit group j (levels of j digits): for the
stationary law by inverting the integral-bracket midpoint of the group
tail, for the hmc branch law from a table of 20,000 groups.  Within the
group, the top 21 binary digits come from inverting the density
t**-alpha of t = log2(level) at the within-group uniform, and the j - 21
low digits are uniform; within a group the sampled density is proportional
to 1/(m*log2(m)**alpha) to a relative 2**-20.  Digit groups are capped at 2**20
binary digits; the stationary mass folded into the last group is
c*ln2/(alpha-1)*(2**20)**(1-alpha), at series cutoff 1e7 5.7e-2 at alpha =
1.2, 8.0e-4 at 1.5 and 6.5e-7 at 2, and it grows as alpha approaches 1.  A
phase offset in 0..r-1 is X mod r for an integer X of at least 32 more
bits than r (`_phase_offsets`).
These sampler approximations affect statistical estimates only; all
certified quantities come from the exact engine.

Levels are int64 arrays, exact up to 62 binary digits and clipped to
2**62 past them, with their binary digit counts and top 21 digits (a
shorter level shifted left to 21 places).  Every hpm2 and hmc symbol, at
any level, comes from the digit count, the top 21 digits and the one
low-digit word that holds the digit shown (word 3, or a word of lane 3 +
w), read only where a symbol asks for it (`_symbols`): hpm2 cycles as one
`(count, length)` matrix of phases, hmc words as spans.  A level shows at
most `length` of its digits, and no symbol needs the rest.  An hpm1 cycle
shows its marker at each step t where t - left + 1 is a multiple of r,
with `left` the phases left to its end: so a level past 62 digits, held
clipped, needs only `left`, exact below 2**62, a remainder in Python ints
that live for one pass of rows only (`_phase_offsets`).  The hmc words that
follow the initial one come in blocks of consecutive draws for every
unfinished stream at once (`_branch_words`).  Each trajectory keeps one
entry per word, its initial state and the level of every later word.
Draws are read in runs of consecutive counters under one key (`_runs`).  A
scalar sampler with the same lanes, in Python ints, is kept in the tests as
the reference.

Both entry points return a `Trajectories` batch, the one trajectory type:
the read-only `(count, length)` symbol matrix the passes fill, with the
word records as flat int64 arrays, and no per-stream object;
`sample_trajectory` returns a batch of one row.  The estimator reads the
matrix, of a batch or of data from elsewhere.

The cyclic kinds are nonergodic: a single trajectory stays on one cycle
forever, so time averages estimate per-component information, not the
ensemble block MI.  Ensemble estimation therefore pools disjoint windows
across the rows of a matrix of many independently seeded trajectories;
the ergodic kind uses sliding windows over a matrix of one row.  The
estimator takes its regime from the row count and reports which one ran.
Either way each window is numbered once, in order of first appearance, by
the block numbering of the exact engine's tables (`exact._number_blocks`,
one np.sort of packed (code, index) keys wherever they fit in 64 bits),
and the bootstraps reweight window counts with the same random draws as a
window-by-window resample.  Every entropy is taken from integer counts,
with c * log2(c) read from one table per estimate.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import _number_blocks, _spans, _stable_order
from .models import Kind, ProcessModel
from .series import LN2, branch_normalization_sum, normalization_sum

_PREFIX_TOP = 1 << 20  # levels sampled from the exact prefix table
_FIRST_GROUP = 21  # digit count of the first level past the prefix table
_TOP_DIGITS = 21  # leading binary digits of a tail level set by the inverse
_EXACT_DIGITS = 62  # levels of at most this many digits are recorded exactly
_CLIP = 1 << 62  # the record of a longer level, or of a phase this large or larger
_GROUP_CAP = 1 << 20  # largest digit group representable by the sampler
_BRANCH_GROUPS = 20000  # digit groups tabulated for the branch law
_BRANCH_ROWS = 1 << 16  # most hmc branch draws made in one array pass
_MIN_HMC_WORD = 6  # r(2) = r(3) = 3 * 2 symbols, the shortest hmc word
_FEW_RUNS = 32  # Philox runs of one call all read from numpy's generator, however short
_LONG_RUN = 16  # blocks in a run that numpy's generator reads among more runs
_CHUNK_SYMBOLS = 1 << 18  # most symbols sampled in one array pass
_STATE_LANE, _BRANCH_LANE, _PHASE_LANE, _DIGIT_LANE = 0, 1, 2, 3

MIN_WINDOWS = 4


def _check_integer(name: str, value, minimum: int) -> int:
    """An integer argument as an int; anything else, or a value below
    `minimum`, raises an error naming the argument."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_entropy(name: str, value) -> int:
    """A seed or stream number, an integer in 0..2**64-1, as an int."""
    value = _check_integer(name, value, 0)
    if value >= 1 << 64:
        raise ValueError(f"{name} must be < 2**64, got {value}")
    return value


# ----- counter-based variates ---------------------------------------------------

# Philox4x64-10's multipliers and Weyl key increments (Salmon et al., SC'11).
_MASK32, _MASK64 = 0xFFFFFFFF, (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_EMPTY_BUFFER = {"buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of a * b, from products of 32-bit halves."""
    mask, half = np.uint64(_MASK32), np.uint64(32)
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & mask, b >> half
    low_low, low_high, high_low = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    middle = (low_low >> half) + (low_high & mask) + (high_low & mask)
    high = a_hi * b_hi + (low_high >> half) + (high_low >> half) + (middle >> half)
    return high, np.uint64(a) * b


def _philox(counter: tuple[np.ndarray, ...], key: np.ndarray) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 of every row at once: the four words numpy's Philox
    buffers when its counter reaches `counter` (four uint64 arrays, low word
    first) under `key` (a `(k, 2)` uint64 array)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key[:, 0], key[:, 1]
    for i in range(10):
        if i:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        high0, low0 = _mulhilo(_PHILOX_M[0], c0)
        high1, low1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = high1 ^ c1 ^ k0, low1, high0 ^ c3 ^ k1, low0
    return c0, c1, c2, c3


def _philox_words(bits, key: np.ndarray, lane: int, first: int, count: int) -> np.ndarray:
    """`count` words from draw `first` of `lane` under `key`, read from
    numpy's Philox bit generator `bits`.  It steps its 256-bit counter
    before it fills its buffer, so it is set one step back, buffer empty."""
    before = ((lane << 64) + first - 1) % (1 << 256)
    counter = [before >> b & _MASK64 for b in range(0, 256, 64)]
    state = {"counter": counter, "key": key}
    bits.state = {"bit_generator": "Philox", "state": state, **_EMPTY_BUFFER}
    return bits.random_raw(count)


def _runs(
    keys: np.ndarray, lanes: np.ndarray, firsts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The four words of draws firsts[i] .. firsts[i] + counts[i] - 1 of
    lane lanes[i] under keys[i], run after run: one row of a `(draws, 4)`
    uint64 array per draw.

    Short runs go through `_philox` in one array pass, about 200 numpy
    calls whatever their count.  Runs of `_LONG_RUN` blocks or more, and
    every run of a call with at most `_FEW_RUNS`, are read one after
    another from numpy's Philox bit generator: a few microseconds a run, and
    a block six times faster than in the array pass.  Both give the same
    words (`test_philox_port_matches_numpy`)."""
    starts = np.cumsum(counts) - counts
    words = np.empty((int(counts.sum()), 4), np.uint64)
    long = counts >= _LONG_RUN if len(keys) > _FEW_RUNS else np.full(len(keys), True)
    short = np.flatnonzero(~long)
    if len(short):
        run, step = _spans(counts[short])
        run = short[run]
        zero = np.zeros(len(run), np.uint64)
        counter = ((firsts[run] + step).astype(np.uint64), lanes[run].astype(np.uint64), zero, zero)
        words[starts[run] + step] = np.stack(_philox(counter, keys[run]), axis=1)
    if long.any():
        bits = np.random.Philox(0)
        for i in np.flatnonzero(long).tolist():
            drawn = _philox_words(bits, keys[i], int(lanes[i]), int(firsts[i]), 4 * int(counts[i]))
            words[starts[i] : starts[i] + counts[i]] = drawn.reshape(-1, 4)
    return words


def _lane_ints(keys: np.ndarray, lanes: np.ndarray, counts: np.ndarray) -> Iterator[int]:
    """Row i's first counts[i] words of lane lanes[i] under keys[i], word 0
    lowest, as one Python int each: draws 0, 1, ... of the lane, 4 words a
    draw, read for every row in one `_runs` call."""
    draws = -(-counts // 4)
    words = _runs(keys, lanes, np.zeros_like(counts), draws).astype("<u8", copy=False)
    words = memoryview(words.view(np.uint8).ravel())
    for start, count in zip((32 * (np.cumsum(draws) - draws)).tolist(), counts.tolist()):
        yield int.from_bytes(words[start : start + 8 * count], "little")


def _lane_words(
    keys: np.ndarray, lanes: np.ndarray, src: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """Word index[q] (4 words a draw) of lane lanes[src[q]] under
    keys[src[q]], for every query q: each draw asked for is read once, the
    draws of one row in runs of consecutive counters, in one `_runs` call."""
    if not len(src):
        return np.empty(0, np.uint64)
    draw = index // 4
    span = int(draw.max()) + 1
    asked = src * span + draw
    # Neighbouring queries mostly ask for one draw: only the first of each
    # such run is sorted.
    new = np.ones(len(asked), bool)
    new[1:] = asked[1:] != asked[:-1]
    pair, inverse = np.unique(asked[new], return_inverse=True)
    inverse = inverse.ravel()[np.cumsum(new) - 1]
    row, first = np.divmod(pair, span)
    new = np.ones(len(pair), bool)
    new[1:] = (row[1:] != row[:-1]) | (first[1:] != first[:-1] + 1)
    starts = np.flatnonzero(new)
    runs = row[starts]
    words = _runs(keys[runs], lanes[runs], first[starts], np.diff(starts, append=len(pair)))
    return words[inverse, index % 4]


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of each word."""
    return (words >> np.uint64(11)) * 2.0**-53


# ----- level law ---------------------------------------------------------------


@lru_cache(maxsize=32)
def _stationary_tables(alpha: float, series_cutoff: int):
    c_mid = normalization_sum(alpha, series_cutoff).reciprocal().mid
    # levels of at most 20 binary digits; digit groups take over at j = 21
    m = np.arange(2, _PREFIX_TOP, dtype=np.float64)
    # cumsum(c_mid / (m * log2(m)**alpha)) in place, in that expression's order
    cdf = np.log2(m)
    cdf **= alpha
    cdf *= m
    np.divide(c_mid, cdf, out=cdf)
    return c_mid, np.cumsum(cdf, out=cdf)


@lru_cache(maxsize=32)
def _branch_tables(alpha: float, series_cutoff: int):
    d_mid = branch_normalization_sum(alpha, series_cutoff).reciprocal().mid
    m = np.arange(2, _PREFIX_TOP, dtype=np.float64)
    # cumsum(d_mid / (3.0 * s * m * log2(m)**alpha)) in place, in that
    # expression's order; s is the binary digit count
    s = np.frexp(m)[1].astype(np.float64)
    s *= 3.0
    s *= m
    cdf = np.log2(m)
    cdf **= alpha
    cdf *= s
    np.divide(d_mid, cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    # Digit groups beyond the prefix, integral midpoints; the residual past
    # the last group (~1e-9) is folded into it.
    js = np.arange(_FIRST_GROUP, _FIRST_GROUP + _BRANCH_GROUPS, dtype=np.float64)
    ints = LN2 / (alpha - 1.0) * ((js - 1.0) ** (1.0 - alpha) - js ** (1.0 - alpha))
    group = d_mid * ints / (3.0 * js)
    group_cdf = float(cdf[-1]) + np.cumsum(group)
    return d_mid, cdf, group_cdf


def _prefix_levels(cdf: np.ndarray, u):
    """The levels of draws `u` below `cdf[-1]`, for a scalar or an array:
    2 plus the count of prefix-table entries at or below each draw."""
    return 2 + cdf.searchsorted(u, "right")


def _stationary_groups(alpha: float, c_mid: float, u: np.ndarray) -> np.ndarray:
    """The digit group of each stationary draw `u` past the prefix table:
    the largest j in 21.._GROUP_CAP whose bracket-midpoint tail
    K * (j-1)**(1-alpha) is at least 1 - u, or 21 if none is."""
    v = 1.0 - u
    k_const = c_mid * LN2 / (alpha - 1.0)
    guess = 1 + (k_const / np.maximum(v, 1e-300)) ** (1.0 / (alpha - 1.0))
    j = np.maximum(np.minimum(guess, _GROUP_CAP).astype(np.int64), _FIRST_GROUP)
    while True:  # settle the guess on the exact group
        down = (j > _FIRST_GROUP) & (k_const * (j - 1.0) ** (1.0 - alpha) < v)
        up = (j < _GROUP_CAP) & (k_const * (j + 0.0) ** (1.0 - alpha) >= v)
        if not (down.any() or up.any()):
            return j
        j = j - down + up


def _group_tops(alpha: float, j: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The top 21 binary digits of a level of digit group j at within-group
    uniform v: t = log2(level) in [j-1, j) has density proportional to
    t**-alpha, inverted in closed form around a = j - 1 with log1p and expm1
    so that the fraction t - a keeps full precision at any j."""
    a, beta = j - 1.0, 1.0 - alpha
    q = -np.expm1(beta * np.log1p(1.0 / a))
    frac = a * np.expm1(np.log1p(-v * q) / beta)
    top = np.floor(2.0**frac * 2.0 ** (_TOP_DIGITS - 1)).astype(np.int64)
    return np.clip(top, 1 << (_TOP_DIGITS - 1), (1 << _TOP_DIGITS) - 1)


def _levels(
    model: ProcessModel, words: np.ndarray, branch: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The levels of one draw per row, from its words 0 (the uniform), 1
    (the within-group uniform) and 3 (the first low digits).

    Returns three int64 arrays: the levels, exact up to 62 binary digits
    and `_CLIP` past them; their binary digit counts; and their top 21
    digits, a shorter level shifted left to 21 places.  Below its top
    digits a level's low digits are word 3 and then the words of lane 3 + w
    (`_low_words`); past 62 digits they are read only where a reader asks
    for them.  A fixed-level model draws nothing."""
    count = len(words)
    if model.fixed_level is not None:
        fixed = model.fixed_level
        digits = fixed.bit_length()
        top = fixed << _TOP_DIGITS >> digits
        return np.full(count, min(fixed, _CLIP)), np.full(count, digits), np.full(count, top)
    u = _uniforms(words[:, 0])
    if branch:
        _, cdf, group_cdf = _branch_tables(model.alpha, model.series_cutoff)
    else:
        c_mid, cdf = _stationary_tables(model.alpha, model.series_cutoff)
    tail = np.flatnonzero(u >= cdf[-1])
    levels = _prefix_levels(cdf, u).astype(np.int64)
    digits = np.frexp(levels)[1].astype(np.int64)
    tops = levels << (_TOP_DIGITS - digits)
    if not len(tail):
        return levels, digits, tops
    if branch:
        at = group_cdf.searchsorted(np.minimum(u[tail], group_cdf[-1]))
        j = np.minimum(_FIRST_GROUP + at, _FIRST_GROUP + _BRANCH_GROUPS - 1)
    else:
        j = _stationary_groups(model.alpha, c_mid, u[tail])
    tops[tail] = _group_tops(model.alpha, j, _uniforms(words[tail, 1]))
    digits[tail] = j
    fits = j <= _EXACT_DIGITS
    rows, shift = tail[fits], j[fits] - _TOP_DIGITS
    mask = (np.uint64(1) << shift.astype(np.uint64)) - np.uint64(1)
    levels[rows] = (tops[rows] << shift) | (words[rows, 3] & mask).astype(np.int64)
    levels[tail[~fits]] = _CLIP
    return levels, digits, tops


def _low_words(
    model: ProcessModel,
    keys: np.ndarray,
    words_of: np.ndarray,
    low: np.ndarray,
    src: np.ndarray,
    index: np.ndarray,
) -> np.ndarray:
    """Word index[q] of the low digits of the level of row src[q], 64
    digits a word from the least significant: word 3 of the row's draw
    (`low`) for index 0, then the words of lane 3 + words_of[row] under
    keys[row]; a fixed level's own words."""
    if model.fixed_level is not None:
        fixed = model.fixed_level
        own = np.frombuffer(fixed.to_bytes(8 * -(-fixed.bit_length() // 64), "little"), "<u8")
        return own.astype(np.uint64)[index]
    out = low[src]
    far = np.flatnonzero(index > 0)
    out[far] = _lane_words(keys, _DIGIT_LANE + words_of, src[far], index[far] - 1)
    return out


def _exact_levels(
    model: ProcessModel,
    keys: np.ndarray,
    words_of: np.ndarray,
    tops: np.ndarray,
    digits: np.ndarray,
    low: np.ndarray,
) -> list[int]:
    """The levels of rows past 21 digits as Python ints: each row's top
    digits over all of its low digits, word 3 (`low`) and then the words
    of lane 3 + words_of[row], read for every row in one pass."""
    if model.fixed_level is not None:
        return [model.fixed_level] * len(keys)
    shift = digits - _TOP_DIGITS
    further = _lane_ints(keys, _DIGIT_LANE + words_of, np.maximum(0, -(-(shift - 64) // 64)))
    parts = zip(tops.tolist(), shift.tolist(), low.tolist(), further)
    return [(top << k) | ((first | rest << 64) & ((1 << k) - 1)) for top, k, first, rest in parts]


def _symbols(
    model: ProcessModel,
    src: np.ndarray,
    offsets: np.ndarray,
    digits: np.ndarray,
    tops: np.ndarray,
    low: np.ndarray,
    keys: np.ndarray,
    words_of: np.ndarray,
) -> np.ndarray:
    """The hpm2 or hmc symbol at phase offset `offsets` of the level of row
    `src`, for a vector of both, or for a `(rows, length)` matrix of
    offsets and a `(rows, 1)` column of rows.  A digit of the level's top 21
    comes from `tops`, a lower one from the one word of its low digits that
    holds it (`_low_words`), so only the words under the digits shown are
    read."""
    s = digits[src]
    p = model.emission_digits(s, offsets)
    shift = s - _TOP_DIGITS
    bits = p - shift
    np.maximum(bits, 0, out=bits)
    np.right_shift(tops[src], bits, out=bits)
    under = np.flatnonzero((p >= 0) & (p < shift))
    if len(under):
        place = p.ravel()[under]
        rows = np.broadcast_to(src, p.shape).flat[under]
        words = _low_words(model, keys, words_of, low, rows, place // 64)
        bits.ravel()[under] = (words >> (place % 64).astype(np.uint64)).astype(np.int64)
    # A delimiter or 3, -p >= 2, outranks a digit.
    bits &= 1
    np.negative(p, out=p)
    return np.maximum(bits, p, out=bits).astype(np.uint8)


def _phase_counts(model: ProcessModel, levels: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """r(level) of each row; `_CLIP` for an hpm1 level of 63 or more digits."""
    if model.kind is Kind.HPM1:
        return levels
    return 3 * digits if model.kind is Kind.HMC else digits


def _phase_offsets(
    model: ProcessModel,
    r: np.ndarray,
    digits: np.ndarray,
    tops: np.ndarray,
    words: np.ndarray,
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's phase offset in 0..r-1, X mod r, and the phases left to
    the end of its cycle, r - offset, both clipped at `_CLIP`.  X is the
    phase word (word 2) alone below r = 2**32 and above it that word over
    ceil(b/64) further words of lane 2, for r of b binary digits, so that
    the bias is below 2**-32 at any r.

    Only hpm1 levels reach r = 2**32.  Their remainders are taken exactly,
    in Python ints that live only for this pass, with the clipped levels
    read whole (`_exact_levels`)."""
    word = words[:, 2]
    offsets = (word % r.astype(np.uint64)).astype(np.int64)
    left = r - offsets
    wide = np.flatnonzero(r >> 32 > 0)
    if len(wide):
        moduli = r[wide].tolist()
        long = np.flatnonzero(r[wide] == _CLIP)
        at = wide[long]
        zero = np.zeros(len(at), np.int64)
        exact = _exact_levels(model, keys[at], zero, tops[at], digits[at], words[at, 3])
        for i, level in zip(long.tolist(), exact):
            moduli[i] = level
        rems = _exact_remainders(keys[wide], word[wide], moduli)
        offsets[wide] = [min(rem, _CLIP) for rem in rems]
        left[wide] = [min(m - rem, _CLIP) for m, rem in zip(moduli, rems)]
    return offsets, left


def _exact_remainders(keys: np.ndarray, word: np.ndarray, moduli: list[int]) -> list[int]:
    """X mod r for every row as a Python int, for phase counts r of b >= 33
    digits: X is the phase word `word` over ceil(b/64) words of lane 2."""
    more = np.array([-(-r.bit_length() // 64) for r in moduli], np.int64)
    further = _lane_ints(keys, np.full(len(keys), _PHASE_LANE), more)
    parts = zip(word.tolist(), more.tolist(), further, moduli)
    return [((first << 64 * k) | rest) % r for first, k, rest, r in parts]


# ----- trajectories -----------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Trajectories:
    """Trajectories of one length on streams of one seed, as one read-only
    `(count, length)` uint8 symbol matrix and the records of their words.

    Row i is the trajectory of `model` on stream i of `sample_trajectories`,
    or on the one stream of `sample_trajectory`.  Its record is held in
    int64 arrays: `initial_levels[i]` and `initial_phases[i]`
    are its initial state, and `word_levels[word_starts[i]:word_starts[i +
    1]]` the level of each later word (hmc only), with the binary digit
    count of every level in `initial_digits` and `word_digits`.  A level
    or phase of `_CLIP` = 2**62 or more is held as `_CLIP`."""

    symbols: np.ndarray
    model: ProcessModel
    initial_levels: np.ndarray
    initial_digits: np.ndarray
    initial_phases: np.ndarray
    word_starts: np.ndarray
    word_levels: np.ndarray
    word_digits: np.ndarray

    def __len__(self) -> int:
        return len(self.symbols)


def sample_trajectory(model: ProcessModel, length: int, seed: int, stream: int = 0) -> Trajectories:
    """Sample `length` observable symbols starting from the stationary law,
    as a batch of one row.

    The initial hidden state draws its level from the stationary level law
    and its phase uniformly; the cyclic kinds then stay on their cycle while
    the ergodic kind re-draws a level from the branch law at every word
    boundary.  The trajectory is row `stream` of the array pass of
    `sample_trajectories`.  A length, seed or stream that is not an integer
    in range raises an error naming it.
    """
    length = _check_integer("trajectory length", length, 1)
    seed, stream = _check_entropy("seed", seed), _check_entropy("stream", stream)
    return _sample(model, length, seed, range(stream, stream + 1))


def sample_trajectories(model: ProcessModel, count: int, length: int, seed: int) -> Trajectories:
    """`count` independent trajectories on streams 0..count-1 of one seed.

    Trajectory i equals `sample_trajectory(model, length, seed, stream=i)`:
    every variate is a function of (seed, stream, lane, draw) alone.
    """
    count = _check_integer("trajectory count", count, 0)
    length = _check_integer("trajectory length", length, 1)
    seed = _check_entropy("seed", seed)
    return _sample(model, length, seed, range(count))


def _sample(model: ProcessModel, length: int, seed: int, streams: range) -> Trajectories:
    """The trajectories of `streams` of `seed`, in passes of at most
    `_CHUNK_SYMBOLS` symbols, which bound the `(streams, length)`
    temporaries; each pass fills its rows of the batch's arrays."""
    count = len(streams)
    symbols = np.empty((count, length), np.uint8)
    levels, digits, phases = (np.empty(count, np.int64) for _ in range(3))
    word_starts = np.zeros(count + 1, np.int64)
    word_levels, word_digits = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    step = max(1, _CHUNK_SYMBOLS // length)
    for lo in range(0, count, step):
        rows = slice(lo, lo + step)
        part = _sample_rows(model, seed, streams[rows], symbols[rows])
        levels[rows], digits[rows], phases[rows], word_starts[lo + 1 : lo + 1 + step] = part[:4]
        word_levels.append(part[4])
        word_digits.append(part[5])
    np.cumsum(word_starts, out=word_starts)
    symbols.flags.writeable = False
    later = map(np.concatenate, (word_levels, word_digits))
    return Trajectories(symbols, model, levels, digits, phases, word_starts, *later)


def _sample_rows(model: ProcessModel, seed: int, streams: range, out: np.ndarray) -> tuple:
    """Fill row i of `out` with the symbols of stream streams[i] of `seed`,
    in array passes: the initial states of every stream at once, their
    cycles as rows of one matrix or their hmc words as spans, then for hmc
    the later words of every unfinished stream.  Returns the initial
    levels, digit counts and phases, each row's count of later words, and
    the levels and digit counts of those words, row after row."""
    count, length = out.shape
    stream = np.arange(count, dtype=np.uint64) + np.uint64(streams.start)
    keys = np.stack([np.full(count, seed, np.uint64), stream], axis=1)
    zero = np.zeros(count, np.int64)
    words = _runs(keys, zero + _STATE_LANE, zero, zero + 1)
    levels, digits, tops = _levels(model, words, branch=False)
    r = _phase_counts(model, levels, digits)
    offsets, left = _phase_offsets(model, r, digits, tops, words, keys)
    later = (np.empty(0, np.int64),) * 3
    if model.kind is Kind.HPM1:
        # The marker ends a cycle: `left` symbols in, and every r after.
        phases = np.arange(1, length + 1) - left[:, None]
        phases %= r[:, None]
        np.equal(phases, 0, out=out)
    elif model.kind is Kind.HPM2:
        # A cycle starts over after r symbols.
        phases = offsets[:, None] + np.arange(length)
        phases %= r[:, None]
        rows = np.arange(count)[:, None]
        out[:] = _symbols(model, rows, phases, digits, tops, words[:, 3], keys, zero)
    else:
        # An hmc word is cut where it ends, and the later words fill the rest.
        filled = np.minimum(left, length)
        src, t = _spans(filled)
        out[src, t] = _symbols(model, src, offsets[src] + t, digits, tops, words[:, 3], keys, zero)
        later = _branch_words(model, keys, out, filled)
    counts = np.bincount(later[0], minlength=count)
    return levels, digits, np.minimum(offsets + 1, _CLIP), counts, later[1], later[2]


def _branch_words(
    model: ProcessModel, keys: np.ndarray, out: np.ndarray, filled: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill each row of `out` past `filled` with the hmc words that follow a
    word end.  Returns the row, level and digit count of every word used,
    row after row and in order within a row.

    Every unfinished row takes the same block of consecutive draws of lane
    1 in one pass: ceil(remaining / 6) draws for the row with the most
    symbols left, which fills every row unless `_BRANCH_ROWS` caps the
    block.  Draws past a row's last word are never read."""
    length = out.shape[1]
    active = np.flatnonzero(filled < length)
    drawn = 0
    records = []
    while len(active):
        block = -(-int((length - filled[active]).max()) // _MIN_HMC_WORD)
        block = max(1, min(block, _BRANCH_ROWS // len(active)))
        rows = np.repeat(active, block)
        draws = np.tile(np.arange(drawn, drawn + block), len(active))
        each = np.ones(len(active), np.int64)
        words = _runs(keys[active], each * _BRANCH_LANE, each * drawn, each * block)
        levels, digits, tops = _levels(model, words, branch=True)
        r = 3 * digits.reshape(-1, block)
        starts = (filled[active, None] + np.cumsum(r, axis=1) - r).ravel()
        used = starts < length
        sizes = np.minimum(starts + r.ravel(), length) - starts
        word = np.flatnonzero(used)
        at, step = _spans(sizes[word])
        word = word[at]
        out[rows[word], starts[word] + step] = _symbols(
            model, word, step, digits, tops, words[:, 3], keys[rows], 1 + draws
        )
        records.append((rows[used], levels[used], digits[used]))
        filled[active] = (starts + sizes).reshape(-1, block)[:, -1]
        drawn += block
        active = active[filled[active] < length]
    if not records:
        return (np.empty(0, np.int64),) * 3
    rows, levels, digits = map(np.concatenate, zip(*records))
    order = _stable_order(rows)
    return rows[order], levels[order], digits[order]


# ----- estimation --------------------------------------------------------------


@dataclass
class EstimatorReport:
    point_estimate: float
    std_error: float
    sample_count: int
    method: str
    regime: str
    n: int
    trajectory_count: int
    bootstrap_resamples: int


def _xlog2x(limit: int) -> np.ndarray:
    """c * log2(c) for every count c in 0..limit, 0 at c = 0."""
    c = np.arange(limit + 1, dtype=np.float64)
    table = np.maximum(c, 1.0)
    np.log2(table, out=table)
    table *= c
    return table


def _mi_from_counts(
    joint: np.ndarray, past_of: np.ndarray, future_of: np.ndarray, method: str, xlog2x: np.ndarray
) -> float:
    """Plug-in (or Miller-Madow) MI from the integer count of every distinct
    window.  The entropy of counts c of N windows is log2(N) - sum(c *
    log2(c)) / N, with c * log2(c) read from the table `xlog2x`, which covers
    every count up to N: a resample has as many windows as the sample."""
    total = int(joint.sum())
    past = np.bincount(past_of, joint).astype(np.int64)
    future = np.bincount(future_of, joint).astype(np.int64)
    sums = xlog2x[past].sum() + xlog2x[future].sum() - xlog2x[joint].sum()
    value = math.log2(total) - float(sums) / total
    if method == "miller_madow":
        k_past, k_future, k_joint = (np.count_nonzero(c) for c in (past, future, joint))
        value += (k_past + k_future - k_joint - 1) / (2.0 * total * LN2)
    return value


def estimate_block_mi(
    data: Trajectories | np.ndarray,
    n: int,
    method: str = "plugin",
    bootstrap_resamples: int = 64,
) -> EstimatorReport:
    """Estimate E(n) from samples: the symbol matrix of a `Trajectories`
    batch, or a `(rows, length)` uint8 matrix of data from elsewhere, one
    trajectory a row.  Any other shape or dtype raises ValueError.

    One row is estimated with sliding stride-1 windows (ergodic use); two
    or more rows are pooled with disjoint windows per row (the nonergodic
    ensemble regime).  `miller_madow` applies the support-size bias
    correction to each plug-in entropy, which subtracts the usual
    (K_joint - K_past - K_future + 1) / (2*S*ln 2) from the MI.
    Standard errors come from a block bootstrap: over rows in the pooled
    regime, over circular window blocks in the sliding regime, from one
    fixed seed, so the same data give the same report.  With 0 resamples
    the standard error is 0.0; 1 resample has no spread and raises
    ValueError.

    Each window is numbered once, as the id of its distinct window, and each
    MI comes from count vectors; a bootstrap resample reweights those counts,
    with the same random draws as a window-by-window resample.  Symbols are
    packed 2 bits each, so a symbol above 3 raises ValueError.
    """
    if method not in ("plugin", "miller_madow"):
        raise ValueError(f"unknown estimator method {method!r}")
    n = _check_integer("block length", n, 1)
    bootstrap_resamples = _check_integer("bootstrap_resamples", bootstrap_resamples, 0)
    if bootstrap_resamples == 1:
        raise ValueError("bootstrap_resamples must be 0 or >= 2, got 1")

    symbols = data.symbols if isinstance(data, Trajectories) else np.asarray(data)
    if symbols.ndim != 2 or symbols.dtype != np.uint8:
        raise ValueError(
            f"symbols must be a (rows, length) uint8 matrix, got shape {symbols.shape} "
            f"and dtype {symbols.dtype}"
        )
    count, length = symbols.shape
    if count == 1:
        regime = "sliding"
        min_len = 2 * n + MIN_WINDOWS - 1
        if length < min_len:
            raise ValueError(
                f"insufficient data: sliding estimation at n={n} needs length >= {min_len}, "
                f"got {length}"
            )
        windows = np.lib.stride_tricks.sliding_window_view(symbols[0], 2 * n)
    else:
        regime = "pooled"
        if not count:
            raise ValueError("insufficient data: no trajectories supplied")
        if length < 2 * n:
            raise ValueError(
                f"insufficient data: pooled estimation at n={n} needs trajectory "
                f"length >= {2 * n}, got {length}"
            )
        per_row = length // (2 * n)
        windows = symbols[:, : per_row * 2 * n].reshape(-1, 2 * n)
        owner = np.repeat(np.arange(count), per_row)
        if len(windows) < MIN_WINDOWS:
            raise ValueError(
                f"insufficient data: pooled estimation needs >= {MIN_WINDOWS} windows, "
                f"got {len(windows)}"
            )
    if symbols.max() > 3:
        raise ValueError(f"symbol {symbols.max()} outside 0..3: blocks are packed 2 bits per symbol")

    joint_id, first = _number_blocks(windows)
    past_of, _ = _number_blocks(windows[first, :n])
    future_of, _ = _number_blocks(windows[first, n:])
    xlog2x = _xlog2x(len(joint_id))
    value = _mi_from_counts(np.bincount(joint_id), past_of, future_of, method, xlog2x)
    if regime == "sliding":
        resampled = _sliding_resamples(joint_id, len(past_of), bootstrap_resamples, 0)
    else:
        resampled = _pooled_resamples(joint_id, owner, count, len(past_of), bootstrap_resamples, 0)
    values = [_mi_from_counts(joint, past_of, future_of, method, xlog2x) for joint in resampled]
    return EstimatorReport(
        point_estimate=value,
        std_error=float(np.std(values, ddof=1)) if values else 0.0,
        sample_count=len(joint_id),
        method=method,
        regime=regime,
        n=n,
        trajectory_count=count,
        bootstrap_resamples=bootstrap_resamples,
    )


def _generator(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    """The bootstraps' own generator; trajectory sampling does not use it."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=stream)
    return np.random.Generator(np.random.Philox(sequence))


def _pooled_resamples(
    joint_id: np.ndarray, owner: np.ndarray, k: int, distinct: int, resamples: int, seed: int
) -> Iterator[np.ndarray]:
    """Trajectory bootstrap: every window counts as often as its trajectory
    is drawn.  Yields the distinct-window counts of each resample."""
    rng = _generator(seed, (0xB0, 0x07))
    for _ in range(resamples):
        weights = np.bincount(rng.integers(0, k, size=k), minlength=k)[owner]
        yield np.bincount(joint_id, weights=weights, minlength=distinct).astype(np.int64)


def _sliding_resamples(
    joint_id: np.ndarray, distinct: int, resamples: int, seed: int
) -> Iterator[np.ndarray]:
    """Circular block bootstrap: blocks of sqrt(total) consecutive windows
    from uniform starts, cut to the window count.  Yields the distinct-window
    counts of each resample.  The ids are extended circularly by one block
    less one, so each block is one row of a sliding view of them."""
    total = len(joint_id)
    rng = _generator(seed, (0xB0, 0x08))
    block = max(1, int(math.sqrt(total)))
    ext = np.concatenate([joint_id, joint_id[: block - 1]])
    blocks = np.lib.stride_tricks.sliding_window_view(ext, block)
    for _ in range(resamples):
        starts = rng.integers(0, total, size=(total + block - 1) // block)
        yield np.bincount(blocks[starts].ravel()[:total], minlength=distinct)
