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
binary digits; the folded-in residual is about 1.6e-3 of the stationary
mass at alpha = 1.5 and smaller otherwise.  A phase offset in 0..r-1 is
X mod r for an integer X of at least 32 more bits than r (`_phase_offsets`).
These sampler approximations affect statistical estimates only; all
certified quantities come from the exact engine.

Levels of up to 53 binary digits are int64 arrays; their symbols come from
`ProcessModel.emission_array`, all streams at once, into one
`(count, length)` matrix.  Longer levels are Python ints, and their symbols
are slices of their emission words read with `ProcessModel.emission_slice`:
only the digits a trajectory shows are formatted, so a level with a million
digits costs a shift of its machine words, not a million symbols.  The hmc
words that follow the initial one come in blocks of consecutive draws for
every unfinished stream at once (`_branch_words`).  Each trajectory keeps
one entry per word, its initial state and the level of every later word.
Draws are read in runs of consecutive counters under one key (`_runs`).  A
scalar sampler with the same lanes, in Python ints, is kept in the tests as
the reference.

The cyclic kinds are nonergodic: a single trajectory stays on one cycle
forever, so time averages estimate per-component information, not the
ensemble block MI.  Ensemble estimation therefore pools disjoint windows
across many independently seeded trajectories; the ergodic kind uses
sliding windows over one trajectory.  The report records which regime ran.
Either way each window is numbered once, in order of first appearance, by
the block numbering of the exact engine's tables (`exact._number_blocks`),
and the bootstraps reweight window counts with the same random draws as a
window-by-window resample.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import _marginals_mi, _number_blocks
from .models import Kind, ProcessModel, StateId
from .series import LN2, branch_normalization_sum, normalization_sum

_PREFIX_TOP = 1 << 20  # levels sampled from the exact prefix table
_FIRST_GROUP = 21  # digit count of the first level past the prefix table
_TOP_DIGITS = 21  # leading binary digits of a tail level set by the inverse
_ARRAY_DIGITS = 53  # levels of at most this many digits are held as int64
_GROUP_CAP = 1 << 20  # largest digit group representable by the sampler
_BRANCH_GROUPS = 20000  # digit groups tabulated for the branch law
_BRANCH_ROWS = 1 << 16  # most hmc branch draws made in one array pass
_MIN_HMC_WORD = 6  # r(2) = r(3) = 3 * 2 symbols, the shortest hmc word
_FEW_RUNS = 32  # Philox runs read one by one from numpy's generator, however short
_LONG_RUN = 16  # or when they average this many blocks
_CHUNK_SYMBOLS = 1 << 20  # most symbols sampled in one array pass
_STATE_LANE, _BRANCH_LANE, _PHASE_LANE, _DIGIT_LANE = 0, 1, 2, 3

MIN_WINDOWS = 4


def _check_entropy(name: str, value) -> int:
    """A seed or stream number as an int; anything else raises naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
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

    Many short runs go through `_philox` in one array pass, about 200 numpy
    calls whatever the row count.  A few runs, or long ones, are read one
    after another from numpy's Philox bit generator: a few microseconds a
    run, and a block six times faster than in the array pass.  Both give
    the same words (`test_philox_port_matches_numpy`)."""
    total = int(counts.sum())
    if len(keys) > _FEW_RUNS and total < _LONG_RUN * len(keys):
        run = np.repeat(np.arange(len(keys)), counts)
        draws = firsts[run] + np.arange(total) - (np.cumsum(counts) - counts)[run]
        zero = np.zeros(total, np.uint64)
        counter = (draws.astype(np.uint64), lanes[run].astype(np.uint64), zero, zero)
        return np.stack(_philox(counter, keys[run]), axis=1)
    bits = np.random.Philox(0)
    words = [np.zeros(0, np.uint64)]
    for key, lane, first, count in zip(keys, lanes.tolist(), firsts.tolist(), counts.tolist()):
        words.append(_philox_words(bits, key, lane, first, 4 * count))
    return np.concatenate(words).reshape(-1, 4)


def _lane_ints(keys: np.ndarray, lanes: np.ndarray, counts: np.ndarray) -> Iterator[int]:
    """Row i's first counts[i] words of lane lanes[i] under keys[i], word 0
    lowest, as one Python int each: draws 0, 1, ... of the lane, 4 words a
    draw, read row by row from numpy's Philox bit generator."""
    bits = np.random.Philox(0)
    for key, lane, count in zip(keys, lanes.tolist(), counts.tolist()):
        words = _philox_words(bits, key, lane, 0, count)
        yield int.from_bytes(words.astype("<u8").tobytes(), "little")


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
    model: ProcessModel,
    words: np.ndarray,
    keys: np.ndarray,
    words_of: np.ndarray,
    branch: bool,
) -> tuple[np.ndarray, np.ndarray, dict[int, int]]:
    """The levels of one draw per row, from its words 0 (the uniform), 1
    (the within-group uniform) and 3 (the first low digits); `words_of` is
    the word number of each row, whose lane 3 + w holds further low digits.

    Returns the levels as int64 (2 in the rows of longer levels), the binary
    digit count of every row, and the rows of more than 53 digits with their
    levels as Python ints.  A fixed-level model draws nothing."""
    count = len(keys)
    if model.fixed_level is not None:
        fixed = model.fixed_level
        digits = np.full(count, fixed.bit_length())
        if fixed.bit_length() <= _ARRAY_DIGITS:
            return np.full(count, fixed), digits, {}
        return np.full(count, 2), digits, dict.fromkeys(range(count), fixed)
    u = _uniforms(words[:, 0])
    if branch:
        _, cdf, group_cdf = _branch_tables(model.alpha, model.series_cutoff)
    else:
        c_mid, cdf = _stationary_tables(model.alpha, model.series_cutoff)
    tail = np.flatnonzero(u >= cdf[-1])
    levels = _prefix_levels(cdf, u).astype(np.int64)
    digits = np.frexp(levels)[1].astype(np.int64)
    if not len(tail):
        return levels, digits, {}
    if branch:
        at = group_cdf.searchsorted(np.minimum(u[tail], group_cdf[-1]))
        j = np.minimum(_FIRST_GROUP + at, _FIRST_GROUP + _BRANCH_GROUPS - 1)
    else:
        j = _stationary_groups(model.alpha, c_mid, u[tail])
    tops = _group_tops(model.alpha, j, _uniforms(words[tail, 1]))
    low = words[tail, 3]
    shift = j - _TOP_DIGITS
    digits[tail] = j
    short = j <= _ARRAY_DIGITS
    mask = (np.uint64(1) << shift[short].astype(np.uint64)) - np.uint64(1)
    levels[tail[short]] = (tops[short] << shift[short]) | (low[short] & mask).astype(np.int64)
    long = np.flatnonzero(~short)
    if not len(long):
        return levels, digits, {}
    rows = tail[long]
    levels[rows] = 2
    more = np.maximum(0, -(-(j[long] - _TOP_DIGITS - 64) // 64))
    further = _lane_ints(keys[rows], _DIGIT_LANE + words_of[rows], more)
    parts = zip(tops[long].tolist(), shift[long].tolist(), low[long].tolist(), further)
    big = ((top << k) | ((first | rest << 64) & ((1 << k) - 1)) for top, k, first, rest in parts)
    return levels, digits, dict(zip(rows.tolist(), big))


def _phase_counts(model: ProcessModel, levels: np.ndarray) -> np.ndarray:
    """r(level) of int64 levels of at most 53 binary digits."""
    if model.kind is Kind.HPM1:
        return levels
    digits = np.frexp(levels)[1].astype(np.int64)
    return 3 * digits if model.kind is Kind.HMC else digits


def _phase_offsets(
    model: ProcessModel, r: np.ndarray, big: dict, word: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, dict[int, int]]:
    """Each row's phase offset in 0..r-1: X mod r, where X is the phase
    word alone below r = 2**32 and above it that word over K - 1 = ceil(b/64)
    further words of lane 2, for r of b binary digits, so that the bias is
    below 2**-32 at any r.  Returns the offsets for the phase counts `r` as
    int64, and the offsets for the levels of `big` as Python ints."""
    offsets = (word % r.astype(np.uint64)).astype(np.int64)
    wide = {row: int(r[row]) for row in np.flatnonzero(r >> 32).tolist()}
    wide.update((row, model.phase_count(level)) for row, level in big.items())
    if not wide:
        return offsets, {}
    rows = np.fromiter(wide, np.int64, len(wide))
    more = np.array([0 if r >> 32 == 0 else -(-r.bit_length() // 64) for r in wide.values()])
    further = _lane_ints(keys[rows], np.full(len(rows), _PHASE_LANE), more)
    parts = zip(rows.tolist(), wide.values(), more.tolist(), word[rows].tolist(), further)
    wide_offsets = {row: ((first << 64 * k) | rest) % r for row, r, k, first, rest in parts}
    for row in wide_offsets.keys() - big.keys():  # the rows of int64 phase counts
        offsets[row] = wide_offsets.pop(row)
    return offsets, wide_offsets


# ----- trajectories -----------------------------------------------------------


@dataclass
class Trajectory:
    """A sampled observable path and the record of its hidden words.

    The record costs one entry per word: `initial_state`, the hidden state
    at time 0, and `word_levels`, the level of each later word.  Only the
    ergodic kind starts later words; the cyclic kinds never leave their
    level, so their record is the initial state alone.  A path that was not
    sampled from a model (data handed to the estimator) has no record."""

    symbols: bytes
    seed: int
    stream: int
    kind: str
    alpha: float
    initial_state: StateId | None = None
    word_levels: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.symbols)


def sample_trajectory(model: ProcessModel, length: int, seed: int, stream: int = 0) -> Trajectory:
    """Sample `length` observable symbols starting from the stationary law.

    The initial hidden state draws its level from the stationary level law
    and its phase uniformly; the cyclic kinds then stay on their cycle while
    the ergodic kind re-draws a level from the branch law at every word
    boundary.  The trajectory is row `stream` of the array pass of
    `sample_trajectories`.  A seed or stream that is not an integer in
    0..2**64-1 raises an error naming it.
    """
    _check_length(length)
    seed, stream = _check_entropy("seed", seed), _check_entropy("stream", stream)
    return _sample(model, length, seed, np.array([stream], np.uint64))[0]


def sample_trajectories(
    model: ProcessModel, count: int, length: int, seed: int
) -> list[Trajectory]:
    """`count` independent trajectories on streams 0..count-1 of one seed.

    Trajectory i equals `sample_trajectory(model, length, seed, stream=i)`:
    every variate is a function of (seed, stream, lane, draw) alone.
    """
    if count < 0:
        raise ValueError(f"trajectory count must be >= 0, got {count}")
    _check_length(length)
    seed = _check_entropy("seed", seed)
    streams = np.arange(operator.index(count), dtype=np.uint64)
    step = max(1, _CHUNK_SYMBOLS // length)  # bounds the (streams, length) temporaries
    chunks = (_sample(model, length, seed, streams[lo : lo + step]) for lo in range(0, count, step))
    return [t for chunk in chunks for t in chunk]


def _check_length(length: int) -> None:
    if length < 1:
        raise ValueError(f"trajectory length must be >= 1, got {length}")


def _sample(model: ProcessModel, length: int, seed: int, streams: np.ndarray) -> list[Trajectory]:
    """The trajectories of `streams` of `seed`, in array passes: the
    initial states of every stream at once, their symbols as rows of one
    matrix, then for hmc the later words of every unfinished stream."""
    count = len(streams)
    keys = np.stack([np.full(count, seed, np.uint64), streams], axis=1)
    zero = np.zeros(count, np.int64)
    words = _runs(keys, zero + _STATE_LANE, zero, zero + 1)
    levels, _, big = _levels(model, words, keys, zero, branch=False)
    r = _phase_counts(model, levels)
    offsets, big_offsets = _phase_offsets(model, r, big, words[:, 2], keys)
    hmc = model.kind is Kind.HMC
    steps = offsets[:, None] + np.arange(length)
    # A cycle starts over after r symbols; an hmc word is cut where it ends.
    phases = np.minimum(steps, r[:, None] - 1) if hmc else steps % r[:, None]
    out = model.emission_array(levels[:, None], phases)
    filled = np.minimum(r - offsets, length)
    initial, phase = levels.tolist(), (offsets + 1).tolist()
    for row, level in big.items():
        start = big_offsets[row]
        initial[row], phase[row] = level, start + 1
        symbols = model.emission_slice(level, start, start + length)
        if len(symbols) < length and not hmc:  # the cycle starts over, repeated
            turn = symbols + model.emission_slice(level, 0, min(start, length - len(symbols)))
            symbols = (turn * (length // len(turn) + 1))[:length]
        out[row, : len(symbols)] = np.frombuffer(symbols, np.uint8)
        filled[row] = len(symbols)
    records: dict[int, list[int]] = {}
    if hmc:
        _branch_words(model, keys, out, filled, records)
    data = out.tobytes()
    rows = zip(range(count), streams.tolist(), initial, phase)
    kind, alpha = model.kind.value, model.alpha
    return [
        Trajectory(
            data[i * length : (i + 1) * length],
            seed,
            stream,
            kind,
            alpha,
            StateId(level, k),
            tuple(records.get(i, ())),
        )
        for i, stream, level, k in rows
    ]


def _branch_words(
    model: ProcessModel,
    keys: np.ndarray,
    out: np.ndarray,
    filled: np.ndarray,
    records: dict[int, list[int]],
) -> None:
    """Fill each row of `out` past `filled` with the hmc words that follow a
    word end, appending the level of each word to the row's record.

    Every unfinished row takes the same block of consecutive draws of lane
    1 in one pass: ceil(remaining / 6) draws for the row with the most
    symbols left, which fills every row unless `_BRANCH_ROWS` caps the
    block.  Draws past a row's last word are never read."""
    length = out.shape[1]
    active = np.flatnonzero(filled < length)
    drawn = 0
    while len(active):
        block = -(-int((length - filled[active]).max()) // _MIN_HMC_WORD)
        block = max(1, min(block, _BRANCH_ROWS // len(active)))
        rows = np.repeat(active, block)
        draws = np.tile(np.arange(drawn, drawn + block), len(active))
        each = np.ones(len(active), np.int64)
        words = _runs(keys[active], each * _BRANCH_LANE, each * drawn, each * block)
        levels, digits, big = _levels(model, words, keys[rows], 1 + draws, branch=True)
        r = 3 * digits.reshape(-1, block)
        starts = (filled[active, None] + np.cumsum(r, axis=1) - r).ravel()
        used = starts < length
        ends = np.minimum(starts + r.ravel(), length)
        long = np.zeros(len(rows), bool)
        long[list(big)] = True
        word = np.flatnonzero(used & ~long)
        size = ends[word] - starts[word]
        at = np.repeat(np.arange(len(word)), size)
        step = np.arange(len(at)) - (np.cumsum(size) - size)[at]
        out[rows[word][at], starts[word][at] + step] = model.emission_array(levels[word][at], step)
        for w in np.flatnonzero(used & long).tolist():
            k, end = int(starts[w]), int(ends[w])
            out[rows[w], k:end] = np.frombuffer(model.emission_slice(big[w], 0, end - k), np.uint8)
        level_list = levels.tolist()
        for w, level in big.items():
            level_list[w] = level
        counts = used.reshape(-1, block).sum(axis=1).tolist()
        for i, (row, n_used) in enumerate(zip(active.tolist(), counts)):
            records.setdefault(row, []).extend(level_list[i * block : i * block + n_used])
        filled[active] = ends.reshape(-1, block)[:, -1]
        drawn += block
        active = active[filled[active] < length]


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


def _mi_from_counts(
    joint: np.ndarray, past_of: np.ndarray, future_of: np.ndarray, method: str
) -> float:
    """Plug-in (or Miller-Madow) MI from the count of every distinct window."""
    past, future = np.bincount(past_of, joint), np.bincount(future_of, joint)
    value = _marginals_mi(joint, past, future)
    if method == "miller_madow":
        k_past, k_future, k_joint = (np.count_nonzero(c) for c in (past, future, joint))
        value += (k_past + k_future - k_joint - 1) / (2.0 * joint.sum() * LN2)
    return value


def estimate_block_mi(
    data: Trajectory | list[Trajectory],
    n: int,
    method: str = "plugin",
    bootstrap_resamples: int = 64,
    bootstrap_seed: int = 0,
) -> EstimatorReport:
    """Estimate E(n) from samples.

    A single trajectory is estimated with sliding stride-1 windows (ergodic
    use); a list of trajectories is pooled with disjoint windows per
    trajectory (the nonergodic ensemble regime).  `miller_madow` applies the
    support-size bias correction to each plug-in entropy, which subtracts
    the usual (K_joint - K_past - K_future + 1)/(2*S*ln 2) from the MI.
    Standard errors come from a block bootstrap: over trajectories in the
    pooled regime, over circular window blocks in the sliding regime.  With
    0 resamples the standard error is 0.0; 1 resample, or a bootstrap of
    one pooled trajectory, has no spread and raises ValueError.

    Each window is numbered once, as the id of its distinct window, and each
    MI comes from count vectors; a bootstrap resample reweights those counts,
    with the same random draws as a window-by-window resample.  Symbols are
    packed 2 bits each, so a symbol above 3 raises ValueError.
    """
    if method not in ("plugin", "miller_madow"):
        raise ValueError(f"unknown estimator method {method!r}")
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if bootstrap_resamples < 0 or bootstrap_resamples == 1:
        raise ValueError(f"bootstrap_resamples must be 0 or >= 2, got {bootstrap_resamples}")

    if isinstance(data, Trajectory):
        min_len = 2 * n + MIN_WINDOWS - 1
        if len(data) < min_len:
            raise ValueError(
                f"insufficient data: sliding estimation at n={n} needs length >= {min_len}, "
                f"got {len(data)}"
            )
        regime, trajectories, step = "sliding", [data], 1
    else:
        trajectories = list(data)
        min_len = 2 * n
        if not trajectories:
            raise ValueError("insufficient data: no trajectories supplied")
        short = [len(t) for t in trajectories if len(t) < min_len]
        if short:
            raise ValueError(
                f"insufficient data: pooled estimation at n={n} needs every trajectory "
                f"length >= {min_len}, got one of length {short[0]}"
            )
        regime, step = "pooled", 2 * n

    # Every trajectory's windows, gathered in one pass from the joined symbols.
    lengths = np.fromiter((len(t) for t in trajectories), np.int64, len(trajectories))
    counts = (lengths - 2 * n) // step + 1
    owner = np.repeat(np.arange(len(trajectories)), counts)
    rank = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    starts = (np.cumsum(lengths) - lengths)[owner] + rank * step
    joined = np.frombuffer(b"".join(t.symbols for t in trajectories), np.uint8)
    if joined.max() > 3:
        raise ValueError(f"symbol {joined.max()} outside 0..3: blocks are packed 2 bits per symbol")
    windows = np.lib.stride_tricks.sliding_window_view(joined, 2 * n)[starts]
    if len(windows) < MIN_WINDOWS:  # only reachable by the pooled regime
        raise ValueError(
            f"insufficient data: pooled estimation needs >= {MIN_WINDOWS} windows, "
            f"got {len(windows)}"
        )
    if regime == "pooled" and bootstrap_resamples and len(trajectories) < 2:
        raise ValueError(
            f"{bootstrap_resamples} bootstrap resamples need >= 2 pooled trajectories, got 1"
        )

    joint_id, first = _number_blocks(windows)
    past_of, _ = _number_blocks(windows[first, :n])
    future_of, _ = _number_blocks(windows[first, n:])
    value = _mi_from_counts(np.bincount(joint_id), past_of, future_of, method)
    if regime == "sliding":
        resampled = _sliding_resamples(joint_id, len(past_of), bootstrap_resamples, bootstrap_seed)
    else:
        resampled = _pooled_resamples(
            joint_id, owner, len(trajectories), len(past_of), bootstrap_resamples, bootstrap_seed
        )
    values = [_mi_from_counts(joint, past_of, future_of, method) for joint in resampled]
    return EstimatorReport(
        point_estimate=value,
        std_error=float(np.std(values, ddof=1)) if values else 0.0,
        sample_count=len(joint_id),
        method=method,
        regime=regime,
        n=n,
        trajectory_count=len(trajectories),
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
        yield np.bincount(joint_id, weights=weights, minlength=distinct)


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
