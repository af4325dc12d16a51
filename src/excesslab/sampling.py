"""Seeded trajectory sampling and block-MI estimation.

Randomness comes from numpy's Philox counter-based 64-bit generator, keyed
by (seed, stream) through SeedSequence, so identical inputs give identical
outputs on every platform.  A single stream and the bootstraps build their
generator through numpy's SeedSequence.  Pooled streams are keyed by
`_stream_keys` in one numpy pass (a port of SeedSequence's pool mixing).
Philox is counter-based, so each stream gets exactly the variates a fresh
generator of that stream would give, however they are computed:

* A pooled cyclic stream (hpm1, hpm2) draws one double for its level and
  one bounded integer for its phase.  `_philox`, a numpy port of
  Philox4x64-10, computes every stream's first four-word block at once;
  word 0 gives the double, the low half of word 1 gives the phase through
  `_lemire32`, numpy's bounded-integer draw, and every trajectory's symbols
  come from one `(count, length)` matrix.  A stream whose level falls past
  the prefix table, whose phase draw rejects, or whose model has a fixed
  level is drawn by the scalar sampler on one generator, re-keyed and
  rewound to counter 0 before each stream.
* The hmc branch levels of one trajectory are drawn as blocks of doubles,
  which numpy gives from the same outputs as one call per double.  Prefix
  hits become levels and symbols in numpy; at a draw past the prefix table
  the generator is stepped back to just after it and the scalar tail
  draws on from there.

The prefix map (`_prefix_levels`) serves the scalar and the array draws
alike, so the level law is written once; the tails (`_level_tail`,
`_branch_tail`) stay scalar.  The one-variate-at-a-time sampler these
reproduce bit for bit is kept in the tests as their reference.

Level draws follow the heavy-tailed law exactly over a one-million-entry
prefix table; beyond it the law is inverted one binary-digit group at a
time using the integral-bracket midpoints, with an exact rejection step
inside each group up to 512 digits and a log-uniform within-group
approximation above that (density distortion below alpha/512 there).
Digit groups are capped at 2**20 binary digits; the folded-in residual is
about 1.6e-3 of the stationary mass at alpha = 1.5 and smaller otherwise.
These sampler approximations affect statistical estimates only; all
certified quantities come from the exact engine.

A trajectory's symbols are slices of the emission words of its levels,
read with `ProcessModel.emission_slice` until the window is full: only the
digits a trajectory shows are formatted, so a level with a million digits
costs a shift of its machine words, not a million symbols, and an hpm1
word is never built.  The block draws compute the
symbols of prefix-table levels in numpy (`ProcessModel.emission_array`).
Hidden states are not stored per symbol: each trajectory keeps one entry
per word, its initial state and the level of every later word.

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
_EXACT_REJECT_DIGITS = 512  # exact within-group rejection up to this digit count
_GROUP_CAP = 1 << 20  # largest digit group representable by the sampler
_BRANCH_GROUPS = 20000  # digit groups tabulated for the branch law
_BRANCH_BLOCK = 256  # most branch levels drawn as one block
_MIN_HMC_WORD = 6  # r(2) = r(3) = 3 * 2 symbols, the shortest hmc word

MIN_WINDOWS = 4


def _generator(seed: int, stream: tuple[int, ...] = ()) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=stream)))


def _check_entropy(name: str, value) -> int:
    """A seed or stream number as an int; anything else raises naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    """The Philox keys of the given stream numbers of `seed`, one row each.

    Row i equals `SeedSequence(entropy=seed, spawn_key=(streams[i],))
    .generate_state(2, np.uint64)`: numpy's pool mixing, run for every
    stream at once with each 32-bit word held in a uint64 array.  The hash
    constants do not depend on the data, so each mixing step is one array
    operation.  A stream of 2**32 or more is a two-word spawn key, which this
    port does not cover.
    """
    seed = _check_entropy("seed", seed)
    streams = np.asarray(streams)
    outside = streams[(streams < 0) | (streams > _MASK32)]
    if len(outside):
        raise ValueError(
            f"stream {outside[0]} outside 0..2**32-1: only one-word spawn keys are ported"
        )
    mask = np.uint64(_MASK32)
    shift = np.uint64(16)
    # The seed as little-endian 32-bit words, zero-padded to the pool size
    # because a spawn key follows, then the stream number.
    words = [(seed >> bit) & _MASK32 for bit in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(len(streams), w, np.uint64) for w in words]
    entropy.append(streams.astype(np.uint64))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint64(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint64(hash_const) & mask
        return value ^ (value >> shift)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # MIX_MULT_L*x - MIX_MULT_R*y mod 2**32; uint64 wraps mod 2**64.
        result = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & mask
        return result ^ (result >> shift)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:  # generate_state(2, np.uint64) reads the pool once
        word = word ^ np.uint64(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * np.uint64(hash_const) & mask
        state.append(word ^ (word >> shift))
    high = np.uint64(32)
    return np.stack([state[0] | state[1] << high, state[2] | state[3] << high], axis=1)


# Philox4x64-10's multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


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


def _lemire32(words: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw of 0..r-1 from 32-bit words, for 1 < r < 2**32
    (Lemire, ACM TOMACS 2019): the high word of words * r, rejected where
    its low word is below 2**32 mod r.  Returns (draws, rejected)."""
    r = r.astype(np.uint64)
    product = words * r
    rejected = (product & np.uint64(_MASK32)) < np.uint64(1 << 32) % r
    return product >> np.uint64(32), rejected


# ----- level samplers ---------------------------------------------------------


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
    j0 = 21
    js = np.arange(j0, j0 + _BRANCH_GROUPS, dtype=np.float64)
    ints = LN2 / (alpha - 1.0) * ((js - 1.0) ** (1.0 - alpha) - js ** (1.0 - alpha))
    group = d_mid * ints / (3.0 * js)
    group_cdf = float(cdf[-1]) + np.cumsum(group)
    return d_mid, cdf, group_cdf


def _within_group(rng: np.random.Generator, j: int, alpha: float) -> int:
    """Draw a level from digit group j (m in [2**(j-1), 2**j)) with density
    proportional to 1/(m*log2(m)**alpha); exact by rejection for moderate j."""
    if j <= _EXACT_REJECT_DIGITS:
        envelope = 1.5 * LN2 * (j - 1.0) ** (-alpha)
        while True:
            x = rng.random()
            if j <= 53:
                m = min(int(2.0 ** (j - 1 + x)), (1 << j) - 1)
                m = max(m, 1 << (j - 1))
            else:
                m = _log_uniform_big(rng, j, x)
            ratio = 1.0 / (m * math.log2(m) ** alpha * (math.log1p(1.0 / m) / LN2))
            if rng.random() * envelope <= ratio:
                return m
    return _log_uniform_big(rng, j, rng.random())


def _log_uniform_big(rng: np.random.Generator, j: int, frac: float) -> int:
    mant = int(2.0**frac * (1 << 52))
    m = mant << (j - 53)
    low_bits = j - 53
    if low_bits > 0:
        nbytes = (low_bits + 7) // 8
        fill = int.from_bytes(rng.bytes(nbytes), "little") & ((1 << low_bits) - 1)
        m |= fill
    return min(max(m, 1 << (j - 1)), (1 << j) - 1)


def _prefix_levels(cdf: np.ndarray, u):
    """The levels of draws `u` below `cdf[-1]`, for a scalar or an array:
    2 plus the count of prefix-table entries at or below each draw."""
    return 2 + cdf.searchsorted(u, "right")


def sample_level(model: ProcessModel, rng: np.random.Generator) -> int:
    """Draw one level from the stationary level law P(N=n) = C/(n*log2(n)**alpha)."""
    if model.fixed_level is not None:
        return model.fixed_level
    _, cdf = _stationary_tables(model.alpha, model.series_cutoff)
    u = rng.random()
    if u < float(cdf[-1]):
        return int(_prefix_levels(cdf, u))
    return _level_tail(model, rng, u)


def _level_tail(model: ProcessModel, rng: np.random.Generator, u: float) -> int:
    """The stationary level of a draw `u` past the prefix table."""
    alpha = model.alpha
    c_mid, _ = _stationary_tables(alpha, model.series_cutoff)
    # Analytic tail: P(digit group >= j) ~ K*(j-1)**(1-alpha) with the
    # bracket-midpoint constant; invert, then settle on the exact group.
    v = 1.0 - u
    k_const = c_mid * LN2 / (alpha - 1.0)

    def group_tail(j: float) -> float:
        return k_const * (j - 1.0) ** (1.0 - alpha)

    j = 1 + (k_const / max(v, 1e-300)) ** (1.0 / (alpha - 1.0))
    j = max(21, min(int(j), _GROUP_CAP))
    while j > 21 and group_tail(j) < v:
        j -= 1
    while j < _GROUP_CAP and group_tail(j + 1) >= v:
        j += 1
    return _within_group(rng, j, alpha)


def _branch_tail(model: ProcessModel, rng: np.random.Generator, u: float) -> int:
    """The branch level of a draw `u` past the prefix table."""
    _, _, group_cdf = _branch_tables(model.alpha, model.series_cutoff)
    idx = int(group_cdf.searchsorted(min(u, float(group_cdf[-1]))))
    j = min(21 + idx, 21 + _BRANCH_GROUPS - 1)
    return _within_group(rng, j, model.alpha)


def _uniform_phase(rng: np.random.Generator, r: int) -> int:
    """Uniform phase in 1..r for arbitrarily large r (rejection on raw bits)."""
    if r <= (1 << 62):
        return 1 + int(rng.integers(0, r))
    bits = r.bit_length()
    nbytes = (bits + 7) // 8
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "little") & ((1 << bits) - 1)
        if x < r:
            return 1 + x


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
    the ergodic kind re-draws a level at every word boundary.  Symbols are
    slices of `ProcessModel.emission_word`, read with
    `ProcessModel.emission_slice`, except for hmc words of prefix-table
    levels, which `ProcessModel.emission_array` computes in numpy.  A seed
    or stream that is not a non-negative integer raises an error naming it.
    """
    _check_length(length)
    seed, stream = _check_entropy("seed", seed), _check_entropy("stream", stream)
    return _sample(model, length, seed, stream, _generator(seed, (stream,)))


def sample_trajectories(model: ProcessModel, count: int, length: int, seed: int) -> list[Trajectory]:
    """`count` independent trajectories on streams 0..count-1 of one seed.

    Trajectory i equals `sample_trajectory(model, length, seed, stream=i)`.
    The cyclic kinds take most streams from `_first_blocks`, in numpy.  One
    Philox generator serves every other stream: it is re-keyed with the
    stream's key from `_stream_keys` and rewound to counter 0 with an empty
    buffer, which is the state a fresh generator of that stream starts from.
    """
    if count < 0:
        raise ValueError(f"trajectory count must be >= 0, got {count}")
    _check_length(length)
    seed = _check_entropy("seed", seed)
    keys = _stream_keys(seed, np.arange(operator.index(count)))
    if model.kind is Kind.HMC or model.fixed_level is not None:
        trajectories: list = [None] * count
    else:
        trajectories = _first_blocks(model, keys, length, seed)
    bit_generator = np.random.Philox(seed)
    rng = np.random.Generator(bit_generator)
    # What Philox(SeedSequence(seed, spawn_key=(stream,))) starts from: the
    # stream's key, counter 0 and an empty 4-word buffer.  Lists of ints set
    # it in a third of the time arrays take.
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": None},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for stream, key in enumerate(keys.tolist()):
        if trajectories[stream] is None:
            fresh["state"]["key"] = key
            bit_generator.state = fresh
            trajectories[stream] = _sample(model, length, seed, stream, rng)
    return trajectories


def _check_length(length: int) -> None:
    if length < 1:
        raise ValueError(f"trajectory length must be >= 1, got {length}")


def _first_blocks(model: ProcessModel, keys: np.ndarray, length: int, seed: int) -> list:
    """The cyclic trajectories that the first Philox block of their stream
    decides, in one numpy pass; None for every other stream.

    A cyclic stream draws `random()` for its level, `integers(0, r)` for its
    phase and nothing more.  From a fresh generator the level is word 0 of
    the block at counter 1, `(word >> 11) * 2**-53`, and the phase is the
    bounded draw from the low half of word 1.  A stream whose level falls
    past the prefix table, or whose bounded draw rejects, is left to
    `_sample`.
    """
    zero = np.zeros(len(keys), np.uint64)
    word0, word1, _, _ = _philox((zero + np.uint64(1), zero, zero, zero), keys)
    _, cdf = _stationary_tables(model.alpha, model.series_cutoff)
    u = (word0 >> np.uint64(11)) * 2.0**-53
    levels = _prefix_levels(cdf, u)
    r = levels if model.kind is Kind.HPM1 else np.frexp(levels)[1]
    offsets, rejected = _lemire32(word1 & np.uint64(_MASK32), r)
    streams = np.flatnonzero((u < cdf[-1]) & ~rejected)
    levels, offsets = levels[streams], offsets[streams].astype(np.int64)
    phases = (offsets[:, None] + np.arange(length)) % r[streams, None]
    data = model.emission_array(levels[:, None], phases).tobytes()
    trajectories: list = [None] * len(keys)
    kind, alpha = model.kind.value, model.alpha
    rows = zip(streams.tolist(), levels.tolist(), offsets.tolist())
    for i, (stream, level, offset) in enumerate(rows):
        symbols = data[i * length : (i + 1) * length]
        state = StateId(level, offset + 1)
        trajectories[stream] = Trajectory(symbols, seed, stream, kind, alpha, state)
    return trajectories


def _sample(
    model: ProcessModel, length: int, seed: int, stream: int, rng: np.random.Generator
) -> Trajectory:
    """One trajectory drawn from `rng`, a Philox generator on stream
    `stream` of `seed`."""
    level = sample_level(model, rng)
    phase = _uniform_phase(rng, model.phase_count(level))
    word_levels: list[int] = []
    symbols = model.emission_slice(level, phase - 1, phase - 1 + length)
    if len(symbols) < length and model.kind is Kind.HMC:
        symbols += _branch_words(model, length - len(symbols), rng, word_levels)
    elif len(symbols) < length:  # the cycle starts over: its word from this phase on, repeated
        turn = symbols + model.emission_slice(level, 0, min(phase - 1, length - len(symbols)))
        symbols = (turn * (length // len(turn) + 1))[:length]
    return Trajectory(
        symbols=symbols,
        seed=seed,
        stream=stream,
        kind=model.kind.value,
        alpha=model.alpha,
        initial_state=StateId(level, phase),
        word_levels=tuple(word_levels),
    )


def _branch_words(
    model: ProcessModel, length: int, rng: np.random.Generator, word_levels: list[int]
) -> bytes:
    """The first `length` symbols of the hmc words that follow a word end,
    appending the level of each word to `word_levels`.

    Branch levels are drawn as blocks of doubles, `rng.random(k)`, which
    gives the same values as k calls to `rng.random()`.  The draws that hit
    the prefix table become levels and symbols in numpy.  At the first draw
    past it the generator is stepped back to just after that draw, so that
    the scalar tail (`_branch_tail`) draws what it would have drawn.  A
    block holds at most enough words to fill the trajectory; draws past its
    last word are never used, as nothing draws from the stream again.
    """
    pieces: list[bytes] = []
    filled = 0

    def add_word(level: int) -> None:
        nonlocal filled
        word_levels.append(level)
        pieces.append(model.emission_slice(level, 0, length - filled))
        filled += len(pieces[-1])

    if model.fixed_level is not None:
        while filled < length:
            add_word(model.fixed_level)
        return b"".join(pieces)
    _, cdf, _ = _branch_tables(model.alpha, model.series_cutoff)
    while filled < length:
        u = rng.random(min(-(-(length - filled) // _MIN_HMC_WORD), _BRANCH_BLOCK))
        past_prefix = u >= cdf[-1]
        first_tail = int(past_prefix.argmax()) if past_prefix.any() else len(u)
        levels = _prefix_levels(cdf, u[:first_tail])
        r = 3 * np.frexp(levels)[1]
        ends = np.cumsum(r)
        words = min(int(ends.searchsorted(length - filled)) + 1, len(levels))
        if words:
            word = np.repeat(np.arange(words), r[:words])[: length - filled]
            offsets = np.arange(len(word)) - (ends - r)[word]
            pieces.append(model.emission_array(levels[word], offsets).tobytes())
            word_levels.extend(levels[:words].tolist())
            filled += len(word)
        if filled < length and first_tail < len(u):
            _rewind(rng.bit_generator, len(u) - first_tail - 1)
            add_word(_branch_tail(model, rng, float(u[first_tail])))
    return b"".join(pieces)


def _rewind(bit_generator: np.random.Philox, words: int) -> None:
    """Step a Philox bit generator back by `words` 64-bit outputs.

    At counter c and buffer position p it has given 4*c + p - 4 outputs.
    Setting counter q with an empty buffer and drawing p' more outputs, for
    q, p' = divmod(outputs - words, 4), leaves it where it was `words`
    outputs ago.  The 32-bit half-word numpy keeps for `integers` is not
    touched by 64-bit outputs, so it is kept as it is."""
    if not words:
        return
    state = bit_generator.state
    counter = sum(int(w) << (64 * i) for i, w in enumerate(state["state"]["counter"]))
    q, p = divmod(4 * counter + state["buffer_pos"] - 4 - words, 4)
    state["state"]["counter"] = [(q >> (64 * i)) & (2**64 - 1) for i in range(4)]
    state["buffer_pos"] = 4
    bit_generator.state = state
    if p:
        bit_generator.random_raw(p)


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
