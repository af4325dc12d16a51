"""Shared fixtures: fast-cutoff models, tables built from dicts, and
independently coded reference enumerators, the dict build of the cyclic
tables, table profiles, scalar level decoders, scalar triple-bound
predicates, a scalar trajectory sampler and per-state references (emission,
hidden states, the reveal rule) used as oracles against the production
engine, and G-tests of sampled counts against tabulated laws."""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from excesslab.exact import (
    DEFAULT_ENTRY_BUDGET,
    BudgetExceededError,
    JointBlockTable,
    enumerate_joint,
)
from excesslab.intervals import Interval
from excesslab.models import Kind, ProcessModel, StateId, binary_length, phase_count
from excesslab.sampling import (
    _GROUP_CAP,
    Trajectory,
    _branch_tables,
    _generator,
    _prefix_levels,
    _stationary_tables,
    sample_trajectories,
    sample_trajectory,
)
from excesslab.series import LN2, level_weight, squared_level_tail, tail_sum_bracket

# Tests run the normalization series at a reduced cutoff; enclosures stay
# certified, just a few orders of magnitude wider than the default.
FAST_SERIES_CUTOFF = 1_000_000

_MODELS: dict = {}


def make_model(kind: str, alpha: float, fixed_level: int | None = None) -> ProcessModel:
    key = (kind, alpha, fixed_level)
    if key not in _MODELS:
        _MODELS[key] = ProcessModel(
            kind, alpha, series_cutoff=FAST_SERIES_CUTOFF, fixed_level=fixed_level
        )
    return _MODELS[key]


@pytest.fixture(scope="session")
def model_factory():
    return make_model


# ----- scalar level law: the reference for the tables' per-level masses -----


def level_mass(model: ProcessModel, level: int) -> Interval:
    """Enclosure of P(N = level), one level at a time."""
    if level < 2:
        raise ValueError(f"levels start at 2, got {level}")
    if model.fixed_level is not None:
        return Interval.point(1.0 if level == model.fixed_level else 0.0)
    return model.norm_c * Interval.point(level_weight(level, model.alpha))


def branch_probability(model: ProcessModel, level: int) -> Interval:
    """Enclosure of the hmc post-word branch probability p(level)."""
    if level < 2:
        raise ValueError(f"levels start at 2, got {level}")
    w = level_weight(level, model.alpha) / model.phase_count(level)
    return model.norm_d * Interval.point(w)


# ----- scalar level decoders: the reference for the array decoders ----------

_RUN_BYTE = b"\x03"
_SYMBOLS = {top: bytes(range(top + 1)) for top in (1, 2, 3)}
_DIGIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def _as_bytes(block, top: int) -> bytes:
    """Validate the symbol range and get a bytes view for C-speed scanning."""
    b = block if isinstance(block, bytes) else bytes(block)
    # Stripping the alphabet off both ends leaves nothing unless some
    # symbol lies outside it; the largest symbol is then a bad one.
    if b.strip(_SYMBOLS[top]):
        raise ValueError(f"symbol {max(b)} outside alphabet 0..{top}")
    return b


def level_from_digits(digits: bytes) -> int:
    """The level whose binary digits after the leading 1 are `digits`."""
    return int(b"1" + digits.translate(_DIGIT_CHARS), 2)


def decode_past_hpm1(past) -> int:
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


def decode_future_hpm1(future) -> int:
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


def decode_past_hpm2(past) -> int:
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
    return level_from_digits(b[second + 1 : last])


def decode_future_hpm2(future) -> int:
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
    return level_from_digits(b[first + 1 : nxt])


def decode_past_hmc(past) -> int:
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
    return level_from_digits(digits)


def decode_future_hmc(future) -> int:
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
    return level_from_digits(digits)


PAST_ORACLE = {Kind.HPM1: decode_past_hpm1, Kind.HPM2: decode_past_hpm2, Kind.HMC: decode_past_hmc}
FUTURE_ORACLE = {
    Kind.HPM1: decode_future_hpm1,
    Kind.HPM2: decode_future_hpm2,
    Kind.HMC: decode_future_hmc,
}


def naive_cyclic_table(model: ProcessModel, n: int, level_cutoff: int) -> dict:
    """Brute-force mixture enumeration over every (level, phase) pair.

    Deliberately plain: per level, walk each phase and slice the repeated
    emission word; no structural shortcuts.  A `fixed_level` model walks its
    one level, if the cutoff reaches it.
    """
    length = 2 * n
    entries: dict = {}
    levels = range(2, level_cutoff + 1)
    if model.fixed_level is not None:
        levels = [m for m in levels if m == model.fixed_level]
    for m in levels:
        mass = level_mass(model, m).mid
        word = model.emission_word(m)
        r = len(word)
        ext = word * ((length + r - 1) // r + 1)
        per_phase = mass / r
        for k in range(r):
            win = ext[k : k + length]
            key = (win[:n], win[n:])
            entries[key] = entries.get(key, 0.0) + per_phase
    return entries


def dict_cyclic_table(
    model: ProcessModel,
    n: int,
    level_cutoff: int,
    aggregate: bool = False,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> tuple[dict, Interval, float]:
    """The cyclic enumerator as a dict of running sums, one (level, phase)
    at a time: the bitwise reference for the array build's keys, key order,
    masses, pruned mass and entry slack.  hpm1 levels m >= 2n add to the 2n
    single-marker keys and the all-zero key after every row, in closed form
    with `aggregate`.  Checks the entry budget after each level."""
    length = 2 * n
    c_iv = model.norm_c
    c_relw = 0.0 if model.fixed_level is not None else c_iv.width / c_iv.mid
    entries: dict = {}
    label = f"kind={model.kind.value}, alpha={model.alpha}, n={n}, level_cutoff={level_cutoff}"

    def check_entries() -> None:
        if len(entries) > entry_budget:
            raise BudgetExceededError(f"table exceeded entry budget {entry_budget} ({label})")

    if aggregate:
        levels = range(2, length)
    elif model.fixed_level is not None:
        levels = [model.fixed_level] if model.fixed_level <= level_cutoff else []
    else:
        levels = range(2, level_cutoff + 1)
    assigned = 0.0
    marker = zero = 0.0
    for m in levels:
        mass = level_mass(model, m).mid
        assigned += mass
        if model.kind is Kind.HPM1 and m >= length:
            marker += mass / m
            zero += mass * (m - length) / m
            continue
        word = model.emission_word(m)
        r = len(word)
        ext = word * ((length + r - 1) // r + 1)
        per_phase = mass / r
        for k in range(r):
            win = ext[k : k + length]
            key = (win[:n], win[n:])
            entries[key] = entries.get(key, 0.0) + per_phase
        check_entries()
    slack = 0.5 * c_relw * assigned
    if aggregate:
        marker_iv = c_iv * squared_level_tail(model.alpha, length)
        short = math.fsum(level_weight(m, model.alpha) for m in range(2, length))
        zero_iv = ((1.0 - c_iv * short) - float(length) * marker_iv).clamp(0.0, 1.0)
        marker, zero = marker_iv.mid, zero_iv.mid
        slack += 0.5 * (length * marker_iv.width + zero_iv.width)
    if marker:
        buf = bytearray(length)
        for j in range(length):
            buf[j] = 1
            key = (bytes(buf[:n]), bytes(buf[n:]))
            entries[key] = entries.get(key, 0.0) + marker
            buf[j] = 0
        key = (bytes(n), bytes(n))
        entries[key] = entries.get(key, 0.0) + zero
        check_entries()
    pruned = Interval.point(0.0) if aggregate else model.level_tail_mass(level_cutoff)
    return entries, pruned, slack


def naive_hmc_table(
    model: ProcessModel, n: int, level_cutoff: int, prune_eps: float = 0.0
) -> dict:
    """Reference for the ergodic kind: full recursive path expansion with no
    ordering tricks and no merging shortcuts.  A branch whose path
    probability falls below `prune_eps` is skipped, as the engine does.  A
    `fixed_level` model repeats its one word: every branch returns to it."""
    length = 2 * n
    if model.fixed_level is not None:
        words = {model.fixed_level: model.emission_word(model.fixed_level)}
        branch = {model.fixed_level: 1.0}
        seeds = {model.fixed_level: 1.0 / model.phase_count(model.fixed_level)}
    else:
        words = {m: model.emission_word(m) for m in range(2, level_cutoff + 1)}
        c_mid = model.norm_c.mid
        d_mid = model.norm_d.mid
        branch = {
            m: d_mid * level_weight(m, model.alpha) / model.phase_count(m) for m in words
        }
        seeds = {
            m: c_mid * level_weight(m, model.alpha) / model.phase_count(m) for m in words
        }
    entries: dict = {}

    def walk(prefix: bytes, prob: float, m: int, k: int) -> None:
        word = words[m]
        prefix = prefix + word[k - 1 :]
        if len(prefix) >= length:
            win = prefix[:length]
            key = (win[:n], win[n:])
            entries[key] = entries.get(key, 0.0) + prob
            return
        for nxt in words:
            if prob * branch[nxt] >= prune_eps:
                walk(prefix, prob * branch[nxt], nxt, 1)

    for m in words:
        for k in range(1, len(words[m]) + 1):
            walk(b"", seeds[m], m, k)
    return entries


def table_from(
    n: int,
    alphabet_size: int,
    entries: dict,
    pruned_mass: Interval,
    entry_slack: float = 0.0,
) -> JointBlockTable:
    """The table of a (past, future) -> mass dict of byte strings, in its
    order: np.fromiter reads the keys into one (count, 2n) symbol matrix and
    the masses into one vector.  Raises ValueError on an alphabet of more
    than four symbols, a block that is not n symbols long or a symbol outside
    the alphabet."""
    count = len(entries)
    if alphabet_size > 4:
        raise ValueError(f"alphabet of {alphabet_size} symbols; at most 4 are packed")
    lengths = set(map(len, itertools.chain.from_iterable(entries)))
    if lengths - {n}:
        raise ValueError(f"block of length {min(lengths - {n})} in a table of n = {n}")
    blocks = itertools.chain.from_iterable(entries)
    keys = np.fromiter(blocks, np.dtype((np.void, n)), 2 * count).view(np.uint8)
    keys = keys.reshape(count, 2 * n)
    if count and keys.max() >= alphabet_size:
        raise ValueError(f"symbol {keys.max()} outside alphabet 0..{alphabet_size - 1}")
    masses = np.fromiter(entries.values(), np.float64, count)
    return JointBlockTable(n, alphabet_size, keys, masses, pruned_mass, entry_slack)


def assert_tables_match(reference: dict, entries: dict, tol: float = 1e-12) -> float:
    assert set(reference) == set(entries), (
        f"key sets differ: {len(reference)} reference vs {len(entries)} engine; "
        f"only-ref {list(set(reference) - set(entries))[:3]}, "
        f"only-engine {list(set(entries) - set(reference))[:3]}"
    )
    worst = max(abs(reference[k] - entries[k]) for k in reference)
    assert worst <= tol, f"worst per-entry gap {worst:.3e} exceeds {tol:.0e}"
    return worst


def naive_profile(table) -> SimpleNamespace:
    """Reference for `JointBlockTable.profile`, one entry at a time: each
    side's blocks numbered by a dict in order of first appearance, and each
    marginal summed entry by entry in table order.  Blocks are bytes, ids
    and marginal masses are lists."""
    past_ids: dict = {}
    future_ids: dict = {}
    past_mass: dict = {}
    future_mass: dict = {}
    past, future = [], []
    for (p_key, f_key), p in table.entries.items():
        past.append(past_ids.setdefault(p_key, len(past_ids)))
        future.append(future_ids.setdefault(f_key, len(future_ids)))
        past_mass[p_key] = past_mass.get(p_key, 0.0) + p
        future_mass[f_key] = future_mass.get(f_key, 0.0) + p
    return SimpleNamespace(
        past=past,
        future=future,
        past_blocks=list(past_ids),
        future_blocks=list(future_ids),
        past_mass=list(past_mass.values()),
        future_mass=list(future_mass.values()),
    )


def scalar_predicate_grid(alphabet: tuple[int, ...]) -> list:
    """Reference for `verify.predicate_grid`: the same 20 predicates, each on
    one (past, future) byte-string key."""
    preds = []
    preds.append(lambda key: key[0] < key[1])
    preds.append(lambda key: key[0] == key[1])
    preds.append(lambda key: sum(key[0]) % 2 == 0)
    preds.append(lambda key: sum(key[1]) % 2 == 1)
    preds.append(lambda key: (sum(key[0]) + sum(key[1])) % 3 == 0)
    preds.append(lambda key: key[0][0] == key[1][-1])
    preds.append(lambda key: key[0][-1] == key[1][0])
    preds.append(lambda key: len(set(key[0])) > 1)
    preds.append(lambda key: len(set(key[1])) == 1)
    preds.append(lambda key: key[0][: len(key[0]) // 2] == key[1][: len(key[1]) // 2])
    preds.append(lambda key: max(key[0]) >= max(key[1]))
    preds.append(lambda key: True)
    for sym in alphabet:
        preds.append(lambda key, s=sym: s in key[0])
        preds.append(lambda key, s=sym: s in key[1])
        preds.append(lambda key, s=sym: key[0][0] == s)
        preds.append(lambda key, s=sym: key[1][-1] == s)
        preds.append(lambda key, s=sym: key[0].count(s) > key[1].count(s))
    return preds[:20]


def _naive_sub_table_mi(sub: dict) -> float:
    """Plug-in mutual information of a renormalized sub-table."""
    total = math.fsum(sub.values())
    if total <= 0.0:
        return 0.0
    past: dict = {}
    future: dict = {}
    joint = []
    for (p_key, f_key), p in sub.items():
        q = p / total
        joint.append(q)
        past[p_key] = past.get(p_key, 0.0) + q
        future[f_key] = future.get(f_key, 0.0) + q
    return (
        _plug_in_entropy(list(past.values()))
        + _plug_in_entropy(list(future.values()))
        - _plug_in_entropy(joint)
    )


def naive_conditional_mi(table, past_label, future_label=None) -> float:
    """Reference I(past; future | label): the entries split into one dict
    sub-table per label, each sub-table's plug-in MI taken on its own and
    weighted by the label's mass."""
    future_label = future_label or past_label
    groups: dict = {}
    for key, p in table.entries.items():
        label = past_label(key[0])
        assert label == future_label(key[1]), f"label mismatch on {key}"
        groups.setdefault(label, {})[key] = p
    total = math.fsum(table.entries.values())
    return math.fsum(
        (math.fsum(sub.values()) / total) * _naive_sub_table_mi(sub) for sub in groups.values()
    )


def naive_triple_information(table, event) -> float:
    """Reference I(past; future; 1_B): the table split into two dict
    sub-tables on the event."""
    total = math.fsum(table.entries.values())
    inside: dict = {}
    outside: dict = {}
    for key, p in table.entries.items():
        (inside if event(key) else outside)[key] = p
    mass_in = math.fsum(inside.values()) / total
    mass_out = math.fsum(outside.values()) / total
    cond = mass_in * _naive_sub_table_mi(inside) + mass_out * _naive_sub_table_mi(outside)
    return _naive_sub_table_mi(table.entries) - cond


def _plug_in_entropy(masses: list) -> float:
    arr = np.asarray(masses, dtype=np.float64)
    q = arr / np.sum(arr)
    return float(-np.sum(q * np.log2(q)))


# ----- scalar trajectory sampler: the reference for the array passes ---------

_MASK64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox_block(key: tuple[int, int], draw: int, lane: int) -> list[int]:
    """Philox4x64-10 in Python ints: the four words of draw `draw` of lane
    `lane` under `key`, from counter (draw, lane, 0, 0)."""
    c0, c1, c2, c3 = draw, lane, 0, 0
    k0, k1 = key
    for i in range(10):
        if i:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
    return [c0, c1, c2, c3]


def lane_int(key: tuple[int, int], lane: int, words: int) -> int:
    """The first `words` words of lane `lane` >= 1, word 0 lowest, as one
    int: draws 0, 1, ... from numpy's Philox bit generator set one step
    before counter (0, lane, 0, 0), whose blocks `_philox` must equal
    (`test_philox_port_matches_numpy`)."""
    counter = np.array([2**64 - 1, lane - 1, 0, 0], np.uint64)
    bits = np.random.Philox(key=np.array(key, np.uint64), counter=counter)
    return int.from_bytes(bits.random_raw(words).astype("<u8").tobytes(), "little")


def reference_level(model: ProcessModel, key, words: list[int], word: int, branch: bool) -> int:
    """The level of one draw's words, one variate at a time: the prefix
    table, else the digit group and its within-group inverse in float64
    scalars, and the low digits from word 3 and lane 3 + `word`.  The
    inverse calls numpy's power, expm1 and log1p, as the sampler does:
    numpy may run them on SIMD code whose last bit differs from libm's."""
    if model.fixed_level is not None:
        return model.fixed_level
    alpha = model.alpha
    u = (words[0] >> 11) * 2.0**-53
    if branch:
        _, cdf, group_cdf = _branch_tables(alpha, model.series_cutoff)
    else:
        c_mid, cdf = _stationary_tables(alpha, model.series_cutoff)
    if u < float(cdf[-1]):
        return int(_prefix_levels(cdf, u))
    if branch:
        at = int(group_cdf.searchsorted(min(u, float(group_cdf[-1]))))
        j = min(21 + at, 21 + len(group_cdf) - 1)
    else:
        v = 1.0 - u
        k_const = c_mid * LN2 / (alpha - 1.0)

        def tail(j: int) -> float:  # the group tail past j - 1 binary digits
            return k_const * np.power(j - 1.0, 1.0 - alpha)

        j = max(21, min(int(1 + np.power(k_const / max(v, 1e-300), 1.0 / (alpha - 1.0))), _GROUP_CAP))
        while j > 21 and tail(j) < v:
            j -= 1
        while j < _GROUP_CAP and tail(j + 1) >= v:
            j += 1
    a, beta = np.float64(j - 1.0), 1.0 - alpha
    q = -np.expm1(beta * np.log1p(1.0 / a))
    frac = a * np.expm1(np.log1p(-((words[1] >> 11) * 2.0**-53) * q) / beta)
    top = min(max(math.floor(np.power(2.0, frac) * 2.0**20), 1 << 20), (1 << 21) - 1)
    shift = j - 21
    low = words[3] | lane_int(key, 3 + word, max(0, -(-(shift - 64) // 64))) << 64
    return (top << shift) | (low & ((1 << shift) - 1))


def reference_sample(model: ProcessModel, length: int, seed: int, stream: int) -> Trajectory:
    """Stream `stream` of `seed` drawn one variate at a time: the initial
    level from draw 0 of lane 0, its phase offset as X mod r (X the phase
    word, over ceil(b/64) words of lane 2 for r of b > 32 binary digits),
    and hmc word k + 1 from draw k of lane 1.  The draws of lanes 0 and 1
    are Python-int Philox (`philox_block`), the longer runs of lane words
    numpy's Philox (`lane_int`); neither is the sampler's `_philox`."""
    key = (seed, stream)
    words = philox_block(key, 0, 0)
    level = reference_level(model, key, words, 0, branch=False)
    r = model.phase_count(level)
    more = 0 if r.bit_length() <= 32 else -(-r.bit_length() // 64)
    phase = ((words[2] << 64 * more) | lane_int(key, 2, more)) % r + 1
    word_levels: list[int] = []
    if model.kind is Kind.HPM1:
        symbols = bytes((t + phase) % level == 0 for t in range(length))
    elif model.kind is Kind.HPM2:
        symbols = model.emission_slice(level, phase - 1, phase - 1 + length)
        while len(symbols) < length:  # the cycle repeats its word
            symbols += model.emission_slice(level, 0, length - len(symbols))
    else:
        pieces = [model.emission_slice(level, phase - 1, phase - 1 + length)]
        filled = len(pieces[0])
        while filled < length:
            k = len(word_levels)
            words = philox_block(key, k, 1)
            word_levels.append(reference_level(model, key, words, k + 1, branch=True))
            pieces.append(model.emission_slice(word_levels[-1], 0, length - filled))
            filled += len(pieces[-1])
        symbols = b"".join(pieces)
    return Trajectory(
        symbols=symbols,
        seed=seed,
        stream=stream,
        kind=model.kind.value,
        alpha=model.alpha,
        initial_state=StateId(level, phase),
        word_levels=tuple(word_levels),
    )


# ----- goodness of fit: sampled counts against a tabulated law ----------------

# Fixed before the first run: a law test fails when its p-value falls below it.
G_TEST_THRESHOLD = 1e-6


def chi2_tail(statistic: float, df: int) -> float:
    """P(chi2_df >= statistic): the regularized upper incomplete gamma
    Q(df/2, statistic/2), by its power series below a + 1 and by Lentz's
    continued fraction above (Numerical Recipes, 3rd ed., section 6.2)."""
    a, x = df / 2.0, statistic / 2.0
    if x <= 0.0:
        return 1.0
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while term > total * 1e-17:
            k += 1.0
            term *= x / k
            total += term
        return max(0.0, 1.0 - total * math.exp(log_prefix))
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return math.exp(log_prefix) * h


def law_p_value(law: dict, counts: Counter, total: int) -> float:
    """The G-test p-value of `counts`, `total` draws in all, against `law`.

    Each outcome of `law` whose expected count is 5 or more is a bin; every
    other draw falls in one "other" bin of the mass the bins leave.  The
    statistic is the Poisson deviance 2 * sum(O ln(O/E) - (O - E)), which is
    the G statistic when the expected counts sum to `total` and stays
    defined when a faulty law's do not; a bin with draws and no expected
    mass gives p = 0."""
    bins = [key for key, mass in law.items() if total * mass >= 5]
    expected = [total * law[key] for key in bins]
    observed = [counts[key] for key in bins]
    expected.append(max(0.0, total - math.fsum(expected)))
    observed.append(total - sum(observed))
    statistic = 0.0
    for o, e in zip(observed, expected):
        if e == 0.0:
            if o:
                return 0.0
            continue
        statistic += 2.0 * ((o * math.log(o / e) if o else 0.0) - (o - e))
    return chi2_tail(statistic, sum(e > 0.0 for e in expected) - 1)


def window_law(model: ProcessModel, n: int, level_cutoff: int, aggregate: bool = False) -> dict:
    """The table's law of the length-2n windows it fully knows: every key
    of an aggregated hpm1 table, and the hpm2 keys that show the delimiter
    twice or more (each such window reveals a level below 2**(2n)).  A
    key's mass sums over every row that carries it."""
    table = enumerate_joint(model, n, level_cutoff, tail_aggregation=aggregate)
    law: dict[bytes, float] = {}
    for key, mass in zip(map(bytes, table.keys), table.masses.tolist()):
        if aggregate or key.count(2) >= 2:
            law[key] = law.get(key, 0.0) + mass
    return law


@functools.lru_cache(maxsize=4)
def sampled_windows(model: ProcessModel, length: int, count: int, seed: int) -> Counter:
    """The counts of `count` pooled windows, one per trajectory of
    `sample_trajectories`, counted as distinct rows of its symbol matrix;
    cached, since the table-side fault tests read the same sample as the
    unfaulted tests."""
    symbols = sample_trajectories(model, count, length, seed).symbols
    rows, counts = np.unique(symbols, axis=0, return_counts=True)
    return Counter(dict(zip(map(bytes, rows), counts.tolist())))


def branch_law_p_value(model: ProcessModel, length: int, seed: int) -> float:
    """The G-test p-value of the hmc word levels of one sampled trajectory
    of `length` symbols against `branch_probability` over levels 2..64."""
    levels = sample_trajectory(model, length, seed).word_levels
    law = {m: branch_probability(model, m).mid for m in range(2, 65)}
    return law_p_value(law, Counter(levels), len(levels))


# ----- per-state references: emission, hidden states, the reveal rule -------


def binary_digit(n: int, k: int) -> int:
    """b(n, k): the k-th binary digit of n, most significant first (b(n,1)=1)."""
    s = binary_length(n)
    if not 1 <= k <= s:
        raise ValueError(f"digit index {k} out of range 1..{s} for n={n}")
    return (n >> (s - k)) & 1


def emission(model: ProcessModel, state: StateId) -> int:
    """The symbol one hidden state emits, digit by digit: the reference for
    `ProcessModel.emission_word`, `emission_array` and the sampled paths."""
    m, k = state.level, state.phase
    if model.kind is Kind.HPM1:
        return 1 if k == m else 0
    s = binary_length(m)
    if model.kind is Kind.HPM2:
        return 2 if k == 1 else binary_digit(m, k)
    # hmc: delimiter, digits 2..s, run of s+1 threes, digits 2..s again
    if k == 1:
        return 2
    if k <= s:
        return binary_digit(m, k)
    if k <= 2 * s + 1:
        return 3
    return binary_digit(m, k - 2 * s)


def word_runs(traj: Trajectory):
    """(start, stop, state at start) for each run of steps on one level of a
    sampled trajectory.  A run ends where a word ends and a later word is
    recorded; the last run lasts to the end of the path.  Within a run the
    phase steps by one and wraps after r(level)."""
    kind, state, start = Kind(traj.kind), traj.initial_state, 0
    for level in traj.word_levels:
        stop = start + phase_count(kind, state.level) - state.phase + 1
        yield start, stop, state
        state, start = StateId(level, 1), stop
    yield start, len(traj.symbols), state


def hidden_states(traj: Trajectory) -> list[StateId]:
    """The hidden state at every step, expanded from the word record."""
    states = []
    for start, stop, first in word_runs(traj):
        r = phase_count(Kind(traj.kind), first.level)
        states.extend(
            StateId(first.level, (first.phase - 1 + t) % r + 1) for t in range(stop - start)
        )
    return states


def revealed_phases(kind: Kind, level: int, n: int) -> range:
    """The phases of `level` at which the state at time 0 reveals the level
    to blocks of length n, one level at a time: the reference for
    `decoders._revealed_phase_bounds`.  A cyclic kind reveals at every phase
    or at none: when two markers (hpm1) or two delimiters (hpm2) fit in each
    block.  hmc reveals when 2s <= n and the state sits in phases s+1..2s,
    the run of threes that the past block ends in and the future block
    starts from."""
    if kind is Kind.HPM1:
        return range(1, level + 1) if 2 * level <= n else range(0)
    s = binary_length(level)
    if 2 * s > n:
        return range(0)
    return range(1, s + 1) if kind is Kind.HPM2 else range(s + 1, 2 * s + 1)


def truth_hits(detail: str) -> int:
    """Windows with a defined hidden truth, read off a decoder_agreement
    detail ("..., <errors>/<hits> hidden-truth mismatches")."""
    return int(re.search(r"(\d+)/(\d+) hidden-truth", detail).group(2))


def naive_decoder_agreement(model, windows: int, seed: int, past_override=None) -> str:
    """Reference for `verify.check_decoder_agreement`: every window decoded
    on its own by the scalar decoders, side by side, on the same streams.
    Returns the detail."""
    kind = model.kind
    past = past_override or PAST_ORACLE[kind]
    future = FUTURE_ORACLE[kind]
    per_traj = 500
    disagreements = 0
    truth_errors = 0
    truth_hits = 0
    seen = 0
    stream = 0
    while seen < windows:
        n = 6 if stream % 2 == 0 else 12
        traj = sample_trajectory(model, 2 * n + per_traj, seed, stream=stream)
        stream += 1
        sym = traj.symbols
        states = hidden_states(traj)
        for t in range(min(per_traj, windows - seen)):
            dp = past(sym[t : t + n])
            if dp != future(sym[t + n : t + 2 * n]):
                disagreements += 1
            level, phase = states[t + n - 1].level, states[t + n - 1].phase
            truth = level if phase in revealed_phases(kind, level, n) else 0
            if truth:
                truth_hits += 1
                if dp != truth:
                    truth_errors += 1
            seen += 1
    return (
        f"{seen} windows, {disagreements} past/future disagreements, "
        f"{truth_errors}/{truth_hits} hidden-truth mismatches"
    )


def naive_estimate(data, n: int, method: str, resamples: int, seed: int):
    """Reference block-MI estimator: windows as (past, future) byte pairs in
    a `Counter`, resampled in plain Python loops with the production
    bootstrap streams.  Returns (point estimate, standard error, windows)."""

    def windows(symbols: bytes, step: int) -> list:
        return [
            (symbols[t : t + n], symbols[t + n : t + 2 * n])
            for t in range(0, len(symbols) - 2 * n + 1, step)
        ]

    def entropy(counts: Counter, total: int) -> float:
        p = np.fromiter(counts.values(), dtype=np.float64, count=len(counts)) / total
        return float(-np.sum(p * np.log2(p)))

    def mi(joint: Counter, total: int) -> float:
        past: Counter = Counter()
        future: Counter = Counter()
        for (p_key, f_key), c in joint.items():
            past[p_key] += c
            future[f_key] += c
        value = entropy(past, total) + entropy(future, total) - entropy(joint, total)
        if method == "miller_madow":
            value += (len(past) + len(future) - len(joint) - 1) / (2.0 * total * LN2)
        return value

    values = []
    if isinstance(data, Trajectory):
        wins = windows(data.symbols, 1)
        total = len(wins)
        point = mi(Counter(wins), total)
        if resamples >= 2 and total >= 2:
            rng = _generator(seed, (0xB0, 0x08))
            block = max(1, int(math.sqrt(total)))
            n_blocks = (total + block - 1) // block
            for _ in range(resamples):
                joint: Counter = Counter()
                count = 0
                for start in rng.integers(0, total, size=n_blocks):
                    for off in range(block):
                        if count >= total:
                            break
                        joint[wins[(start + off) % total]] += 1
                        count += 1
                values.append(mi(joint, count))
    else:
        per_traj = [Counter(windows(t.symbols, 2 * n)) for t in data]
        joint = Counter()
        for c in per_traj:
            joint.update(c)
        total = sum(joint.values())
        point = mi(joint, total)
        k = len(per_traj)
        if resamples >= 2 and k >= 2:
            rng = _generator(seed, (0xB0, 0x07))
            for _ in range(resamples):
                joint = Counter()
                for idx in rng.integers(0, k, size=k):
                    joint.update(per_traj[idx])
                values.append(mi(joint, sum(joint.values())))
    std = float(np.std(values, ddof=1)) if values else 0.0
    return point, std, total


# Per-term reference loops for the direct parts of the series sums: the
# terms in 1M-term chunks from m = 2, each chunk summed by numpy and the
# chunks by math.fsum, with the digit count s(m) taken per term.
_NAIVE_CHUNK = 1 << 20


def naive_normalization_sum(alpha: float, cutoff: int) -> float:
    """sum_{m=2}^{cutoff} 1/(m * log2(m)**alpha)."""
    parts = []
    for lo in range(2, cutoff + 1, _NAIVE_CHUNK):
        m = np.arange(lo, min(lo + _NAIVE_CHUNK, cutoff + 1), dtype=np.float64)
        parts.append(float(np.sum(1.0 / (m * np.log2(m) ** alpha))))
    return math.fsum(parts)


def naive_branch_normalization_sum(alpha: float, cutoff: int) -> float:
    """sum_{m=2}^{cutoff} 1/(3 * s(m) * m * log2(m)**alpha)."""
    parts = []
    for lo in range(2, cutoff + 1, _NAIVE_CHUNK):
        m = np.arange(lo, min(lo + _NAIVE_CHUNK, cutoff + 1), dtype=np.float64)
        s = np.frexp(m)[1].astype(np.float64)
        parts.append(float(np.sum(1.0 / (3.0 * s * m * np.log2(m) ** alpha))))
    return math.fsum(parts)


def naive_level_sums(alpha: float, top: int) -> tuple[float, float, float, float]:
    """sum_{m=2}^{top} w(m) * factor(m) for the LevelSums factors 1, log2(m),
    log2(log2(m)) and log2(s(m))."""
    s0, s1, s2, sd = [], [], [], []
    for lo in range(2, top + 1, _NAIVE_CHUNK):
        m = np.arange(lo, min(lo + _NAIVE_CHUNK, top + 1), dtype=np.float64)
        logm = np.log2(m)
        w = 1.0 / (m * logm**alpha)
        s = np.frexp(m)[1].astype(np.float64)
        s0.append(float(np.sum(w)))
        s1.append(float(np.sum(w * logm)))
        with np.errstate(divide="ignore"):
            ll = np.where(m == 2, 0.0, np.log2(logm))
        s2.append(float(np.sum(w * ll)))
        sd.append(float(np.sum(w * np.log2(s))))
    return math.fsum(s0), math.fsum(s1), math.fsum(s2), math.fsum(sd)


# Per-term reference loops for the level sums that tables and tail masses
# take term by term: each weight written out as `series.level_weight`
# computes it, the terms added by math.fsum in level order.


def _weight(m: int, alpha: float) -> float:
    return 1.0 / (m * math.log2(m) ** alpha)


def fsum_weights(alpha: float, lo: int, hi: int) -> float:
    """sum_{m=lo}^{hi} w(m)."""
    return math.fsum(_weight(m, alpha) for m in range(lo, hi + 1))


def fsum_branch_weights(alpha: float, top: int) -> float:
    """sum_{m=2}^{top} w(m) / (3 * s(m))."""
    return math.fsum(_weight(m, alpha) / (3 * binary_length(m)) for m in range(2, top + 1))


def fsum_level_tail(alpha: float, cutoff: int) -> Interval:
    """sum_{m>cutoff} w(m): 4096 terms, then the bracket of the rest."""
    return fsum_weights(alpha, cutoff + 1, cutoff + 4096) + tail_sum_bracket(alpha, cutoff + 4097)
