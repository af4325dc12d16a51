"""Exact joint block distributions and certified information quantities.

`enumerate_joint` materialises the joint law of (past block, future block) of
length n each as a finite table:

  * the two cyclic kinds are mixtures of deterministic cycles, so each
    (level, phase) pair contributes its stationary mass to exactly one
    (past, future) key: one row per pair, level-major.  A window that shows
    the hpm1 marker or the hpm2 delimiter twice is a key of its own (the
    gap gives the level, the position the phase), so its row is kept whole;
    only the rows that show it at most once are numbered, hpm1's by the
    position of the marker, hpm2's by their symbols.  A window of an hpm1
    level m >= 2n shows at most one marker, so those levels only add to 2n
    single-marker keys and the all-zero key, after every row; with tail
    aggregation these masses cover every m >= 2n in closed form.  Levels go
    in chunks of bounded rows, each counted against the entry budget before
    the next is built.  Both kinds read a chunk's windows from one matrix:
    row i is level i's `emission_word`, padded with zeros and read at
    t mod r, r the word's length.  The ergodic seeds read the same words;
  * the ergodic kind's hidden paths branch at word boundaries.  Each path
    starts at a seed (level, phase); what follows a boundary depends only on
    how many of the 2n symbols are still needed, so that subtree is expanded
    once per remaining length into a completion cache (suffix -> product of
    branch probabilities) and combined with every path that reaches such a
    boundary.  A branch whose sequential path product falls below the
    optional pruning threshold goes to the pruned mass: a boundary takes its
    subtree from the cache only when even its least likely leaf clears the
    threshold.  The others expand in a walk over the path tree, one depth
    at a time in numpy: each takes all its kept branches at once, and the
    walk's leaves, cached boundaries and pruned-mass additions are kept
    depth after depth, in the order it makes them.  Without pruning every
    boundary is cached, so the walk is one depth: the seeds in level order.
    The leaves become rows of a key matrix and a mass vector, and so do the
    cached (prefix, suffix) combinations: each completion table becomes
    window rows once, suffixes at the end of the row, and a combination is
    a prefix row OR'd with a suffix row.  Rows of both kinds are merged by
    `_Repeating`, these in bounded chunks.

A table holds its entries as two read-only arrays: a (count, 2n) uint8 key
matrix, past block then future block, and a float64 mass vector.  Every kind
builds them directly: keys in order of their first row, and each key's mass
summed from 0.0 in row order, bit for bit what a dict of running sums would
hold.  `entries` builds a read-only (past, future) -> mass mapping from
them on first use; the reductions below read the arrays only.

Every table tracks the probability mass that was *not* assigned to a key
(`pruned_mass`, an interval upper-bounding level tails plus pruned paths) and
`entry_slack`, a bound on the total absolute error of the assigned masses
coming from the normalization-constant enclosures.  Entropy results convert
these into certified error bars via

  |H_true - H_table|  <=  delta * log2(support) + h(delta) + slope * slack,

with h the binary entropy function and slope the worst Lipschitz constant of
-p*log2(p) above the smallest retained mass.  Masses below 1e-30 are folded
into the pruned mass before the table is built, and a table never changes
after.  Mass reductions use exact compensated summation (math.fsum); entropy
reductions use numpy's pairwise summation, whose rounding is far below every
certified width.

The reductions are array-native and share one profile per table
(`JointBlockTable.profile`, built on first use and cached): each half of the
key matrix packed into integer codes, numbered in order of first appearance
by one np.sort of (code, row) keys, the distinct block matrices, and the two
marginals.  A label reduction labels each block matrix with one array call
(a level decoder, for the decomposition), numbers the label groups the same
way, and takes every group's mass, past, future and joint entropy from
sorted per-group runs.  A triple-information event is one array predicate
over the past and future block matrices of every entry.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .intervals import Enclosure, Interval, binary_entropy
from .models import Kind, ProcessModel
from .series import level_weight, level_weight_fsum, squared_level_tail

MIN_ENTRY_MASS = 1e-30
MIN_LEVEL_CUTOFF = 2

DEFAULT_PATH_BUDGET = 100_000_000
DEFAULT_ENTRY_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """Raised when enumeration would exceed its path or entry budget."""


class LabelDisagreementError(ValueError):
    """A conditioning label computed from the past block disagreed with the
    value computed from the future block on a positive-mass entry; this
    signals a broken decoder, never a valid table."""


@dataclass(frozen=True)
class TableProfile:
    """A table's entries as arrays.  Block ids number the distinct past (and
    future) blocks in order of first appearance among the entries; row i of
    `past_blocks` is the block with id i, and `past_mass[i]` its marginal
    mass, summed in table order."""

    masses: np.ndarray
    past: np.ndarray
    future: np.ndarray
    past_blocks: np.ndarray
    future_blocks: np.ndarray
    past_mass: np.ndarray
    future_mass: np.ndarray


@dataclass(frozen=True, eq=False)
class JointBlockTable:
    """Finite joint law of (past, future) blocks plus unassigned-mass tracking.

    Entries are two arrays in table order: row i of `keys` is the past block
    then the future block, n symbols each, all below `alphabet_size`, and
    `masses[i]` its mass; no key repeats.  `pruned_mass` encloses the true
    probability that the table does not represent; `entry_slack` bounds
    sum_k |true_k - stored_k| over keys.

    A table is never mutated after it is built: the arrays are made
    read-only, and `entries`, `profile`, `block_mi` and the assigned mass are
    computed on first use and cached, so every reduction reads the same ones.
    """

    n: int
    alphabet_size: int
    keys: np.ndarray
    masses: np.ndarray
    pruned_mass: Interval
    entry_slack: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.keys.flags.writeable = False
        self.masses.flags.writeable = False

    @cached_property
    def entries(self) -> Mapping[tuple[bytes, bytes], float]:
        """The entries as a read-only (past, future) -> mass mapping, in
        table order, built from the arrays on first use."""
        n = self.n
        pairs = zip(map(bytes, self.keys[:, :n]), map(bytes, self.keys[:, n:]))
        return MappingProxyType(dict(zip(pairs, self.masses.tolist())))

    def assigned_mass(self) -> float:
        return self._assigned_mass

    @cached_property
    def _assigned_mass(self) -> float:
        return math.fsum(self.masses.tolist())

    def conservation_interval(self) -> Interval:
        """Interval that must contain 1 if the table conserved probability."""
        total = self.assigned_mass()
        slack = self.entry_slack + 1e-12 * max(1, len(self.masses))
        return Interval(total + self.pruned_mass.lo - slack, total + self.pruned_mass.hi + slack)

    def past_marginal(self) -> dict[bytes, float]:
        prof = self.profile
        return dict(zip(map(bytes, prof.past_blocks), prof.past_mass.tolist()))

    def future_marginal(self) -> dict[bytes, float]:
        prof = self.profile
        return dict(zip(map(bytes, prof.future_blocks), prof.future_mass.tolist()))

    @cached_property
    def profile(self) -> TableProfile:
        """The entries numbered, with no Python loop over them: each half of
        the key matrix is numbered by `_number_blocks`, and each marginal is
        an np.bincount, which adds in table order.  The arrays are
        read-only, since every caller shares them."""
        keys, masses, n = self.keys, self.masses, self.n
        past, past_first = _number_blocks(keys[:, :n])
        future, future_first = _number_blocks(keys[:, n:])
        arrays = (
            masses,
            past,
            future,
            keys[past_first, :n],
            keys[future_first, n:],
            np.bincount(past, masses, len(past_first)),
            np.bincount(future, masses, len(future_first)),
        )
        for a in arrays:
            a.flags.writeable = False
        return TableProfile(*arrays)

    @cached_property
    def _block_mi(self) -> tuple[Enclosure, float]:
        """`block_mi` and its half-width, cached: verify and the
        decomposition ask for it again, and the decomposition adds to it."""
        prof = self.profile
        h_past, past_err = _table_entropy(self, prof.past_mass, 1)
        h_future, future_err = _table_entropy(self, prof.future_mass, 1)
        h_joint, joint_err = _table_entropy(self, prof.masses, 2)
        err = past_err + future_err + joint_err
        return Enclosure.around(h_past + h_future - h_joint, err), err


def _number_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of the (k, n) matrix of symbols 0..3 by
    `_first_appearance`: the id of every row, and the index of each distinct
    row by id.  The one block numbering of the table profile, the estimator
    and the decoder check.  Each run of 8 symbols, one per byte of a uint64
    word, is packed in place into its low 16 bits, 2 bits per symbol, read 4
    words to a code: one code per row for n <= 32, else a row of codes.  A
    symbol above 3 would collide, so callers reject them."""
    count, n = blocks.shape
    words = -(-n // 8)
    x = np.zeros((count, words * 8), np.uint8)
    x[:, :n] = blocks
    x = x.view(np.uint64)
    for shift, mask in ((6, 0x000F000F000F000F), (12, 0x000000FF000000FF), (24, 0xFFFF)):
        x |= x >> np.uint64(shift)
        x &= np.uint64(mask)
    if words > 1:
        codes = np.zeros((count, -(-words // 4) * 4), np.uint16)
        codes[:, :words] = x
        x = codes.view(np.uint64)
    return _first_appearance(x[:, 0] if x.shape[1] == 1 else x)


def _packed_sort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The vector sorted and its stable order, by one np.sort of value << b | index, b the
    last index's bit length; None unless the values are integers >= 0 below 2**(64 - b)."""
    bits = max(len(values) - 1, 0).bit_length()
    fits = values.dtype.kind in "iu" and len(values) and values.min() >= 0
    if not fits or int(values.max()).bit_length() + bits > 64:
        return None
    keys = values.astype(np.uint64) << np.uint64(bits) | np.arange(len(values), dtype=np.uint64)
    keys.sort()
    return keys >> np.uint64(bits), (keys & np.uint64((1 << bits) - 1)).view(np.int64)


def _stable_order(values: np.ndarray) -> np.ndarray:
    """np.argsort(values, kind="stable"), by `_packed_sort` when it fits."""
    packed = _packed_sort(values)
    return np.argsort(values, kind="stable") if packed is None else packed[1]


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values in order of first appearance.  Returns the
    id of every value and, by id, the index where each first appears.  The
    values are a vector of any dtype np.argsort sorts, or a matrix whose
    rows are the values.  A run of equal sorted values first appears at its
    smallest index: its head, when `_packed_sort` sorted it stably."""
    packed = _packed_sort(values) if values.ndim == 1 else None
    if packed is None:
        order = np.argsort(values) if values.ndim == 1 else np.lexsort(values.T)
        ranked = values[order]
    else:
        ranked, order = packed
    differ = ranked[1:] != ranked[:-1]
    new = np.ones(len(values), bool)
    new[1:] = differ if differ.ndim == 1 else differ.any(1)
    runs = np.flatnonzero(new)
    heads = np.minimum.reduceat(order, runs) if packed is None and len(values) else order[runs]
    del packed, ranked, differ, new  # before the N-length arrays below
    seen = np.zeros(len(values), bool)
    seen[heads] = True
    first = np.flatnonzero(seen)
    ids = np.empty(len(values), np.intp)
    ids[first] = np.arange(len(first))  # each first appearance's id, until overwritten
    ids[order] = np.repeat(ids[heads], np.diff(runs, append=len(values)))
    return ids, first


def _spans(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, t) for every t in 0..sizes[i]-1, i ascending: the index pairs of
    consecutive spans of these sizes laid end to end."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]


def enumerate_joint(
    model: ProcessModel,
    n: int,
    level_cutoff: int,
    prune_eps: float = 0.0,
    *,
    tail_aggregation: bool = False,
    path_budget: int = DEFAULT_PATH_BUDGET,
    entry_budget: int = DEFAULT_ENTRY_BUDGET,
) -> JointBlockTable:
    """Materialise the joint (past, future) block law at block length n.

    `level_cutoff` truncates the level support (cyclic kinds) or the branch
    fan-out (ergodic kind); the discarded mass is accounted in
    `pruned_mass`, never silently renormalized.  `prune_eps` drops ergodic
    paths whose probability falls below it.  For the first kind a window of
    a level m >= 2n holds at most one non-zero symbol, so those levels
    collapse into 2n+1 keys: the 2n single-marker windows and the all-zero
    one.  `tail_aggregation` (first kind only) gives those keys the bracketed
    masses of every level m >= 2n in closed form: the table covers the full
    support and ignores `level_cutoff`.

    `path_budget` (ergodic kind) bounds the nodes of the path tree: one per
    seed (level, phase) and one per branch kept after a word boundary,
    counted alike whether the subtree is expanded or taken from the
    completion cache.  `entry_budget` bounds the table's keys and, for the
    ergodic kind, each cached suffix table; the ergodic table's keys are
    counted after each merge of its rows, so memory stays within the budget
    plus one chunk of rows.  Exceeding either raises
    `BudgetExceededError` naming the kind, alpha, n, `level_cutoff` (or
    `tail_aggregation`, which ignores it) and, when it prunes, `prune_eps`.
    """
    where = f"{model.kind.value} alpha={model.alpha} n={n}: "
    if n < 1:
        raise ValueError(f"{where}block length must be >= 1, got {n}")
    if level_cutoff < MIN_LEVEL_CUTOFF:
        raise ValueError(f"{where}level cutoff must be >= {MIN_LEVEL_CUTOFF}, got {level_cutoff}")
    if not 0.0 <= prune_eps < 1.0:
        raise ValueError(f"{where}prune threshold must lie in [0, 1), got {prune_eps}")
    if tail_aggregation:
        if model.kind is not Kind.HPM1:
            raise ValueError(
                f"{where}tail aggregation applies to the single-marker cyclic kind only"
            )
        if model.fixed_level is not None:
            raise ValueError(f"{where}tail aggregation needs the full heavy-tailed level law")
    meta = {
        "kind": model.kind.value,
        "alpha": model.alpha,
        "series_cutoff": model.series_cutoff,
        "n": n,
        "level_cutoff": level_cutoff,
        "prune_eps": prune_eps,
        "tail_aggregation": tail_aggregation,
        "fixed_level": model.fixed_level,
    }
    alphabet_size = len(model.alphabet)
    if model.kind is not Kind.HMC:
        arrays = _enumerate_cyclic(model, n, level_cutoff, entry_budget, tail_aggregation)
        return _retained_table(JointBlockTable(n, alphabet_size, *arrays, meta))
    keys, masses, pruned, slack_rate = _enumerate_hmc(
        model, n, level_cutoff, prune_eps, path_budget, entry_budget
    )
    # The slack is a share of the assigned mass, so the table caches that
    # one fsum, unless `_retained_table` drops an entry and sums afresh.
    total = math.fsum(masses.tolist())
    table = JointBlockTable(n, alphabet_size, keys, masses, pruned, slack_rate * total, meta)
    vars(table)["_assigned_mass"] = total
    return _retained_table(table)


def _retained_table(table: JointBlockTable) -> JointBlockTable:
    """`table` less its entries below MIN_ENTRY_MASS: a mask drops their
    rows, and their mass joins the pruned mass, before any reduction reads
    the table."""
    tiny = table.masses < MIN_ENTRY_MASS
    if not tiny.any():
        return table
    keep = ~tiny
    return replace(
        table,
        keys=table.keys[keep],
        masses=table.masses[keep],
        pruned_mass=table.pruned_mass + Interval.point(math.fsum(table.masses[tiny].tolist())),
    )


def _input_label(model: ProcessModel, n: int, level_cutoff: int | None, prune_eps: float = 0.0) -> str:
    """The input a budget error names: tail aggregation for no cutoff, `prune_eps` if > 0."""
    cut = f"level_cutoff={level_cutoff}" if level_cutoff else "tail_aggregation=True"
    label = f"kind={model.kind.value}, alpha={model.alpha}, n={n}, {cut}"
    return f"{label}, prune_eps={prune_eps}" if prune_eps > 0.0 else label


def _check_entries(count: int, entry_budget: int, label: str) -> None:
    """Stop a table build whose `count` distinct keys exceed the budget."""
    if count > entry_budget:
        raise BudgetExceededError(f"table exceeded entry budget {entry_budget} ({label})")


def _levels(model: ProcessModel, level_cutoff: int) -> Sequence[int]:
    if model.fixed_level is not None:
        return [model.fixed_level] if model.fixed_level <= level_cutoff else []
    return range(2, level_cutoff + 1)


def _enumerate_cyclic(
    model: ProcessModel, n: int, level_cutoff: int, entry_budget: int, aggregate: bool
) -> tuple[np.ndarray, np.ndarray, Interval, float]:
    length = 2 * n
    hpm1 = model.kind is Kind.HPM1
    c_iv = model.norm_c
    c_relw = 0.0 if model.fixed_level is not None else c_iv.width / c_iv.mid
    label = _input_label(model, n, None if aggregate else level_cutoff)
    levels = range(2, length) if aggregate else _levels(model, level_cutoff)
    # hpm1 levels m >= 2n: a window sees at most one marker, so each such
    # level adds P/m to every one of the 2n single-marker keys and the rest of
    # its cycle to the all-zero key.  Every other level adds rows.
    split = bisect.bisect_left(levels, length) if hpm1 else len(levels)
    row_levels, marker_levels = levels[:split], levels[split:]
    empty = np.zeros(0, np.intp) if hpm1 else np.zeros((0, length), np.uint8)
    repeating = _Repeating(_first_appearance if hpm1 else _number_blocks, empty)
    unique_keys = [np.zeros((0, length), np.uint8)]
    unique_masses, unique_rows = [np.zeros(0)], [np.zeros(0, np.intp)]
    unique = rows = 0
    assigned = 0.0

    # Levels in chunks of at most `chunk` rows, each merged before the next
    # is built, so memory stays within the budget plus one chunk.
    chunk = max(1, min(entry_budget, 1 << 20))
    step = max(1, chunk // model.phase_count(row_levels[-1])) if row_levels else 1
    for lo in range(0, len(row_levels), step):
        chunk_levels = row_levels[lo : lo + step]
        level_masses = _level_masses(model, chunk_levels)
        assigned = _running_sum(assigned, level_masses)
        (keys, masses, at), (codes, repeat_masses, repeat_at), count = _cyclic_rows(
            model, chunk_levels, level_masses, length
        )
        unique_keys.append(keys)
        unique_masses.append(masses)
        unique_rows.append(rows + at)
        unique += len(masses)
        repeating.add(codes, repeat_masses, rows + repeat_at)
        rows += count
        _check_entries(unique + len(repeating.masses), entry_budget, label)
    marker = zero = 0.0
    for lo in range(0, len(marker_levels), 1 << 20):
        chunk_levels = marker_levels[lo : lo + (1 << 20)]
        level_masses = _level_masses(model, chunk_levels)
        assigned = _running_sum(assigned, level_masses)
        periods = np.array(chunk_levels, np.float64)
        gaps = np.array([m - length for m in chunk_levels], np.float64)
        marker = _running_sum(marker, level_masses / periods)
        zero = _running_sum(zero, level_masses * gaps / periods)
    slack = 0.5 * c_relw * assigned
    if aggregate:
        # Every level m >= 2n at once: the marker mass is C times the squared
        # level tail, and the zero mass is what those levels leave over.
        marker_iv = c_iv * squared_level_tail(model.alpha, length)
        short = level_weight_fsum(model.alpha, 2, length - 1)
        zero_iv = ((1.0 - c_iv * short) - float(length) * marker_iv).clamp(0.0, 1.0)
        marker, zero = marker_iv.mid, zero_iv.mid
        slack += 0.5 * (length * marker_iv.width + zero_iv.width)
    if marker:  # some level m >= 2n contributed
        # Marker positions 0..2n-1, then the all-zero key as position 2n.
        masses = np.full(length + 1, marker)
        masses[length] = zero
        repeating.add(np.arange(length + 1), masses, rows + np.arange(length + 1))
        _check_entries(unique + len(repeating.masses), entry_budget, label)
    pruned = Interval.point(0.0) if aggregate else model.level_tail_mass(level_cutoff)
    repeat_keys = repeating.codes
    if hpm1:
        repeat_keys = (repeat_keys[:, None] == np.arange(length)).view(np.uint8)
    # Keys in order of their first row: each numbered key goes in before the
    # first unique row that comes after its first row.
    at = np.searchsorted(np.concatenate(unique_rows), repeating.first)
    keys = np.insert(np.concatenate(unique_keys), at, repeat_keys, axis=0)
    masses = np.insert(np.concatenate(unique_masses), at, repeating.masses)
    return keys, masses, pruned, slack


def _level_masses(model: ProcessModel, levels: Sequence[int], lens=None) -> np.ndarray:
    """P(N = m), the midpoint of C times w(m) as `Interval.mid` rounds it,
    or given the hmc word lengths r(m), P(N = m) / r(m) and p(m), the
    midpoint of D times w(m) / r(m), from one w(m) per level by
    `level_weight` (np.log2 and np.power may differ by an ulp); under a
    fixed level, ones, or 1 / r(m) and ones."""
    if model.fixed_level is not None:
        ones = np.ones(len(levels))
        return ones if lens is None else np.stack([ones / lens, ones])
    w = np.fromiter((level_weight(m, model.alpha) for m in levels), np.float64, len(levels))
    c = model.norm_c
    masses = 0.5 * (c.lo * w + c.hi * w)
    if lens is None:
        return masses
    d, w = model.norm_d, w / lens
    return np.stack([masses / lens, 0.5 * (d.lo * w + d.hi * w)])


def _running_sum(total: float, values: np.ndarray) -> float:
    """`total` plus each value in turn, left to right, as a loop of += adds:
    np.cumsum adds in order, where np.sum adds pairwise and the builtin sum
    compensates from Python 3.12."""
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


def _emission_words(model: ProcessModel, levels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row i is `emission_word(levels[i])`, zeros after it to the longest
    word, and the word lengths, which are r(m)."""
    words = list(map(model.emission_word, levels))
    lens = np.fromiter(map(len, words), np.intp, len(words))
    padded = np.zeros((len(words), lens.max(initial=0)), np.uint8)
    padded[np.arange(padded.shape[1]) < lens[:, None]] = np.frombuffer(b"".join(words), np.uint8)
    return padded, lens


def _cyclic_rows(
    model: ProcessModel, levels: Sequence[int], level_masses: np.ndarray, length: int
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], int]:
    """The windows of every (level, phase) of `levels`, level-major, each of
    mass level_mass / r, as (unique, repeating, count), row indices counted
    from the first row: the key matrix, masses and row indices of the rows
    that show the marker (hpm1) or delimiter (hpm2) twice or more, each a
    key of its own since the gap gives the level and the position the
    phase; the codes, masses and row indices of the others, which can
    repeat (an hpm1 code is the marker position, an hpm2 code the key row);
    and the row count.

    Both kinds take one matrix: row i is level i's cycle, its padded
    `emission_word` read at t mod r for t below the longest r plus 2n - 1,
    and only the kept windows are copied out of its sliding view.  The
    symbol sits at phase r - 1 (hpm1) or 0 (hpm2), so phase k shows it first
    at (that phase - k) mod r, and twice when r more symbols still fit."""
    hpm1 = model.kind is Kind.HPM1
    words, r = _emission_words(model, levels)
    # Flat int32 indices: a chunk's padded words hold at most 2**20 symbols
    # (its rows over its longest r), or one word.
    width = words.shape[1]
    at = np.arange(width + length - 1, dtype=np.int32) % r[:, None].astype(np.int32)
    at += np.arange(0, words.size, width, dtype=np.int32)[:, None]
    ext = words.take(at)
    symbol_at = r - 1 if hpm1 else np.zeros_like(r)
    level_of, phase = _spans(r)
    period = r[level_of]
    first = (symbol_at[level_of] - phase) % period
    masses = np.repeat(level_masses / r, r)
    windows = np.lib.stride_tricks.sliding_window_view(ext, length, axis=1)
    multi = length - 1 - first >= period
    kept, other = np.flatnonzero(multi), np.flatnonzero(~multi)
    codes = first[other] if hpm1 else windows[level_of[other], phase[other]]
    return (
        (windows[level_of[kept], phase[kept]], masses[kept], kept),
        (codes, masses[other], other),
        len(level_of),
    )


class _Repeating:
    """Rows that can repeat, merged into distinct codes in order of first
    appearance: each code's mass summed in row order from 0.0 (an in-order
    np.bincount, as a dict of running sums would add) and, for rows added
    with their indices, the index of its first row.  `number` is
    `_first_appearance` for a code vector or `_number_blocks` for key rows.

    Rows wait until `chunk` of them have come, or until `merge`.  A merge
    numbers the codes so far together with the waiting rows, running codes
    first, which keeps the order and the bits wherever the merges fall."""

    def __init__(self, number: Callable, codes: np.ndarray, chunk: int = 1) -> None:
        self._number, self._chunk, self._waiting, self._count = number, chunk, [], 0
        self.codes, self.masses, self.first = codes, np.zeros(0), np.zeros(0, np.intp)

    def add(self, codes: np.ndarray, masses: np.ndarray, rows: np.ndarray | None = None) -> None:
        self._waiting.append((codes, masses, rows))
        self._count += len(masses)
        if self._count >= self._chunk:
            self.merge()

    def merge(self) -> None:
        if not self._count:
            return
        codes, masses, rows = zip(*self._waiting)
        self._waiting, self._count = [], 0
        codes = np.concatenate([self.codes, *codes])
        masses = np.concatenate([self.masses, *masses])
        rows = None if rows[0] is None else np.concatenate([self.first, *rows])
        ids, first = self._number(codes)
        self.codes = codes[first]
        self.masses = np.bincount(ids, masses, len(first))
        self.first = self.first if rows is None else rows[first]


def _enumerate_hmc(
    model: ProcessModel,
    n: int,
    level_cutoff: int,
    prune_eps: float,
    path_budget: int,
    entry_budget: int,
) -> tuple[np.ndarray, np.ndarray, Interval, float]:
    length = 2 * n
    label = _input_label(model, n, level_cutoff, prune_eps)
    fixed = model.fixed_level is not None
    levels = [model.fixed_level] if fixed else range(2, level_cutoff + 1)
    # Row i is level i's word, then zeros to read 2n symbols from any phase.
    symbols, lens = _emission_words(model, levels)
    symbols = np.pad(symbols, ((0, 0), (0, length)))
    seed_masses, branch_p = _level_masses(model, levels, lens)
    if fixed:
        branch_tail = seed_tail = Interval.point(0.0)
        relw = 0.0
    else:
        branch_tail = model.branch_tail_mass(level_cutoff)
        seed_tail = model.level_tail_mass(level_cutoff)
        # Each path multiplies one stationary weight and at most 2n branch
        # weights, so the constant enclosures enter with these multipliers.
        relw = model.norm_c.width / model.norm_c.mid + length * (
            model.norm_d.width / model.norm_d.mid
        )
    width = -(-length // 8) * 8  # a node's row, padded to whole uint64 words
    # Branches by falling probability, each with the summed probability of
    # itself and every later branch.  prob * b is then falling along them
    # too (rounding is monotone), so a boundary keeps a leading run of them.
    by_p = np.argsort(-branch_p, kind="stable")
    b = branch_p[by_p]
    rests = np.cumsum(b[::-1])[::-1]
    branch_lens = lens[by_p]
    # Row s * len(b) + r holds branch r's word from symbol s on, zeros
    # elsewhere: OR'd onto the row of a node that has emitted s symbols, it
    # gives the row of that node's child by branch r.
    placed = np.zeros((length, len(b), width), np.uint8)
    for s in range(length):
        placed[s, :, s:length] = symbols[by_p, : length - s]
    placed = placed.reshape(-1, width).view(np.uint64)
    branches = [(symbols[i, : lens[i]].tobytes(), q) for i, q in zip(by_p.tolist(), b.tolist())]

    # After a word boundary the rest of a window depends only on how many
    # symbols it still needs, so each such subtree is summarised once per
    # `need`, from the summaries of the shorter needs below it, with every
    # branch probability q relative to the boundary: how many nodes it holds
    # below its root, the summed q of its word boundaries (the root
    # included) and the smallest q of a leaf.  Index 0 is unused.
    pushes, internal_q, q_min = [0], [0.0], [1.0]
    for need in range(1, length):
        nodes, inner, least = len(branches), 1.0, math.inf
        for word, q in branches:
            sub = need - len(word)
            if sub <= 0:
                least = min(least, q)
            else:
                nodes += pushes[sub]
                inner += q * internal_q[sub]
                least = min(least, q * q_min[sub])
        pushes.append(nodes)
        internal_q.append(inner)
        q_min.append(least)

    @cache
    def suffixes(need: int) -> dict[bytes, float]:
        """Each suffix of the subtree, truncated to `need` symbols, with its
        summed q."""
        out: dict[bytes, float] = {}
        for word, q in branches:
            if len(word) >= need:
                s = word[:need]
                out[s] = out.get(s, 0.0) + q
            else:
                for s, q2 in suffixes(need - len(word)).items():
                    s = word + s
                    out[s] = out.get(s, 0.0) + q * q2
            if len(out) > entry_budget:
                raise BudgetExceededError(
                    f"completion table for {need} symbols exceeded entry budget "
                    f"{entry_budget} ({label})"
                )
        return out

    # Rows merge in chunks, the keys held to the budget after each merge, so
    # memory stays within the budget plus one chunk.
    chunk = max(1, min(entry_budget, 1 << 20))
    table = _Repeating(_number_blocks, np.zeros((0, length), np.uint8), chunk)
    gate = prune_eps * (1.0 + 1e-12)
    step = max(1, chunk // len(b))
    tail = np.array([branch_tail.lo, branch_tail.hi])
    nodes = 0

    def count(more: int) -> None:
        nonlocal nodes
        nodes += more
        if nodes > path_budget:
            raise BudgetExceededError(f"path budget {path_budget} exceeded ({label})")

    def walk() -> list[np.ndarray]:
        """The walk from the seeds, one depth at a time: the rows and
        probabilities of its leaves, the rows, symbol counts and
        probabilities of its cached boundaries, and its pruned-mass
        additions as (lo, hi) pairs, depth after depth in the order it makes
        them.  Its per-depth arrays go when it returns, before the merge's
        peak."""
        # Depth 0 holds the seeds, one per (level, phase) in level order,
        # which are never pruned.  A node is the row of its first 2n symbols
        # (zeros past `filled`, read as uint64 words), how many of them its
        # path has emitted and its sequential path probability.
        level, phase = _spans(lens)
        rows = np.zeros((len(level), width), np.uint8)
        rows[:, :length] = symbols[level[:, None], phase[:, None] + np.arange(length)]
        rows, filled = rows.view(np.uint64), np.minimum(lens[level] - phase, length)
        probs = seed_masses[level]
        count(len(probs))
        leaves, hits, additions = [], [], []
        while len(probs):
            open_ = np.flatnonzero(filled < length)
            need = length - filled[open_]
            # The whole subtree comes from the cache when even its least
            # likely leaf clears the threshold, with room for the rounding of
            # a product taken in another order; otherwise the boundary
            # expands.
            gated = probs[open_] * np.array(q_min)[need] >= gate
            count(sum(pushes[k] for k in need[gated].tolist()))
            leaf, hit, expand = np.flatnonzero(filled == length), open_[gated], open_[~gated]
            leaves.append((rows.take(leaf, 0), probs[leaf]))
            hits.append((rows.take(hit, 0), filled[hit], probs[hit]))
            # An expanded boundary keeps each branch whose sequential product
            # clears the threshold; its children are the next depth.
            # Boundaries go in chunks of at most `chunk` candidates.
            kids = [(rows[:0], filled[:0], probs[:0], expand[:0])]
            for lo in range(0, len(expand), step):
                at = expand[lo : lo + step]
                k = np.count_nonzero(probs[at, None] * b >= prune_eps, axis=1)
                count(int(k.sum()))
                parent, rank = _spans(k)
                parent = at[parent]
                start = filled[parent]
                child = rows.take(parent, 0) | placed.take(start * len(b) + rank, 0)
                reach = np.minimum(start + branch_lens[rank], length)
                kids.append((child, reach, probs[parent] * b[rank], k))
            p = probs[expand]
            rows, filled, probs, kept = (np.concatenate(a) for a in zip(*kids))
            # prob * tail at each expanded boundary, and prob * the rest from
            # its first pruned branch on.
            cut = kept < len(b)
            additions += [p[:, None] * tail, (p[cut] * rests[kept[cut]])[:, None].repeat(2, 1)]
        return [np.concatenate(a) for g in (zip(*leaves), zip(*hits), [additions]) for a in g]

    leaf_rows, leaf_probs, prefix_rows, prefix_lens, prefix_probs, walked = walk()
    # Word boundaries whose whole subtree comes from the cache, by the path
    # that reaches them: each distinct (prefix, symbol count) with its summed
    # path probability, in the walk's order.
    prefix_ids = _number_blocks(prefix_rows.view(np.uint8)[:, :length])[0]
    ids, first = _first_appearance(prefix_ids * (length + 1) + prefix_lens)
    prefix_probs = np.bincount(ids, prefix_probs, len(first))
    prefix_rows, prefix_lens = prefix_rows[first], prefix_lens[first]
    # The pruned mass (lo, hi) added in one order: the walk's additions, then
    # the level tail, then, per cached boundary, the tail below each word
    # boundary of its subtree.  np.cumsum adds in order.
    internal = prefix_probs * np.array(internal_q)[length - prefix_lens]
    added = (walked, [[seed_tail.lo, seed_tail.hi]], internal[:, None] * tail)
    pruned = Interval(*np.cumsum(np.concatenate(added), axis=0)[-1].tolist())
    # The leaves go to the merge in chunks of views, and only the views hold
    # them, so the merge drops them as it sums them.
    leaf_rows = leaf_rows.view(np.uint8)[:, :length]
    for lo in range(0, len(leaf_probs), chunk):
        table.add(leaf_rows[lo : lo + chunk], leaf_probs[lo : lo + chunk])
        _check_entries(len(table.masses), entry_budget, label)
    del leaf_rows, leaf_probs
    for block in _cached_rows(prefix_rows, prefix_lens, prefix_probs, suffixes, length, chunk):
        table.add(*block)
        _check_entries(len(table.masses), entry_budget, label)
    table.merge()
    _check_entries(len(table.masses), entry_budget, label)
    return table.codes, table.masses, pruned.clamp(0.0, 1.0), 0.5 * relw


def _cached_rows(
    rows: np.ndarray,
    lens: np.ndarray,
    probs: np.ndarray,
    suffixes: Callable[[int], dict[bytes, float]],
    length: int,
    chunk: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows of every cached boundary combined with its suffix table, as
    (key matrix, mass vector) blocks of about `chunk` rows.  Boundary i is
    the prefix of lens[i] symbols in rows[i], a window of `length` symbols
    in whole uint64 words, zeros past the prefix, of path probability
    probs[i]; boundaries go in order, each with its suffixes in table
    order, and each mass is prob * q.

    Each suffix table becomes rows of that layout once, suffix last and
    zeros before, so a key is a prefix row OR'd with a suffix row, as the
    walk places its branches.  Every suffix table is built before the first
    block, so an over-budget one stops the run before any cached row is
    combined."""
    need_of = length - lens
    needs = np.unique(need_of).tolist()
    tables = [suffixes(need) for need in needs]
    # The suffix tables one after another, by remaining length.
    sizes = np.zeros(length + 1, np.intp)
    sizes[needs] = [len(t) for t in tables]
    offsets = np.cumsum(sizes) - sizes
    placed = np.zeros((int(sizes.sum()), rows.shape[1] * 8), np.uint8)
    q = np.empty(len(placed))
    for need, table, at in zip(needs, tables, offsets[needs].tolist()):
        block = np.frombuffer(b"".join(table), np.uint8).reshape(len(table), need)
        placed[at : at + len(table), length - need : length] = block
        q[at : at + len(table)] = np.fromiter(table.values(), np.float64, len(table))
    placed = placed.view(np.uint64)
    counts = sizes[need_of]
    ends = np.cumsum(counts)
    # Output row t of boundary i takes suffix row t + shift[i].
    shift = offsets[need_of] - (ends - counts)
    start = 0
    while start < len(rows):
        base = int(ends[start] - counts[start])
        stop = max(start + 1, int(np.searchsorted(ends, base + chunk, "right")))
        prefix = np.repeat(np.arange(start, stop), counts[start:stop])
        suffix = np.arange(base, int(ends[stop - 1])) + shift[prefix]
        keys = rows.take(prefix, 0) | placed.take(suffix, 0)
        yield keys.view(np.uint8)[:, :length], probs[prefix] * q[suffix]
        start = stop


# ----- information quantities ------------------------------------------------


def _entropy(weights: np.ndarray, total: float) -> float:
    """Plug-in entropy of the positive weights, each divided by `total`."""
    p = weights[weights > 0.0] / total
    return float(-np.sum(p * np.log2(p)))


def _runs(group: np.ndarray, values: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`values` stably sorted by group id, and the length of each group's run."""
    return values[_stable_order(group)], np.bincount(group, minlength=count)


def _grouped_entropy(m: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Plug-in entropy of each group's masses, renormalized within the group,
    from the `_runs` of the masses.

    Every group must be non-empty.  Each group's run is summed pairwise
    (np.add.reduceat), as `_entropy` sums a whole table."""
    starts = np.cumsum(lengths) - lengths
    q = m / np.repeat(np.add.reduceat(m, starts), lengths)
    return -np.add.reduceat(q * np.log2(q), starts)


def _marginals_mi(masses: np.ndarray, past_masses: np.ndarray, future_masses: np.ndarray) -> float:
    """Plug-in I(past; future) of the atoms with these masses, renormalized
    by their total, from the summed masses of each past and future block.
    A zero mass, such as a block that lies only on the other side of a
    `_triple_informations` event, leaves the value unchanged."""
    total = float(np.sum(masses))
    if total <= 0.0:
        return 0.0
    return _entropy(past_masses, total) + _entropy(future_masses, total) - _entropy(masses, total)


def _mixture_bound(delta: float, support_log2: float) -> float:
    """delta*log2(support) + h(delta): a law that is a (1-delta)/delta mixture
    of a retained part and a remainder on at most `support` atoms has an
    entropy within this of the retained part's, in both directions."""
    delta = min(max(delta, 0.0), 1.0)
    return delta * support_log2 + binary_entropy(delta)


def _table_entropy(
    table: JointBlockTable, masses: list[float] | np.ndarray, blocks: int
) -> tuple[float, float]:
    """Certified entropy of subnormalized masses on keys of `blocks` blocks
    of n symbols (two: the table's own), as (value, half-width): the plug-in
    entropy of the renormalized masses, off by at most `_mixture_bound` of
    the unassigned mass plus the slack of the stored masses times the worst
    slope of -q*log2(q) above the smallest retained atom."""
    arr = np.asarray(masses, dtype=np.float64)
    value = _entropy(arr, float(np.sum(arr)))
    err = _mixture_bound(table.pruned_mass.hi, blocks * table.n * math.log2(table.alphabet_size))
    if table.entry_slack > 0.0 and arr.size:
        total = table.assigned_mass() if blocks == 2 else math.fsum(arr.tolist())
        q_min = float(np.min(arr)) / total
        slope = (max(0.0, -math.log(q_min)) + 1.0) / math.log(2.0)
        err += slope * 2.0 * table.entry_slack / total
    return value, err


def block_mi(table: JointBlockTable) -> Enclosure:
    """Certified block mutual information H(past) + H(future) - H(joint) of
    the renormalized table in bits, cached on the table as its profile is.
    The pruned mass enters the enclosure, never the value."""
    return table._block_mi[0]


def _label_profile(
    table: JointBlockTable, past_label: Callable, future_label: Callable | None
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray], list[float], tuple[float, float]]:
    """One labelling pass: the group id of every entry, past block and future
    block, the `_runs` of the entry masses by group, the group masses and the
    certified label entropy as (value, half-width).

    A labeller takes the (k, n) uint8 matrix of the distinct past (or
    future) blocks, as the profile holds it, and returns one label per row,
    of any dtype np.argsort sorts.  Groups are numbered in order of first
    appearance among the past then the future blocks, and each group mass
    is an exact (math.fsum) sum of its entries."""
    if future_label is None:
        future_label = past_label
    prof = table.profile
    past_z, future_z = past_label(prof.past_blocks), future_label(prof.future_blocks)
    group, first = _first_appearance(np.concatenate([past_z, future_z]))
    past_group, future_group = np.split(group, [len(past_z)])
    entry_group = past_group[prof.past]
    bad = np.flatnonzero(entry_group != future_group[prof.future])
    if bad.size:
        p, f = prof.past[bad[0]], prof.future[bad[0]]
        raise LabelDisagreementError(
            f"label mismatch on entry past={prof.past_blocks[p].tolist()} "
            f"future={prof.future_blocks[f].tolist()}: "
            f"past-computed {past_z[p]} vs future-computed {future_z[f]}"
        )
    runs = _runs(entry_group, prof.masses, len(first))
    bounds = [0] + np.cumsum(runs[1]).tolist()
    ordered = runs[0].tolist()
    masses = [math.fsum(ordered[a:b]) for a, b in zip(bounds, bounds[1:])]
    return (entry_group, past_group, future_group), runs, masses, _table_entropy(table, masses, 1)


def _label_decomposition(
    table: JointBlockTable, past_label: Callable, future_label: Callable | None
) -> tuple[Enclosure, Enclosure, Enclosure]:
    """block_mi, H(label) and I(past; future | label) from one labelling
    pass.

    A past block has exactly one label, and so has a future block, so each
    group's past and future laws are the global marginals restricted to the
    blocks of that label."""
    (_, past_group, future_group), entry_runs, masses, (h, h_err) = _label_profile(
        table, past_label, future_label
    )
    e, e_err = table._block_mi
    h_label = Enclosure.around(h, h_err)
    total = table.assigned_mass()
    if total <= 0.0:
        return e, h_label, Enclosure(0.0, 0.0, 0.0)
    prof = table.profile
    count = len(masses)
    mis = (
        _grouped_entropy(*_runs(past_group, prof.past_mass, count))
        + _grouped_entropy(*_runs(future_group, prof.future_mass, count))
        - _grouped_entropy(*entry_runs)
    )
    value = math.fsum(((np.asarray(masses) / total) * mis).tolist())
    return e, h_label, Enclosure.around(value, e_err + h_err)


def _triple_informations(
    table: JointBlockTable, events: list[Callable]
) -> list[tuple[float, float, bool]]:
    """I(past; future; 1_B), P(B) and whether each block alone fixes B, on
    the renormalized table, for each event B.  An event takes the per-entry
    past and future block matrices (row i is entry i's key) and returns one
    bool per entry; each is called once.  The plug-in MI of the whole table
    is taken once.

    Per event, the past marginals of both sides come from one np.bincount
    over (side, past id), and the future ones likewise; its bins add in
    table order, as a bincount of each side alone would.  Each side's MI is
    `_marginals_mi` of its masses, and P(B) is the inside total, a pairwise
    np.sum, over the table's fsum total.  B is fixed by each block alone when
    no past block and no future block of positive mass lies on both sides;
    then |I(past; future; 1_B)| = H(1_B) exactly.  An event that holds on
    every entry, or on none, is exactly (0.0, 1.0, True) or (0.0, 0.0,
    True)."""
    prof = table.profile
    total = table.assigned_mass()
    if total <= 0.0:
        return [(0.0, 0.0, True)] * len(events)
    full_mi = _marginals_mi(prof.masses, prof.past_mass, prof.future_mass)
    past_rows, future_rows = prof.past_blocks[prof.past], prof.future_blocks[prof.future]
    n_past, n_future = len(prof.past_blocks), len(prof.future_blocks)

    out = []
    for event in events:
        inside = np.asarray(event(past_rows, future_rows), bool)
        if inside.all() or not inside.any():
            out.append((0.0, float(inside[0]), True))
            continue
        outside = ~inside
        side = outside.astype(np.intp)
        past = np.bincount(side * n_past + prof.past, prof.masses, 2 * n_past)
        future = np.bincount(side * n_future + prof.future, prof.masses, 2 * n_future)
        past, future = past.reshape(2, n_past), future.reshape(2, n_future)
        fixed = not (np.logical_and(*past).any() or np.logical_and(*future).any())
        shares, mis = [], []
        for s, mask in enumerate((inside, outside)):
            masses = prof.masses[mask]
            shares.append(float(np.sum(masses)) / total)
            mis.append(_marginals_mi(masses, past[s], future[s]))
        out.append((full_mi - (shares[0] * mis[0] + shares[1] * mis[1]), shares[0], fixed))
    return out
