"""Exact joint block distributions and certified information quantities.

`enumerate_joint` materialises the joint law of (past block, future block) of
length n each as a finite table:

  * the two cyclic kinds are mixtures of deterministic cycles, so each
    (level, phase) pair contributes its stationary mass to exactly one
    (past, future) key.  One loop slides each level's word over the window.
    A window of an hpm1 level m >= 2n shows at most one marker, so those
    levels only add to 2n single-marker keys and the all-zero key, written
    once; with tail aggregation these masses cover every m >= 2n in closed
    form;
  * the ergodic kind's hidden paths branch at word boundaries.  Each path
    starts at a seed (level, phase); what follows a boundary depends only on
    how many of the 2n symbols are still needed, so that subtree is expanded
    once per remaining length into a completion cache (suffix -> product of
    branch probabilities) and combined with every path that reaches such a
    boundary.  A branch whose sequential path product falls below the
    optional pruning threshold goes to the pruned mass: a boundary takes its
    subtree from the cache only when even its least likely leaf clears the
    threshold, and otherwise expands one level and tries again below.

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
(`JointBlockTable.profile`, built on first use and cached): the keys joined
into one symbol matrix, each half's rows packed into integer codes and
numbered in order of first appearance by one sort, the distinct past and
future block matrices, and the two marginals.  A label reduction labels each
block matrix with one array call (a level decoder, for the decomposition),
numbers the label groups the same way, and takes every group's mass, past,
future and joint entropy from sorted per-group runs, with no sub-table per
group.  A triple-information event is one array predicate over the past and
future block matrices of every entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .intervals import Enclosure, Interval, binary_entropy
from .models import Kind, ProcessModel
from .series import level_weight, squared_level_tail

MIN_ENTRY_MASS = 1e-30

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


@dataclass(frozen=True)
class JointBlockTable:
    """Finite joint law of (past, future) blocks plus unassigned-mass tracking.

    Keys are (past, future) byte strings of length n each, one byte per
    symbol below `alphabet_size`.  `pruned_mass` encloses the true
    probability that the table does not represent; `entry_slack` bounds
    sum_k |true_k - stored_k| over keys.

    A table is never mutated after it is built: `entries` is read-only (a
    read-only copy of a dict it is given; a `MappingProxyType` is kept as
    is, so its owner must not change it); `profile` and `block_mi` are
    computed on first use and cached, so every reduction reads the same ones.
    """

    n: int
    alphabet_size: int
    entries: Mapping[tuple[bytes, bytes], float]
    pruned_mass: Interval
    entry_slack: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.entries, MappingProxyType):
            object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    def assigned_mass(self) -> float:
        return math.fsum(self.entries.values())

    def conservation_interval(self) -> Interval:
        """Interval that must contain 1 if the table conserved probability."""
        total = self.assigned_mass()
        slack = self.entry_slack + 1e-12 * max(1, len(self.entries))
        return Interval(
            total + self.pruned_mass.lo - slack,
            total + self.pruned_mass.hi + slack,
        )

    def past_marginal(self) -> dict[bytes, float]:
        prof = self.profile
        return dict(zip(map(bytes, prof.past_blocks), prof.past_mass.tolist()))

    def future_marginal(self) -> dict[bytes, float]:
        prof = self.profile
        return dict(zip(map(bytes, prof.future_blocks), prof.future_mass.tolist()))

    @cached_property
    def profile(self) -> TableProfile:
        """The entries as arrays, with no Python loop over them: the keys are
        read into one (count, 2n) symbol matrix and each half's rows are
        numbered by `_number_blocks`.  Each marginal is an np.bincount,
        which adds in table order.  The arrays are read-only, since every
        caller shares them.  Raises ValueError on an alphabet of more than
        four symbols, a block that is not n symbols long or a symbol outside
        the alphabet."""
        count, n = len(self.entries), self.n
        if self.alphabet_size > 4:
            raise ValueError(f"alphabet of {self.alphabet_size} symbols; at most 4 are packed")
        lengths = set(map(len, itertools.chain.from_iterable(self.entries)))
        if lengths - {n}:
            raise ValueError(f"block of length {min(lengths - {n})} in a table of n = {n}")
        # np.fromiter fills the matrix in place; b"".join would also hold an
        # 80-byte buffer record per block (7 MB at hmc n=8).
        blocks = itertools.chain.from_iterable(self.entries)
        keys = np.fromiter(blocks, np.dtype((np.void, n)), 2 * count).view(np.uint8)
        keys = keys.reshape(count, 2 * n)
        if count and keys.max() >= self.alphabet_size:
            raise ValueError(f"symbol {keys.max()} outside alphabet 0..{self.alphabet_size - 1}")
        masses = np.fromiter(self.entries.values(), np.float64, count)
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
    word, is packed into 16 bits, 2 bits per symbol, and the packed bytes are
    read as uint64: one code per row for n <= 32, else a row of codes.  A
    symbol above 3 would collide, so callers reject them."""
    count, n = blocks.shape
    padded = np.zeros((count, -(-n // 8) * 8), np.uint8)
    padded[:, :n] = blocks
    x = padded.view(np.uint64)
    x = (x | x >> np.uint64(6)) & np.uint64(0x000F000F000F000F)
    x = (x | x >> np.uint64(12)) & np.uint64(0x000000FF000000FF)
    packed = ((x | x >> np.uint64(24)) & np.uint64(0xFFFF)).astype(np.uint16).view(np.uint8)
    width = packed.shape[1]
    codes = np.zeros((count, -(-width // 8) * 8), np.uint8)
    codes[:, :width] = packed
    codes = codes.view(np.uint64)
    return _first_appearance(codes[:, 0] if codes.shape[1] == 1 else codes)


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct values in order of first appearance.  Returns the
    id of every value and, by id, the index where each first appears.  The
    values are a vector of any dtype np.argsort sorts, or a matrix whose
    rows are the values."""
    order = np.argsort(values) if values.ndim == 1 else np.lexsort(values.T)
    ranked = values[order]
    differ = ranked[1:] != ranked[:-1]
    new = np.ones(len(values), bool)
    new[1:] = differ if differ.ndim == 1 else differ.any(1)
    # Each run of equal values starts at `new`; its smallest index is where
    # the value first appears.
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if len(values) else order
    seen = np.zeros(len(values), bool)
    seen[first] = True
    rank = np.cumsum(seen) - 1  # the id of each first appearance, by index
    ids = np.empty(len(values), np.intp)
    ids[order] = rank[first][np.cumsum(new) - 1]
    return ids, np.flatnonzero(seen)


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
    ergodic kind, each cached suffix table.  Exceeding either raises
    `BudgetExceededError` naming the kind, alpha, n, `level_cutoff` and, for
    the ergodic kind, `prune_eps`.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if level_cutoff < 2:
        raise ValueError(f"level cutoff must be >= 2, got {level_cutoff}")
    if not 0.0 <= prune_eps < 1.0:
        raise ValueError(f"prune threshold must lie in [0, 1), got {prune_eps}")
    if tail_aggregation:
        if model.kind is not Kind.HPM1:
            raise ValueError("tail aggregation applies to the single-marker cyclic kind only")
        if model.fixed_level is not None:
            raise ValueError("tail aggregation needs the full heavy-tailed level law")
    if model.kind is Kind.HMC:
        entries, pruned, slack = _enumerate_hmc(
            model, n, level_cutoff, prune_eps, path_budget, entry_budget
        )
    else:
        entries, pruned, slack = _enumerate_cyclic(
            model, n, level_cutoff, entry_budget, tail_aggregation
        )
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
    return _retained_table(n, len(model.alphabet), entries, pruned, slack, meta)


def _retained_table(
    n: int,
    alphabet_size: int,
    entries: dict[tuple[bytes, bytes], float],
    pruned_mass: Interval,
    entry_slack: float,
    meta: dict,
) -> JointBlockTable:
    """The table of `entries`, less those below MIN_ENTRY_MASS: they are
    removed from the dict, and their mass joins the pruned mass, before the
    table exists.  The table takes the dict behind a read-only view, not a
    copy (2.6 MB at hmc n=8); nothing else holds it."""
    tiny = [k for k, p in entries.items() if p < MIN_ENTRY_MASS]
    if tiny:
        pruned_mass = pruned_mass + Interval.point(math.fsum(entries.pop(k) for k in tiny))
    return JointBlockTable(
        n, alphabet_size, MappingProxyType(entries), pruned_mass, entry_slack, meta
    )


def _input_label(
    model: ProcessModel, n: int, level_cutoff: int, prune_eps: float | None = None
) -> str:
    """The enumeration input a budget error names."""
    label = f"kind={model.kind.value}, alpha={model.alpha}, n={n}, level_cutoff={level_cutoff}"
    return label if prune_eps is None else f"{label}, prune_eps={prune_eps}"


def _levels(model: ProcessModel, level_cutoff: int) -> Iterable[int]:
    if model.fixed_level is not None:
        return [model.fixed_level] if model.fixed_level <= level_cutoff else []
    return range(2, level_cutoff + 1)


def _enumerate_cyclic(
    model: ProcessModel, n: int, level_cutoff: int, entry_budget: int, aggregate: bool
) -> tuple[dict[tuple[bytes, bytes], float], Interval, float]:
    length = 2 * n
    c_iv = model.norm_c
    c_relw = 0.0 if model.fixed_level is not None else c_iv.width / c_iv.mid
    entries: dict[tuple[bytes, bytes], float] = {}
    label = _input_label(model, n, level_cutoff)

    def check_entries() -> None:
        if len(entries) > entry_budget:
            raise BudgetExceededError(f"table exceeded entry budget {entry_budget} ({label})")

    assigned = 0.0
    # hpm1 levels m >= 2n: a window sees at most one marker, so each such
    # level adds P/m to every one of the 2n single-marker keys and the rest of
    # its cycle to the all-zero key.
    marker = zero = 0.0
    for m in range(2, length) if aggregate else _levels(model, level_cutoff):
        level_mass = model.level_mass(m).mid
        assigned += level_mass
        if model.kind is Kind.HPM1 and m >= length:
            marker += level_mass / m
            zero += level_mass * (m - length) / m
            continue
        word = model.emission_word(m)
        r = len(word)
        ext = word * ((length + r - 1) // r + 1)
        per_phase = level_mass / r
        for k in range(r):
            win = ext[k : k + length]
            key = (win[:n], win[n:])
            entries[key] = entries.get(key, 0.0) + per_phase
        check_entries()
    slack = 0.5 * c_relw * assigned
    if aggregate:
        # Every level m >= 2n at once: the marker mass is C times the squared
        # level tail, and the zero mass is what those levels leave over.
        marker_iv = c_iv * squared_level_tail(model.alpha, length)
        short = math.fsum(level_weight(m, model.alpha) for m in range(2, length))
        zero_iv = ((1.0 - c_iv * short) - float(length) * marker_iv).clamp(0.0, 1.0)
        marker, zero = marker_iv.mid, zero_iv.mid
        slack += 0.5 * (length * marker_iv.width + zero_iv.width)
    if marker:  # some level m >= 2n contributed
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


@dataclass
class _Completion:
    """The subtree below an hmc word boundary with `need` symbols still to
    emit: every branch probability is relative to the boundary (q = 1 there).

    `pushes` is how many nodes the subtree holds below its root, `internal_q`
    the summed q of its word boundaries (the root included), `q_min` the
    smallest q of a leaf, and `suffixes` maps each truncated suffix to its
    summed q; the dict is built on first use."""

    pushes: int
    internal_q: float
    q_min: float
    suffixes: dict[bytes, float] | None = None


def _enumerate_hmc(
    model: ProcessModel,
    n: int,
    level_cutoff: int,
    prune_eps: float,
    path_budget: int,
    entry_budget: int,
) -> tuple[dict[tuple[bytes, bytes], float], Interval, float]:
    length = 2 * n
    label = _input_label(model, n, level_cutoff, prune_eps)
    if model.fixed_level is not None:
        branch_levels = [model.fixed_level]
        branch_p = {model.fixed_level: 1.0}
        branch_tail = Interval.point(0.0)
        seed_masses = {model.fixed_level: 1.0 / model.phase_count(model.fixed_level)}
        relw = 0.0
    else:
        branch_levels = list(range(2, level_cutoff + 1))
        branch_p = {m: model.branch_probability(m).mid for m in branch_levels}
        branch_tail = model.branch_tail_mass(level_cutoff)
        seed_masses = {m: model.level_mass(m).mid / model.phase_count(m) for m in branch_levels}
        # Each path multiplies one stationary weight and at most 2n branch
        # weights, so the constant enclosures enter with these multipliers.
        relw = model.norm_c.width / model.norm_c.mid + length * (
            model.norm_d.width / model.norm_d.mid
        )
    words = {m: model.emission_word(m) for m in branch_levels}
    # Branches by falling probability, each with the summed probability of
    # itself and every later branch.  prob * b is then falling along the list
    # too (rounding is monotone), so the first pruned branch prunes the rest.
    ordered = sorted(branch_levels, key=branch_p.__getitem__, reverse=True)
    rests = list(itertools.accumulate(branch_p[m] for m in reversed(ordered)))[::-1]
    branches = [(words[m], branch_p[m], rest) for m, rest in zip(ordered, rests)]

    # After a word boundary the rest of a window depends only on how many
    # symbols it still needs, so each such subtree is summarised once per
    # `need`, from the summaries of the shorter needs below it.
    completions: list[_Completion] = [_Completion(0, 0.0, 1.0)]  # index 0 is unused
    for need in range(1, length):
        pushes, internal_q, q_min = len(branches), 1.0, math.inf
        for word, b, _ in branches:
            if len(word) >= need:
                q_min = min(q_min, b)
            else:
                sub = completions[need - len(word)]
                pushes += sub.pushes
                internal_q += b * sub.internal_q
                q_min = min(q_min, b * sub.q_min)
        completions.append(_Completion(pushes, internal_q, q_min))

    def suffixes(need: int) -> dict[bytes, float]:
        done = completions[need].suffixes
        if done is not None:
            return done
        out: dict[bytes, float] = {}
        for word, b, _ in branches:
            if len(word) >= need:
                s = word[:need]
                out[s] = out.get(s, 0.0) + b
            else:
                for s, q in suffixes(need - len(word)).items():
                    s = word + s
                    out[s] = out.get(s, 0.0) + b * q
            if len(out) > entry_budget:
                raise BudgetExceededError(
                    f"completion table for {need} symbols exceeded entry budget "
                    f"{entry_budget} ({label})"
                )
        completions[need].suffixes = out
        return out

    entries: dict[tuple[bytes, bytes], float] = {}
    pruned_lo = 0.0
    pruned_hi = 0.0
    extensions = 0
    # Word boundaries whose whole subtree comes from the cache, by the path
    # that reaches them: prefix -> summed path probability.
    cached: dict[bytes, float] = {}
    gate = prune_eps * (1.0 + 1e-12)

    def count(pushes: int) -> None:
        nonlocal extensions
        extensions += pushes
        if extensions > path_budget:
            raise BudgetExceededError(f"path budget {path_budget} exceeded ({label})")

    def check_entries() -> None:
        if len(entries) > entry_budget:
            raise BudgetExceededError(f"table exceeded entry budget {entry_budget} ({label})")

    def add(win: bytes, prob: float) -> None:
        key = (win[:n], win[n:])
        entries[key] = entries.get(key, 0.0) + prob
        check_entries()

    def boundary(prefix: bytes, prob: float) -> None:
        """A word boundary reached with sequential path probability `prob`.

        Every node below it keeps its branch only if its sequential product
        is >= prune_eps.  If even the least likely leaf clears that with room
        for the rounding of a product taken in another order, nothing below
        is pruned and the subtree comes from the cache.  Otherwise the
        boundary expands one level with the sequential products and
        recurses."""
        nonlocal pruned_lo, pruned_hi
        need = length - len(prefix)
        completion = completions[need]
        if prob * completion.q_min >= gate:
            count(completion.pushes)
            cached[prefix] = cached.get(prefix, 0.0) + prob
            return
        pruned_lo += prob * branch_tail.lo
        pruned_hi += prob * branch_tail.hi
        for word, b, rest in branches:
            p2 = prob * b
            if p2 < prune_eps:
                pruned_lo += prob * rest
                pruned_hi += prob * rest
                break
            count(1)
            if len(word) >= need:
                add(prefix + word[:need], p2)
            else:
                boundary(prefix + word, p2)

    # Seeds, one per (level, phase), are never pruned.
    for m in branch_levels:
        word = words[m]
        seed = seed_masses[m]
        for k in range(len(word)):
            count(1)
            take = word[k:]
            if len(take) >= length:
                add(take[:length], seed)
            else:
                boundary(take, seed)
    if model.fixed_level is None:
        seed_tail = model.level_tail_mass(level_cutoff)
        pruned_lo += seed_tail.lo
        pruned_hi += seed_tail.hi

    # Fill the cache first, so that an over-budget suffix table stops the run
    # before any cached entry is combined into the table.
    for need in sorted({length - len(prefix) for prefix in cached}, reverse=True):
        suffixes(need)
    for prefix, prob in cached.items():
        need = length - len(prefix)
        internal = prob * completions[need].internal_q
        pruned_lo += internal * branch_tail.lo
        pruned_hi += internal * branch_tail.hi
        for s, q in suffixes(need).items():
            win = prefix + s
            key = (win[:n], win[n:])
            entries[key] = entries.get(key, 0.0) + prob * q
        check_entries()

    pruned = Interval(pruned_lo, pruned_hi).clamp(0.0, 1.0)
    return entries, pruned, 0.5 * relw * math.fsum(entries.values())


# ----- information quantities ------------------------------------------------


def _entropy(weights: np.ndarray, total: float) -> float:
    """Plug-in entropy of the positive weights, each divided by `total`."""
    p = weights[weights > 0.0] / total
    return float(-np.sum(p * np.log2(p)))


def _runs(group: np.ndarray, values: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`values` stably sorted by group id, and the length of each group's run."""
    return values[np.argsort(group, kind="stable")], np.bincount(group, minlength=count)


def _grouped_entropy(group: np.ndarray, masses: np.ndarray, count: int) -> np.ndarray:
    """Plug-in entropy of each group's masses, renormalized within the group.

    Every group must be non-empty.  Each group's run is summed pairwise
    (np.add.reduceat), as `_entropy` sums a whole table."""
    m, lengths = _runs(group, masses, count)
    starts = np.cumsum(lengths) - lengths
    q = m / np.repeat(np.add.reduceat(m, starts), lengths)
    return -np.add.reduceat(q * np.log2(q), starts)


def _plug_in_mi(weights: np.ndarray, past: np.ndarray, future: np.ndarray) -> float:
    """Plug-in I(past; future) of the atoms with these weights (masses or
    counts) and past and future block ids, renormalized by their total.
    With count weights, zero-weight atoms (the windows a bootstrap resample
    did not draw) leave the value unchanged."""
    return _marginals_mi(weights, np.bincount(past, weights), np.bincount(future, weights))


def _marginals_mi(
    weights: np.ndarray, past_weights: np.ndarray, future_weights: np.ndarray
) -> float:
    """`_plug_in_mi` from the summed weights of each past and future block."""
    total = float(np.sum(weights))
    if total <= 0.0:
        return 0.0
    return (
        _entropy(past_weights, total) + _entropy(future_weights, total) - _entropy(weights, total)
    )


def _mixture_bound(delta: float, support_log2: float) -> float:
    """delta*log2(support) + h(delta): a law that is a (1-delta)/delta mixture
    of a retained part and a remainder on at most `support` atoms has an
    entropy within this of the retained part's, in both directions."""
    delta = min(max(delta, 0.0), 1.0)
    return delta * support_log2 + binary_entropy(delta)


def _entropy_result(
    masses: list[float] | np.ndarray, delta: float, support_log2: float, entry_slack: float
) -> tuple[float, float]:
    """Certified entropy from a subnormalized mass list, as (value,
    half-width): the plug-in entropy of the renormalized masses, off by at
    most `_mixture_bound` of the unassigned mass delta plus the slack of the
    stored masses times the worst slope of -q*log2(q) above the smallest
    retained atom."""
    arr = np.asarray(masses, dtype=np.float64)
    value = _entropy(arr, float(np.sum(arr)))
    err = _mixture_bound(delta, support_log2)
    if entry_slack > 0.0 and arr.size:
        total = math.fsum(arr.tolist())
        q_min = float(np.min(arr)) / total
        slope = (max(0.0, -math.log(q_min)) + 1.0) / math.log(2.0)
        err += slope * 2.0 * entry_slack / total
    return value, err


def _table_entropy(
    table: JointBlockTable, masses: list[float] | np.ndarray, blocks: int
) -> tuple[float, float]:
    """`_entropy_result` of masses on keys of `blocks` blocks of n symbols."""
    support = blocks * table.n * math.log2(table.alphabet_size)
    return _entropy_result(masses, table.pruned_mass.hi, support, table.entry_slack)


def block_mi(table: JointBlockTable) -> Enclosure:
    """Certified block mutual information H(past) + H(future) - H(joint) of
    the renormalized table in bits, cached on the table as its profile is.
    The pruned mass enters the enclosure, never the value."""
    return table._block_mi[0]


def _label_profile(
    table: JointBlockTable, past_label: Callable, future_label: Callable | None
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[float], tuple[float, float]]:
    """One labelling pass: the group id of every entry, past block and future
    block, the group masses and the certified label entropy as (value,
    half-width).

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
    ordered, lengths = _runs(entry_group, prof.masses, len(first))
    bounds = [0] + np.cumsum(lengths).tolist()
    ordered = ordered.tolist()
    masses = [math.fsum(ordered[a:b]) for a, b in zip(bounds, bounds[1:])]
    return (entry_group, past_group, future_group), masses, _table_entropy(table, masses, 1)


def _label_decomposition(
    table: JointBlockTable, past_label: Callable, future_label: Callable | None
) -> tuple[Enclosure, Enclosure, Enclosure, float]:
    """block_mi, H(label) and I(past; future | label) from one labelling
    pass, and the sum of their three half-widths.

    A past block has exactly one label, and so has a future block, so each
    group's past and future laws are the global marginals restricted to the
    blocks of that label."""
    (entry_group, past_group, future_group), masses, (h, h_err) = _label_profile(
        table, past_label, future_label
    )
    e, e_err = table._block_mi
    h_label = Enclosure.around(h, h_err)
    total = table.assigned_mass()
    if total <= 0.0:
        return e, h_label, Enclosure(0.0, 0.0, 0.0), e_err + h_err
    prof = table.profile
    count = len(masses)
    mis = (
        _grouped_entropy(past_group, prof.past_mass, count)
        + _grouped_entropy(future_group, prof.future_mass, count)
        - _grouped_entropy(entry_group, prof.masses, count)
    )
    value = math.fsum(((np.asarray(masses) / total) * mis).tolist())
    err = e_err + h_err
    return e, h_label, Enclosure.around(value, err), e_err + h_err + err


def _triple_informations(
    table: JointBlockTable, events: list[Callable]
) -> list[tuple[float, float]]:
    """I(past; future; 1_B) and P(B) on the renormalized table for each event
    B.  An event takes the per-entry past and future block matrices (row i
    is entry i's key) and returns one bool per entry; each is called once.
    The plug-in MI of the whole table is taken once."""
    prof = table.profile
    total = math.fsum(prof.masses.tolist())
    if total <= 0.0:
        return [(0.0, 0.0)] * len(events)
    full_mi = _marginals_mi(prof.masses, prof.past_mass, prof.future_mass)
    past_rows, future_rows = prof.past_blocks[prof.past], prof.future_blocks[prof.future]

    def side_mi(side: np.ndarray) -> float:
        return _plug_in_mi(prof.masses[side], prof.past[side], prof.future[side])

    out = []
    for event in events:
        inside = np.asarray(event(past_rows, future_rows), bool)
        mass_in, mass_out = (math.fsum(prof.masses[s].tolist()) / total for s in (inside, ~inside))
        cond = mass_in * side_mi(inside) + mass_out * side_mi(~inside)
        out.append((full_mi - cond, mass_in))
    return out
