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
into the pruned mass before any entropy is taken.  Mass reductions use exact
compensated summation (math.fsum); entropy reductions use numpy's pairwise
summation, whose rounding is far below every certified width.

The reductions are array-native.  One pass over the entries gives each its
past and future block ids and the two marginals; a label reduction then
stacks the distinct past (and future) blocks into one uint8 matrix, labels
it with one array call (a level decoder, for the decomposition), numbers the
label groups in first-appearance order with np.unique, and takes every
group's mass, past, future and joint entropy from sorted per-group runs,
with no sub-table per group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .intervals import Interval, binary_entropy
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
class MIResult:
    """A value in bits with a certified error interval around it."""

    value: float
    err_low: float
    err_high: float

    @property
    def lower(self) -> float:
        return self.value - self.err_low

    @property
    def upper(self) -> float:
        return self.value + self.err_high

    @property
    def width(self) -> float:
        return self.err_low + self.err_high


@dataclass
class JointBlockTable:
    """Finite joint law of (past, future) blocks plus unassigned-mass tracking.

    Keys are (past, future) byte strings of length n each, one byte per
    symbol.  `pruned_mass` encloses the true probability that the table does
    not represent; `entry_slack` bounds sum_k |true_k - stored_k| over keys.
    """

    n: int
    alphabet_size: int
    entries: dict[tuple[bytes, bytes], float]
    pruned_mass: Interval
    entry_slack: float = 0.0
    meta: dict = field(default_factory=dict)

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
        out: dict[bytes, float] = {}
        for (past, _), p in self.entries.items():
            out[past] = out.get(past, 0.0) + p
        return out

    def future_marginal(self) -> dict[bytes, float]:
        out: dict[bytes, float] = {}
        for (_, future), p in self.entries.items():
            out[future] = out.get(future, 0.0) + p
        return out

    def _finalize(self) -> "JointBlockTable":
        tiny = [k for k, p in self.entries.items() if p < MIN_ENTRY_MASS]
        if tiny:
            dropped = math.fsum(self.entries.pop(k) for k in tiny)
            self.pruned_mass = self.pruned_mass + Interval.point(dropped)
        return self


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
        table = _enumerate_hmc(model, n, level_cutoff, prune_eps, path_budget, entry_budget)
    else:
        table = _enumerate_cyclic(model, n, level_cutoff, entry_budget, tail_aggregation)
    table.meta.update(
        {
            "kind": model.kind.value,
            "alpha": model.alpha,
            "series_cutoff": model.series_cutoff,
            "n": n,
            "level_cutoff": level_cutoff,
            "prune_eps": prune_eps,
            "tail_aggregation": tail_aggregation,
            "fixed_level": model.fixed_level,
        }
    )
    return table._finalize()


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
) -> JointBlockTable:
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
    return JointBlockTable(
        n=n,
        alphabet_size=len(model.alphabet),
        entries=entries,
        pruned_mass=Interval.point(0.0) if aggregate else model.level_tail_mass(level_cutoff),
        entry_slack=slack,
    )


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
) -> JointBlockTable:
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

    return JointBlockTable(
        n=n,
        alphabet_size=len(model.alphabet),
        entries=entries,
        pruned_mass=Interval(pruned_lo, pruned_hi).clamp(0.0, 1.0),
        entry_slack=0.5 * relw * math.fsum(entries.values()),
    )


# ----- information quantities ------------------------------------------------


@dataclass(frozen=True)
class _Profile:
    """A table's entries as arrays: masses, past and future block ids (in
    first-appearance order) and the two marginals, built in one pass."""

    masses: np.ndarray
    past: np.ndarray
    future: np.ndarray
    past_blocks: list[bytes]
    future_blocks: list[bytes]
    past_mass: np.ndarray
    future_mass: np.ndarray


def _profile(table: JointBlockTable) -> _Profile:
    """The table's profile, from one pass over its entries.  Each marginal
    accumulates its entries in table order, as `past_marginal` does, so the
    marginal masses are the same floats."""
    count = len(table.entries)
    past_ids: dict[bytes, int] = {}
    future_ids: dict[bytes, int] = {}
    past = np.fromiter(
        (past_ids.setdefault(p, len(past_ids)) for p, _ in table.entries), np.intp, count
    )
    future = np.fromiter(
        (future_ids.setdefault(f, len(future_ids)) for _, f in table.entries), np.intp, count
    )
    masses = np.fromiter(table.entries.values(), np.float64, count)
    return _Profile(
        masses,
        past,
        future,
        list(past_ids),
        list(future_ids),
        np.bincount(past, masses, len(past_ids)),
        np.bincount(future, masses, len(future_ids)),
    )


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


def _entropy_result(
    masses: list[float] | np.ndarray, delta: float, support_log2: float, entry_slack: float
) -> MIResult:
    """Certified entropy from a subnormalized mass list.

    The value is the plug-in entropy of the renormalized masses; writing the
    true law as a (1-delta)/delta mixture of the renormalized table and the
    unassigned remainder bounds the deviation by delta*log2(support) + h(delta)
    in both directions.  The slack of the stored masses enters through the
    worst slope of -q*log2(q) above the smallest retained atom.
    """
    arr = np.asarray(masses, dtype=np.float64)
    value = _entropy(arr, float(np.sum(arr)))
    delta = min(max(delta, 0.0), 1.0)
    err = delta * support_log2 + binary_entropy(delta)
    if entry_slack > 0.0 and arr.size:
        total = math.fsum(arr.tolist())
        q_min = float(np.min(arr)) / total
        slope = (max(0.0, -math.log(q_min)) + 1.0) / math.log(2.0)
        err += slope * 2.0 * entry_slack / total
    return MIResult(value, err, err)


def entropy(table: JointBlockTable) -> MIResult:
    """Certified joint entropy of the renormalized table in bits (0*log 0 := 0).

    Renormalizing by the assigned mass makes the value the entropy of the
    process conditioned on the retained support; the pruned mass enters the
    certified error bar, never the value.
    """
    return _joint_entropy(table, list(table.entries.values()))


def _joint_entropy(table: JointBlockTable, masses: list[float] | np.ndarray) -> MIResult:
    support = 2 * table.n * math.log2(table.alphabet_size)
    return _entropy_result(masses, table.pruned_mass.hi, support, table.entry_slack)


def _marginal_entropy(table: JointBlockTable, masses: np.ndarray) -> MIResult:
    support = table.n * math.log2(table.alphabet_size)
    return _entropy_result(masses, table.pruned_mass.hi, support, table.entry_slack)


def block_mi(table: JointBlockTable) -> MIResult:
    """Certified block mutual information H(past) + H(future) - H(joint)."""
    return _block_mi(table, _profile(table))


def _block_mi(table: JointBlockTable, prof: _Profile) -> MIResult:
    h_past = _marginal_entropy(table, prof.past_mass)
    h_future = _marginal_entropy(table, prof.future_mass)
    h_joint = _joint_entropy(table, prof.masses)
    value = h_past.value + h_future.value - h_joint.value
    err = h_past.err_high + h_future.err_high + h_joint.err_high
    return MIResult(value, err, err)


def _label_profile(
    table: JointBlockTable, prof: _Profile, past_label: Callable, future_label: Callable | None
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[float], MIResult]:
    """One labelling pass: the group id of every entry, past block and future
    block, the group masses and the certified label entropy.

    A labeller takes the (k, n) uint8 matrix of the distinct past (or
    future) blocks and returns one label per row, of any dtype np.unique
    sorts.  Groups are numbered in order of first appearance among the past
    then the future blocks, and each group mass is an exact (math.fsum) sum
    of its entries."""
    if future_label is None:
        future_label = past_label
    # Both matrices exist before either is labelled; labelling the first
    # before building the second measured 2 MB more peak RSS at hpm2 n=24.
    past_blocks = _block_matrix(prof.past_blocks, table.n)
    future_blocks = _block_matrix(prof.future_blocks, table.n)
    past_z, future_z = past_label(past_blocks), future_label(future_blocks)
    _, first, inverse = np.unique(
        np.concatenate([past_z, future_z]), return_index=True, return_inverse=True
    )
    rank = np.empty(len(first), np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    past_group, future_group = np.split(rank[inverse], [len(past_z)])
    entry_group = past_group[prof.past]
    bad = np.flatnonzero(entry_group != future_group[prof.future])
    if bad.size:
        p, f = prof.past[bad[0]], prof.future[bad[0]]
        raise LabelDisagreementError(
            f"label mismatch on entry past={list(prof.past_blocks[p])} "
            f"future={list(prof.future_blocks[f])}: "
            f"past-computed {past_z[p]} vs future-computed {future_z[f]}"
        )
    ordered, lengths = _runs(entry_group, prof.masses, len(first))
    bounds = [0] + np.cumsum(lengths).tolist()
    ordered = ordered.tolist()
    masses = [math.fsum(ordered[a:b]) for a, b in zip(bounds, bounds[1:])]
    support = table.n * math.log2(table.alphabet_size)
    h_label = _entropy_result(masses, table.pruned_mass.hi, support, table.entry_slack)
    return (entry_group, past_group, future_group), masses, h_label


def _block_matrix(blocks: list[bytes], n: int) -> np.ndarray:
    """The blocks, each of length n, as the rows of one uint8 matrix."""
    return np.frombuffer(b"".join(blocks), np.uint8).reshape(len(blocks), n)


def _label_decomposition(
    table: JointBlockTable, past_label: Callable, future_label: Callable | None
) -> tuple[MIResult, MIResult, MIResult]:
    """block_mi, H(label) and I(past; future | label) from one labelling pass.

    A past block has exactly one label, and so has a future block, so each
    group's past and future laws are the global marginals restricted to the
    blocks of that label."""
    prof = _profile(table)
    (entry_group, past_group, future_group), masses, h_label = _label_profile(
        table, prof, past_label, future_label
    )
    e = _block_mi(table, prof)
    total = table.assigned_mass()
    if total <= 0.0:
        return e, h_label, MIResult(0.0, 0.0, 0.0)
    count = len(masses)
    mis = (
        _grouped_entropy(past_group, prof.past_mass, count)
        + _grouped_entropy(future_group, prof.future_mass, count)
        - _grouped_entropy(entry_group, prof.masses, count)
    )
    value = math.fsum(((np.asarray(masses) / total) * mis).tolist())
    err = e.err_high + h_label.err_high
    return e, h_label, MIResult(value, err, err)


def _triple_informations(
    table: JointBlockTable, events: list[Callable]
) -> list[tuple[float, float]]:
    """I(past; future; 1_B) and P(B) on the renormalized table for each event
    B.  The table is profiled and its plug-in MI taken once; each event is
    evaluated once per entry."""
    prof = _profile(table)
    total = math.fsum(prof.masses.tolist())
    if total <= 0.0:
        return [(0.0, 0.0)] * len(events)
    full_mi = _marginals_mi(prof.masses, prof.past_mass, prof.future_mass)

    def side_mi(side: np.ndarray) -> float:
        return _plug_in_mi(prof.masses[side], prof.past[side], prof.future[side])

    out = []
    for event in events:
        inside = np.fromiter((bool(event(key)) for key in table.entries), bool, len(prof.masses))
        mass_in, mass_out = (math.fsum(prof.masses[s].tolist()) / total for s in (inside, ~inside))
        cond = mass_in * side_mi(inside) + mass_out * side_mi(~inside)
        out.append((full_mi - cond, mass_in))
    return out
