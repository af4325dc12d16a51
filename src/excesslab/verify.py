"""Self-check suite behind the `verify` command.

Each check returns a named pass/fail entry with a human-readable detail
string and a numeric margin, the least slack of its inequalities (negative
exactly when it fails); an inequality that holds with equality by
construction, and so would pin the margin at its tolerance, is left out of
it.  The collection serialises to a machine-readable JSON ledger.  The
checks mirror the library's contracts:

  series_brackets     direct sums of the two bracketed series lie inside
                      their closed-form enclosures (summed in cache-sized
                      chunks, one exp2 of a scaled log2(log2(m)) per
                      exponent); the n = 2 partial, one term at the upper
                      end of its bracket, is left out of the margin;
  decomposition       |E(n) - H(D) - I(past;future|D)| within float roundoff;
  decoder_agreement   past- and future-decoded levels agree on sampled
                      windows and match the hidden truth where defined
                      (the trajectories come from one batched sample; the
                      blocks of each block length are numbered once, by
                      the table's one-sort numbering, and decoded in one
                      array call per decoder; the truth is read from the
                      word records in arrays); its margin is the number of
                      windows with a defined truth when it passes, and
                      minus the number of failures when it does not;
  sandwich            H(D) <= upper(E(n)), lower(E(n)) <= upper bound curve,
                      and the data-processing comparison against the
                      certified upper end of the restricted hidden-state
                      entropy;
  triple_bound        |I(past; future; 1_B)| <= H(1_B) <= 1 over a grid of
                      array predicates, each called once per table on the
                      past and future block matrices of its entries; both
                      sides of an event share one bincount per marginal,
                      an event true on every entry, or on none, is
                      exactly 0, and an event that each block alone fixes
                      is left out of the margin;
  monotonicity        certified E(n) intervals consistent with E nondecreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decoders import (
    _revealed_phase_bounds,
    decoded_level_entropy,
    future_decoder,
    mi_decomposition_residual,
    past_decoder,
)
from .exact import (
    JointBlockTable, _mixture_bound, _number_blocks, _triple_informations, block_mi, enumerate_joint
)
from .analysis import _restricted_state_entropy, block_mi_upper_bound
from .intervals import Enclosure, binary_entropy
from .models import Kind, ProcessModel
from .sampling import Trajectories, _phase_counts, sample_trajectories
from .series import (
    _CHUNK, level_weight_sums, normalization_sum, partial_sum_bracket, tail_sum_bracket
)

_CLIP = 1 << 32  # levels and phases above it are never revealed at n <= 64
# The exponents and the points n at which series_brackets sums directly.
BRACKET_ALPHAS = (1.2, 1.5, 1.8, 2.0)
BRACKET_POINTS = (2, 2**4, 2**10, 2**20)


@dataclass
class CheckResult:
    """A check's verdict, its detail line and its margin: the least slack of
    its inequalities (bound minus value, tolerance included), which is
    negative exactly when the check fails, and infinite when it compared
    nothing (written as null)."""

    name: str
    passed: bool
    detail: str
    margin: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "margin": self.margin if math.isfinite(self.margin) else None,
        }


@dataclass
class VerificationLedger:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def check_series_brackets() -> CheckResult:
    alphas, points = BRACKET_ALPHAS, BRACKET_POINTS
    partials = {n: _direct_sums(2, n + 1, [alpha - 1.0 for alpha in alphas]) for n in points}
    # Telescoping: the tail brackets at n and 2n must enclose the directly
    # summed finite segment [n, 2n).
    segments = {n: _direct_sums(n, 2 * n, alphas) for n in points}
    failures = []
    margin = math.inf
    for i, alpha in enumerate(alphas):
        for n in points:
            br = partial_sum_bracket(alpha, n)
            slack = _bracket_slack(partials[n][i], br.lo - 1e-12, br.hi + 1e-12)
            if not slack >= 0.0:
                failures.append(f"partial alpha={alpha} n={n}")
            if n > 2 or slack < 0.0:  # the n = 2 partial is one term, its bracket's upper end
                margin = min(margin, slack)
            near, far = tail_sum_bracket(alpha, n), tail_sum_bracket(alpha, 2 * n)
            lo, hi = near.lo - far.hi - 1e-12, near.hi - far.lo + 1e-12
            slack = _bracket_slack(segments[n][i], lo, hi)
            if not slack >= 0.0:
                failures.append(f"tail alpha={alpha} n={n}")
            margin = min(margin, slack)
    detail = "all direct sums inside brackets" if not failures else "; ".join(failures)
    return CheckResult("series_brackets", not failures, detail, margin)


def _bracket_slack(value: float, lo: float, hi: float) -> float:
    """The distance from `value` to the nearer end of [lo, hi]: negative
    exactly when it lies outside."""
    return min(value - lo, hi - value)


def _direct_sums(lo: int, hi: int, exponents) -> list[float]:
    """sum_{lo <= m < hi} 1/(m*log2(m)**e) for each exponent e, from chunks
    of `series._CHUNK` terms starting at `lo`, whose temporaries stay in
    cache.  Per chunk 1/m and log2(log2(m)) are taken once; per exponent
    log2(m)**-e is taken as exp2(-e*log2(log2(m))) into a reused buffer,
    multiplied by 1/m in place and summed pairwise; the chunk sums are added
    with math.fsum.  np.power with a negative exponent has none of numpy's
    fast paths and costs about twice as much; either form's terms are
    within 2e-15 relative of a 30-digit value."""
    chunks: list[list[float]] = [[] for _ in exponents]
    for start in range(lo, hi, _CHUNK):
        m = np.arange(start, min(start + _CHUNK, hi), dtype=np.float64)
        log_log_m = np.log2(np.log2(m))
        inv_m = np.reciprocal(m, out=m)
        term = np.empty_like(m)
        for acc, e in zip(chunks, exponents):
            np.exp2(np.multiply(log_log_m, -e, out=term), out=term)
            term *= inv_m
            acc.append(float(np.sum(term)))
    return [math.fsum(acc) for acc in chunks]


def check_decomposition(tables: dict) -> CheckResult:
    failures = []
    worst = 0.0
    margin = math.inf
    for (kind, alpha, n), table in tables.items():
        chk = mi_decomposition_residual(table, kind)
        worst = max(worst, abs(chk.residual))
        margin = min(margin, chk.allowance - abs(chk.residual))
        if not chk.passed:
            failures.append(
                f"{kind} alpha={alpha} n={n}: residual {chk.residual:.3e} > allowance {chk.allowance:.3e}"
            )
    detail = f"worst residual {worst:.3e}" if not failures else "; ".join(failures)
    return CheckResult("decomposition", not failures, detail, margin)


def check_decoder_agreement(
    model: ProcessModel,
    windows: int = 100_000,
    seed: int = 2024,
    past_override: Callable | None = None,
) -> CheckResult:
    """Compare past-decoded vs future-decoded levels on sampled windows and
    against the hidden truth at the block boundary, on streams 0, 1, ... of
    `seed` with n alternating 6 and 12, 500 windows each.

    The streams come from one `sample_trajectories` call of 2*12 + 500
    symbols, read as its symbol matrix; an n = 6 stream reads only its first 2*6 + 500, which are the
    trajectory `sample_trajectory` gives at that length.  Window t's past
    block is row t of its trajectory's length-n blocks and its future block
    row t + n, so the rows of every trajectory with the same n are numbered
    once (`exact._number_blocks`), each distinct row is decoded in one call
    per decoder, and the windows are counted from those results.  The truth
    comes from the word records of those trajectories, in arrays
    (`_revealed_levels`), by the revealed-phase rule `_revealed_phase_bounds`."""
    if windows < 1:
        raise ValueError(f"windows must be >= 1, got {windows}")
    kind = model.kind
    per_traj = 500
    trajs = sample_trajectories(model, -(-windows // per_traj), 2 * 12 + per_traj, seed)
    disagreements = 0
    truth_errors = 0
    truth_hits = 0
    for n, first in ((6, 0), (12, 1)):  # n = 6 on even streams, 12 on odd ones
        picked = slice(first, None, 2)
        group = range(len(trajs))[picked]
        if not group:
            continue
        rows = np.lib.stride_tricks.sliding_window_view(trajs.symbols[picked], n, axis=1)
        rows = rows[:, : per_traj + n].reshape(-1, n)
        ids, at = _number_blocks(rows)
        ids, distinct = ids.reshape(len(group), per_traj + n), rows[at]
        # Only the last trajectory sampled may have fewer than per_traj windows.
        count = (len(group) - 1) * per_traj + min(per_traj, windows - group[-1] * per_traj)
        past_of, future_of = ids[:, :per_traj].ravel()[:count], ids[:, n:].ravel()[:count]
        dp = (past_override or past_decoder(kind))(distinct)[past_of]
        df = future_decoder(kind)(distinct)[future_of]
        truth = _revealed_levels(trajs, picked, n, per_traj)[:count]
        defined = truth != 0
        disagreements += int(np.count_nonzero(dp != df))
        truth_hits += int(np.count_nonzero(defined))
        truth_errors += int(np.count_nonzero(defined & (dp != truth)))
    ok = disagreements == 0 and truth_errors == 0
    detail = (
        f"{windows} windows, {disagreements} past/future disagreements, "
        f"{truth_errors}/{truth_hits} hidden-truth mismatches"
    )
    margin = truth_hits if ok else -(disagreements + truth_errors)
    return CheckResult(f"decoder_agreement[{kind.value}]", ok, detail, float(margin))


def _revealed_levels(trajs: Trajectories, rows: slice, n: int, per_traj: int) -> np.ndarray:
    """The revealed level of windows 0..per_traj-1 of each trajectory of
    `rows` of the batch, one trajectory after another: the level of the
    hidden state at the window's origin, the last past position (step
    t + n - 1 for window t), where `_revealed_phase_bounds` says that state
    reveals it, and 0 elsewhere.

    A word record splits its trajectory into runs of steps on one level,
    within which the phase steps by one and wraps after r(level).  Each
    quantity of the runs is one array over every trajectory: a run stops at
    start + r - phase + 1, where the next starts, and the last run of a
    trajectory lasts to its end.  The batch's int64 records, clipped at
    2**62, are clipped here at this module's `_CLIP` = 2**32, past which
    nothing is revealed, so that the sums over runs stay far inside int64;
    r is the sampler's `_phase_counts` of them.  A run revealed at every
    phase is filled whole; one revealed at only some phases is a single hmc
    word, whose phases step from its first without wrapping."""
    kind = trajs.model.kind
    picked = np.arange(len(trajs))[rows]
    word_start = trajs.word_starts[picked]
    runs = 1 + trajs.word_starts[picked + 1] - word_start
    owner = np.repeat(np.arange(len(picked)), runs)
    first = np.cumsum(runs) - runs
    level, s = np.empty((2, len(owner)), np.int64)
    level[first], s[first] = trajs.initial_levels[picked], trajs.initial_digits[picked]
    later = np.ones(len(owner), bool)
    later[first] = False
    later = np.flatnonzero(later)
    index = later + (word_start - first - 1)[owner[later]]
    level[later], s[later] = trajs.word_levels[index], trajs.word_digits[index]
    level = np.minimum(level, _CLIP)
    phase = np.ones(len(owner), np.int64)
    phase[first] = np.minimum(trajs.initial_phases[picked], _CLIP)
    r = _phase_counts(trajs.model, level, s)
    length = r - phase + 1
    start = np.cumsum(length) - length
    start -= start[first][owner]
    stop = start + length
    stop[first + runs - 1] = trajs.symbols.shape[1]
    lo, hi = _revealed_phase_bounds(kind, level, n)
    whole = hi - lo == r
    a = np.where(whole, start, np.maximum(start, start + lo - phase))
    b = np.where(whole, stop, np.minimum(stop, start + hi - phase))
    a, b = (np.clip(x - (n - 1), 0, per_traj) for x in (a, b))
    width = np.maximum(b - a, 0)
    at = np.repeat(owner * per_traj + a - (np.cumsum(width) - width), width)
    truth = np.zeros(len(picked) * per_traj, np.int64)
    truth[at + np.arange(len(at))] = np.repeat(level, width)
    return truth


def check_sandwich(tables: dict, series_cutoff: int) -> CheckResult:
    failures = []
    margin = math.inf
    for (kind, alpha, n), table in tables.items():
        e = block_mi(table)
        h_d = decoded_level_entropy(kind, alpha, n, series_cutoff)
        if h_d.lo > e.hi + 1e-9:
            failures.append(f"{kind} a={alpha} n={n}: H(D) {h_d.lo:.4f} > E upper {e.hi:.4f}")
        bound = block_mi_upper_bound(kind, alpha, n, series_cutoff)
        if e.lo > bound.hi + 1e-9:
            failures.append(f"{kind} a={alpha} n={n}: E lower {e.lo:.4f} > bound {bound.hi:.4f}")
        margin = min(margin, (e.hi + 1e-9) - h_d.lo, (bound.hi + 1e-9) - e.lo)
        gap = _data_processing_gap(table, e)
        if gap is not None:
            if gap > 1e-9:
                failures.append(f"{kind} a={alpha} n={n}: data-processing gap {gap:.3e}")
            margin = min(margin, 1e-9 - gap)
    detail = "all sandwich inequalities hold" if not failures else "; ".join(failures)
    return CheckResult("sandwich", not failures, detail, margin)


def _data_processing_gap(table: JointBlockTable, e: Enclosure) -> float | None:
    """lower(E) minus the certified upper end of the restricted hidden-state
    entropy plus the mixture bound of the pruned mass over the joint support.

    Only meaningful for tables that truncate the level support (the
    aggregated tables cover all levels, where the hidden-state entropy is
    infinite and the comparison is vacuous).
    """
    meta = table.meta
    if meta.get("tail_aggregation") or meta.get("fixed_level"):
        return None
    alpha = meta["alpha"]
    c = normalization_sum(alpha, meta["series_cutoff"]).reciprocal()
    sums = level_weight_sums(alpha, meta["level_cutoff"])
    h_restricted = _restricted_state_entropy(Kind(meta["kind"]), alpha, c, sums).hi
    slack = _mixture_bound(table.pruned_mass.hi, 2 * table.n * math.log2(table.alphabet_size))
    return e.lo - (h_restricted + slack)


def predicate_grid(alphabet: tuple[int, ...]) -> list:
    """20 block-pair predicates: the 12 structural ones, then per-symbol ones.

    Each takes the (count, n) uint8 matrices P and F of the past and future
    blocks of every entry and returns one bool per entry.  "P < F" compares
    the blocks as byte strings: at the first position where they differ."""
    preds = []
    preds.append(_lexicographically_less)
    preds.append(lambda P, F: (P == F).all(1))
    preds.append(lambda P, F: P.sum(1) % 2 == 0)
    preds.append(lambda P, F: F.sum(1) % 2 == 1)
    preds.append(lambda P, F: (P.sum(1) + F.sum(1)) % 3 == 0)
    preds.append(lambda P, F: P[:, 0] == F[:, -1])
    preds.append(lambda P, F: P[:, -1] == F[:, 0])
    preds.append(lambda P, F: (P != P[:, :1]).any(1))
    preds.append(lambda P, F: (F == F[:, :1]).all(1))
    preds.append(lambda P, F: (P[:, : P.shape[1] // 2] == F[:, : F.shape[1] // 2]).all(1))
    preds.append(lambda P, F: P.max(1) >= F.max(1))
    preds.append(lambda P, F: np.ones(len(P), bool))
    for sym in alphabet:
        preds.append(lambda P, F, s=sym: (P == s).any(1))
        preds.append(lambda P, F, s=sym: (F == s).any(1))
        preds.append(lambda P, F, s=sym: P[:, 0] == s)
        preds.append(lambda P, F, s=sym: F[:, -1] == s)
        preds.append(lambda P, F, s=sym: (P == s).sum(1) > (F == s).sum(1))
    # Every alphabet has at least two symbols, so the list holds >= 22.
    return preds[:20]


def _lexicographically_less(P: np.ndarray, F: np.ndarray) -> np.ndarray:
    # Where two rows are equal, `at` is 0 and the symbols there are equal.
    at = (P != F).argmax(1)
    rows = np.arange(len(P))
    return P[rows, at] < F[rows, at]


def check_triple_bound(tables: dict) -> CheckResult:
    failures = []
    worst = 0.0
    margin = math.inf
    for (kind, alpha, n), table in tables.items():
        preds = predicate_grid(tuple(range(table.alphabet_size)))
        for i, (value, mass_in, fixed) in enumerate(_triple_informations(table, preds)):
            h_ind = binary_entropy(mass_in)
            worst = max(worst, abs(value))
            slack = (min(h_ind, 1.0) + 1e-9) - abs(value)
            if abs(value) > h_ind + 1e-9 or abs(value) > 1.0 + 1e-9:
                failures.append(f"{kind} a={alpha} n={n} pred#{i}: |{value:.4f}| > H={h_ind:.4f}")
            # An event each block alone fixes (a constant one among them)
            # meets the bound with equality by construction.
            if slack < 0.0 or not fixed:
                margin = min(margin, slack)
    detail = f"worst |triple| {worst:.4f}" if not failures else "; ".join(failures)
    return CheckResult("triple_bound", not failures, detail, margin)


def check_monotonicity(results: dict) -> CheckResult:
    """Certified intervals must allow a nondecreasing E(n) per (kind, alpha)."""
    by_series: dict = {}
    for (kind, alpha, n), mi in results.items():
        by_series.setdefault((kind, alpha), []).append((n, mi))
    failures = []
    margin = math.inf
    for (kind, alpha), seq in by_series.items():
        seq.sort()
        for (n1, a), (n2, b) in zip(seq, seq[1:]):
            if b.hi < a.lo - 1e-9:
                failures.append(
                    f"{kind} a={alpha}: upper(E({n2}))={b.hi:.4f} < lower(E({n1}))={a.lo:.4f}"
                )
            margin = min(margin, b.hi - (a.lo - 1e-9))
    detail = "intervals consistent with nondecreasing E(n)" if not failures else "; ".join(failures)
    return CheckResult("monotonicity", not failures, detail, margin)


def run_verification(
    alpha: float = 1.5,
    block_lengths=(2, 4, 6, 8),
    series_cutoff: int = 1_000_000,
    windows: int = 100_000,
    decoder_fault: bool = False,
) -> VerificationLedger:
    """Run the whole suite, over every kind at one alpha, at a configurable
    desk scale."""
    ledger = VerificationLedger()
    ledger.checks.append(check_series_brackets())

    tables: dict = {}
    mi_results: dict = {}
    models = {kind: ProcessModel(kind, alpha, series_cutoff=series_cutoff) for kind in Kind}
    for kind, model in models.items():
        for n in block_lengths:
            if kind is Kind.HMC:
                table = enumerate_joint(model, n, 32)
            elif kind is Kind.HPM1:
                table = enumerate_joint(model, n, 1 << 12, tail_aggregation=True)
            else:
                table = enumerate_joint(model, n, max(4, (1 << (n // 2)) - 1))
            tables[(kind, alpha, n)] = table
            mi_results[(kind, alpha, n)] = block_mi(table)

    ledger.checks.append(check_decomposition(tables))
    for kind, model in models.items():
        override = None
        if decoder_fault:
            true_past = past_decoder(kind)

            def override(blocks, _f=true_past):  # deliberately corrupted hook
                v = _f(blocks)
                return np.where(v != 0, v + 1, 0)

        ledger.checks.append(
            check_decoder_agreement(model, windows=windows, past_override=override)
        )
    ledger.checks.append(check_sandwich(tables, series_cutoff))
    small = {k: t for k, t in tables.items() if k[2] <= 8 and len(t.masses) < 50_000}
    ledger.checks.append(check_triple_bound(small))
    ledger.checks.append(check_monotonicity(mi_results))
    return ledger
