"""Self-check suite behind the `verify` command.

Each check returns a named pass/fail entry with a human-readable detail
string; the collection serialises to a machine-readable JSON ledger.  The
checks mirror the library's contracts:

  series_brackets     direct sums of the two bracketed series lie inside
                      their closed-form enclosures;
  decomposition       |E(n) - H(D) - I(past;future|D)| within float roundoff;
  decoder_agreement   past- and future-decoded levels agree on sampled
                      windows and match the hidden truth where defined
                      (the sampled blocks of each block length are
                      numbered once, as a table's are, and decoded in one
                      array call per decoder);
  sandwich            H(D) <= upper(E(n)), lower(E(n)) <= upper bound curve,
                      and the data-processing comparison against the
                      certified upper end of the restricted hidden-state
                      entropy;
  triple_bound        |I(past; future; 1_B)| <= H(1_B) <= 1 over a grid of
                      array predicates, each called once per table on the
                      past and future block matrices of its entries;
  monotonicity        certified E(n) intervals consistent with E nondecreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decoders import (
    _revealed_phases,
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
from .models import Kind, ProcessModel, phase_count
from .sampling import Trajectory, sample_trajectory
from .series import level_weight_sums, normalization_sum, partial_sum_bracket, tail_sum_bracket


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


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


def check_series_brackets(
    alphas=(1.2, 1.5, 1.8, 2.0), points=(2, 2**4, 2**10, 2**20)
) -> CheckResult:
    partials = {n: _direct_sums(2, n + 1, [alpha - 1.0 for alpha in alphas]) for n in points}
    # Telescoping: the tail brackets at n and 2n must enclose the directly
    # summed finite segment [n, 2n).
    segments = {n: _direct_sums(n, 2 * n, alphas) for n in points}
    failures = []
    for i, alpha in enumerate(alphas):
        for n in points:
            br = partial_sum_bracket(alpha, n)
            if not br.lo - 1e-12 <= partials[n][i] <= br.hi + 1e-12:
                failures.append(f"partial alpha={alpha} n={n}")
            near, far = tail_sum_bracket(alpha, n), tail_sum_bracket(alpha, 2 * n)
            if not near.lo - far.hi - 1e-12 <= segments[n][i] <= near.hi - far.lo + 1e-12:
                failures.append(f"tail alpha={alpha} n={n}")
    detail = "all direct sums inside brackets" if not failures else "; ".join(failures)
    return CheckResult("series_brackets", not failures, detail)


def _direct_sums(lo: int, hi: int, exponents) -> list[float]:
    """sum_{lo <= m < hi} 1/(m*log2(m)**e) for each exponent e, from chunks
    of 2**16 terms (so temporaries stay small) added with math.fsum."""
    chunks: list[list[float]] = [[] for _ in exponents]
    for start in range(lo, hi, 1 << 16):
        m = np.arange(start, min(start + (1 << 16), hi), dtype=np.float64)
        log_m = np.log2(m)
        for acc, e in zip(chunks, exponents):
            acc.append(float(np.sum(1.0 / (m * log_m**e))))
    return [math.fsum(acc) for acc in chunks]


def check_decomposition(tables: dict) -> CheckResult:
    failures = []
    worst = 0.0
    for (kind, alpha, n), table in tables.items():
        chk = mi_decomposition_residual(table, kind)
        worst = max(worst, abs(chk.residual))
        if not chk.passed:
            failures.append(
                f"{kind} alpha={alpha} n={n}: residual {chk.residual:.3e} > allowance {chk.allowance:.3e}"
            )
    detail = f"worst residual {worst:.3e}" if not failures else "; ".join(failures)
    return CheckResult("decomposition", not failures, detail)


def check_decoder_agreement(
    model: ProcessModel,
    windows: int = 100_000,
    seed: int = 2024,
    past_override: Callable | None = None,
) -> CheckResult:
    """Compare past-decoded vs future-decoded levels on sampled windows and
    against the hidden truth at the block boundary, on streams 0, 1, ... of
    `seed` with n alternating 6 and 12, 500 windows each.

    Window t's past block is row t of its trajectory's length-n blocks and
    its future block row t + n, so the rows of every trajectory with the same
    n are numbered once (`exact._number_blocks`), each distinct row is decoded
    in one call per decoder, and the windows are counted from those results.
    The truth comes from each trajectory's word record, one run of one level
    at a time, by the revealed-phase rule behind `hidden_truth`."""
    kind = model.kind
    per_traj = 500
    runs: dict[int, list] = {6: [], 12: []}  # (trajectory, window count) per trajectory
    seen = 0
    stream = 0
    while seen < windows:
        n = 6 if stream % 2 == 0 else 12
        count = min(per_traj, windows - seen)
        runs[n].append((sample_trajectory(model, 2 * n + per_traj, seed, stream=stream), count))
        stream += 1
        seen += count
    disagreements = 0
    truth_errors = 0
    truth_hits = 0
    for n, parts in runs.items():
        if not parts:
            continue
        symbols = np.frombuffer(b"".join(t.symbols for t, _ in parts), np.uint8)
        rows = np.lib.stride_tricks.sliding_window_view(symbols.reshape(len(parts), -1), n, axis=1)
        rows = rows[:, : per_traj + n].reshape(-1, n)
        ids, first = _number_blocks(rows)
        ids, distinct = ids.reshape(len(parts), per_traj + n), rows[first]
        # Only the last trajectory sampled may have fewer than per_traj windows.
        count = sum(c for _, c in parts)
        past_of, future_of = ids[:, :per_traj].ravel()[:count], ids[:, n:].ravel()[:count]
        dp = (past_override or past_decoder(kind))(distinct)[past_of]
        df = future_decoder(kind)(distinct)[future_of]
        truth = np.concatenate([_window_truth(t, n, c) for t, c in parts])
        defined = truth != 0
        disagreements += int(np.count_nonzero(dp != df))
        truth_hits += int(np.count_nonzero(defined))
        truth_errors += int(np.count_nonzero(defined & (dp != truth)))
    ok = disagreements == 0 and truth_errors == 0
    detail = (
        f"{seen} windows, {disagreements} past/future disagreements, "
        f"{truth_errors}/{truth_hits} hidden-truth mismatches"
    )
    return CheckResult(f"decoder_agreement[{kind.value}]", ok, detail)


def _window_truth(traj: Trajectory, n: int, count: int) -> np.ndarray:
    """`hidden_truth` of the `count` windows of length 2n starting at 0, 1,
    ... of `traj`: window t has its origin, the last past position, at step
    t + n - 1.  Filled one run of the word record at a time.  A run revealed
    at every phase is filled whole; one revealed at only some phases is a
    single hmc word, whose phases step from `first.phase` without wrapping."""
    kind = Kind(traj.kind)
    truth = np.zeros(count, np.int64)
    lo = n - 1
    for start, stop, first in traj._word_runs():
        revealed = _revealed_phases(kind, first.level, n)
        if len(revealed) < phase_count(kind, first.level):
            start, stop = (
                max(start, start + revealed.start - first.phase),
                min(stop, start + revealed.stop - first.phase),
            )
        a, b = max(start, lo) - lo, min(stop, lo + count) - lo
        if a < b:
            truth[a:b] = first.level
    return truth


def check_sandwich(tables: dict, series_cutoff: int) -> CheckResult:
    failures = []
    for (kind, alpha, n), table in tables.items():
        e = block_mi(table)
        h_d = decoded_level_entropy(kind, alpha, n, series_cutoff)
        if h_d.lo > e.hi + 1e-9:
            failures.append(f"{kind} a={alpha} n={n}: H(D) {h_d.lo:.4f} > E upper {e.hi:.4f}")
        bound = block_mi_upper_bound(kind, alpha, n, series_cutoff)
        if e.lo > bound.hi + 1e-9:
            failures.append(f"{kind} a={alpha} n={n}: E lower {e.lo:.4f} > bound {bound.hi:.4f}")
        gap = _data_processing_gap(table, e)
        if gap is not None and gap > 1e-9:
            failures.append(f"{kind} a={alpha} n={n}: data-processing gap {gap:.3e}")
    detail = "all sandwich inequalities hold" if not failures else "; ".join(failures)
    return CheckResult("sandwich", not failures, detail)


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
    for (kind, alpha, n), table in tables.items():
        preds = predicate_grid(tuple(range(table.alphabet_size)))
        for i, (value, mass_in) in enumerate(_triple_informations(table, preds)):
            h_ind = binary_entropy(mass_in)
            worst = max(worst, abs(value))
            if abs(value) > h_ind + 1e-9 or abs(value) > 1.0 + 1e-9:
                failures.append(f"{kind} a={alpha} n={n} pred#{i}: |{value:.4f}| > H={h_ind:.4f}")
    detail = f"worst |triple| {worst:.4f}" if not failures else "; ".join(failures)
    return CheckResult("triple_bound", not failures, detail)


def check_monotonicity(results: dict) -> CheckResult:
    """Certified intervals must allow a nondecreasing E(n) per (kind, alpha)."""
    by_series: dict = {}
    for (kind, alpha, n), mi in results.items():
        by_series.setdefault((kind, alpha), []).append((n, mi))
    failures = []
    for (kind, alpha), seq in by_series.items():
        seq.sort()
        for (n1, a), (n2, b) in zip(seq, seq[1:]):
            if b.hi < a.lo - 1e-9:
                failures.append(
                    f"{kind} a={alpha}: upper(E({n2}))={b.hi:.4f} < lower(E({n1}))={a.lo:.4f}"
                )
    detail = "intervals consistent with nondecreasing E(n)" if not failures else "; ".join(failures)
    return CheckResult("monotonicity", not failures, detail)


def run_verification(
    kinds=(Kind.HPM1, Kind.HPM2, Kind.HMC),
    alphas=(1.5, 2.0),
    block_lengths=(2, 4, 6, 8),
    series_cutoff: int = 1_000_000,
    windows: int = 100_000,
    decoder_fault: bool = False,
) -> VerificationLedger:
    """Run the whole suite at a configurable desk scale."""
    ledger = VerificationLedger()
    ledger.checks.append(check_series_brackets())

    tables: dict = {}
    mi_results: dict = {}
    for kind in kinds:
        kind = Kind(kind)
        for alpha in alphas:
            model = ProcessModel(kind, alpha, series_cutoff=series_cutoff)
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
    for kind in kinds:
        kind = Kind(kind)
        model = ProcessModel(kind, alphas[0], series_cutoff=series_cutoff)
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
