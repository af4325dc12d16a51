"""The benchmark's four workloads: their operations, spans, counts and checks.

A workload is a list of operations.  Each operation calls excesslab's public
functions on generated inputs, wrapping every call into a layer in a span,
and turns what the calls returned into observations.  An observation is one
attempted operation: it fails when the output shows a failure by itself (a
budget stop, a failed decomposition residual, lost probability mass, a
non-finite value) or when it disagrees with the pinned reference data in
reference.json.  `judge` holds that comparison; `pin.py` writes the data.

Workloads, and why each was chosen (NOTES.md has the measurements):

  hmc-exact     the ergodic kind's best-first path enumeration, about half
                the work, plus the table reductions over its large tables;
  cyclic-exact  the cyclic kinds: no path expansion, only per-entry table
                reduction and decoding, plus the closed-form series sums;
  estimate      sampling and the plug-in estimator with its bootstrap, in
                the pooled (hpm2) and sliding (hmc) regimes;
  verify        `excesslab verify` through `cli.main`: the only workload
                that decodes sampled windows, and the only one that runs
                the `verify` and `cli` layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from excesslab import (
    BudgetExceededError,
    block_mi,
    block_mi_upper_bound,
    cli,
    decoded_level_entropy,
    default_regressor,
    enumerate_joint,
    estimate_block_mi,
    fit_rate,
    mi_decomposition_residual,
    sample_trajectories,
    sample_trajectory,
)
from excesslab import verify as xverify
from excesslab.models import DEFAULT_SERIES_CUTOFF, Kind, ProcessModel

from tracing import NULL_TRACER

WORKLOADS = ("hmc-exact", "cyclic-exact", "estimate", "verify")

ALPHA = {"hmc-exact": 1.5, "cyclic-exact": 2.0, "estimate": 1.5, "verify": 1.5}

# `excesslab verify` clamps the series cutoff to 1e6; every other command
# builds its models at the default cutoff.
VERIFY_SERIES_CUTOFF = 1_000_000
SERIES_CUTOFF = {w: DEFAULT_SERIES_CUTOFF for w in WORKLOADS} | {"verify": VERIFY_SERIES_CUTOFF}

HMC_LEVEL_CUTOFF = 64  # the `exact` command's and the acceptance tests' hmc cutoff
HPM1_LEVEL_CUTOFF = 1 << 12  # the `exact` command's hpm1 cutoff, with tail aggregation
VERIFY_HMC_LEVEL_CUTOFF = 32  # what run_verification uses for hmc tables
ESTIMATE_N = 8

# A certified interval may grow by this share of its pinned width (outward
# rounding moves endpoints by ulps) before the point counts as widened.
WIDTH_SLACK_REL = 1e-6
WIDTH_SLACK_ABS = 1e-12


@dataclass(frozen=True)
class Scale:
    hmc_points: tuple[tuple[int, float], ...]  # (n, prune_eps), level cutoff 64
    hpm1_ns: tuple[int, ...]
    hpm2_ns: tuple[int, ...]
    closed_form_ns: tuple[int, ...]
    trajectories: int  # pooled regime: trajectories of length 2n
    sliding_length: int  # sliding regime: one trajectory
    bootstrap: int
    verify_ns: tuple[int, ...]
    verify_windows: int


SCALES = {
    # The measured scale.  Points are chosen so that one pass takes a few
    # seconds and a run repeats every operation several times.
    "full": Scale(
        hmc_points=((4, 0.0), (6, 0.0), (8, 0.0), (8, 1e-7)),
        hpm1_ns=(8, 16, 32, 64, 128),
        hpm2_ns=(8, 12, 16, 20, 24),
        closed_form_ns=(4, 8, 16, 32, 64),
        trajectories=10_000,
        sliding_length=100_000,
        bootstrap=64,
        verify_ns=(2, 4, 8),
        verify_windows=100_000,
    ),
    # For the benchmark's own smoke tests only.
    "tiny": Scale(
        hmc_points=((4, 0.0),),
        hpm1_ns=(4, 8, 16, 32),
        hpm2_ns=(8, 10, 12, 14),
        closed_form_ns=(4, 8),
        trajectories=200,
        sliding_length=2_000,
        bootstrap=8,
        verify_ns=(2, 4),
        verify_windows=1_000,
    ),
}


@dataclass
class Observation:
    """One attempted operation's output, as the checks see it."""

    key: str  # names the operation; also its key in the pinned reference
    kind: str  # "interval", "estimate", "check" or "fit"
    value: object
    error: str | None = None  # a failure the output shows by itself


@dataclass
class Op:
    name: str  # span and timing name
    run: Callable  # (tracer, pass_state) -> result
    observe: Callable  # result -> list[Observation]
    counts: Callable | None = None  # result -> {count: value}, traced runs only


@dataclass
class Workload:
    ops: list[Op]
    probe: Callable | None = None  # (tracer) -> (observations, counts), traced runs only


def setup(alpha: float, series_cutoff: int, tr=NULL_TRACER) -> dict[Kind, ProcessModel]:
    """What every fresh process pays before its first result: the three
    models and their cold series constants."""
    models = {kind: ProcessModel(kind, alpha, series_cutoff=series_cutoff) for kind in Kind}
    with tr.span("series.normalization_sum"):
        models[Kind.HPM1].norm_c
    with tr.span("series.branch_normalization_sum"):
        models[Kind.HMC].norm_d
    return models


def build(name: str, scale: Scale, seed: int, models, out_dir: Path, decoder_fault=False) -> Workload:
    """The workload's operations on inputs generated from `seed`.

    Only the estimate workload has random input, sampled with `seed`.  The
    certified workloads have none, and the verify command fixes its own
    sampling seed; their points run in a fixed order, so that memory use
    repeats from run to run.
    """
    alpha = ALPHA[name]
    probe = None
    if name == "hmc-exact":
        ops = [
            _exact_op(models[Kind.HMC], n, HMC_LEVEL_CUTOFF, eps, False)
            for n, eps in scale.hmc_points
        ]
    elif name == "cyclic-exact":
        ops = [_exact_op(models[Kind.HPM1], n, HPM1_LEVEL_CUTOFF, 0.0, True) for n in scale.hpm1_ns]
        ops += [
            _exact_op(models[Kind.HPM2], n, max(4, (1 << (n // 2)) - 1), 0.0, False)
            for n in scale.hpm2_ns
        ]
        ops += [_closed_form_op(kind, alpha, n) for kind in Kind for n in scale.closed_form_ns]
        # The fits read the series that the exact points of the same pass produced.
        ops += [_fit_op(Kind.HPM1, alpha), _fit_op(Kind.HPM2, alpha)]
    elif name == "estimate":
        ops = [_pooled_op(models[Kind.HPM2], scale, seed), _sliding_op(models[Kind.HMC], scale, seed)]
        probe = lambda tr: _estimate_probe(tr, models, scale, seed)  # noqa: E731
    elif name == "verify":
        ops = [_verify_op(alpha, scale, out_dir, decoder_fault)]
        probe = lambda tr: _verify_probe(tr, models, alpha, scale)  # noqa: E731
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return Workload(ops, probe)


# ----- certified workloads -----------------------------------------------------


def _exact_op(model: ProcessModel, n: int, cutoff: int, eps: float, aggregate: bool) -> Op:
    kind = model.kind
    key = f"block_mi {kind.value} a={model.alpha:g} n={n} cutoff={cutoff} eps={eps:g}"

    def run(tr, state):
        try:
            with tr.span(f"exact.enumerate_joint.{kind.value}"):
                table = enumerate_joint(model, n, cutoff, eps, tail_aggregation=aggregate)
        except BudgetExceededError as exc:
            return exc
        with tr.span("exact.block_mi"):
            mi = block_mi(table)
        with tr.span("decoders.mi_decomposition_residual"):
            dec = mi_decomposition_residual(table, kind)
        state.setdefault(kind, []).append((n, mi.value))
        return table, mi, dec

    def observe(result):
        if isinstance(result, BudgetExceededError):
            return [Observation(key, "interval", None, f"budget exceeded: {result}")]
        table, mi, dec = result
        error = None
        if not dec.passed:
            error = f"decomposition residual {dec.residual:.3e} > allowance {dec.allowance:.3e}"
        elif not table.conservation_interval().contains(1.0):
            error = f"conservation interval {table.conservation_interval()} excludes 1"
        return [Observation(key, "interval", (mi.lower, mi.upper), error)]

    def counts(result):
        if isinstance(result, BudgetExceededError):
            return {}
        table, mi, _ = result
        return _table_counts(kind, table, mi)

    return Op(key, run, observe, counts)


def _table_counts(kind: Kind, table, mi) -> dict:
    k = kind.value
    return {
        f"exact.entries.{k}": len(table.entries),
        f"exact.distinct_blocks.{k}": len(table.past_marginal()) + len(table.future_marginal()),
        f"exact.pruned_mass_hi.{k}": table.pruned_mass.hi,
        f"width_bits.{k}": mi.width,
    }


def _closed_form_op(kind: Kind, alpha: float, n: int) -> Op:
    name = f"closed_form {kind.value} a={alpha:g} n={n}"

    def run(tr, state):
        with tr.span("decoders.decoded_level_entropy"):
            h_d = decoded_level_entropy(kind, alpha, n)
        with tr.span("analysis.block_mi_upper_bound"):
            bound = block_mi_upper_bound(kind, alpha, n)
        return h_d, bound

    def observe(result):
        h_d, bound = result
        return [
            Observation(f"decoded_level_entropy {kind.value} a={alpha:g} n={n}", "interval", (h_d.lower, h_d.upper)),
            Observation(f"block_mi_upper_bound {kind.value} a={alpha:g} n={n}", "interval", (bound.lo, bound.hi)),
        ]

    return Op(name, run, observe)


def _fit_op(kind: Kind, alpha: float) -> Op:
    name = f"fit_rate {kind.value} a={alpha:g}"

    def run(tr, state):
        regressor, beta = default_regressor(kind, alpha)
        with tr.span("analysis.fit_rate"):
            return fit_rate(sorted(state[kind]), regressor, beta=beta, kind=kind.value, alpha=alpha)

    def observe(report):
        values = (report.fitted_slope, report.intercept, report.r_squared)
        error = None
        if not all(math.isfinite(v) for v in values) or report.fitted_slope <= 0:
            error = f"fit slope {report.fitted_slope}, intercept {report.intercept}, r2 {report.r_squared}"
        return [Observation(name, "fit", values, error)]

    return Op(name, run, observe)


# ----- estimate ----------------------------------------------------------------


def _estimate_key(regime: str, kind: Kind, alpha: float, size: int, bootstrap: int) -> str:
    unit = "trajectories" if regime == "pooled" else "length"
    return f"estimate.{regime} {kind.value} a={alpha:g} n={ESTIMATE_N} {unit}={size} bootstrap={bootstrap}"


def _estimate_observe(key: str):
    def observe(report):
        v, se = report.point_estimate, report.std_error
        error = None
        if not (math.isfinite(v) and math.isfinite(se)):
            error = f"estimate {v} +- {se}"
        elif v < -1e-9:
            error = f"plug-in estimate {v} is negative"
        return [Observation(key, "estimate", (v, se), error)]

    return observe


def _pooled_op(model: ProcessModel, scale: Scale, seed: int) -> Op:
    def run(tr, state):
        with tr.span("sampling.sample_trajectories"):
            trajs = sample_trajectories(model, scale.trajectories, 2 * ESTIMATE_N, seed)
        with tr.span("sampling.estimate_block_mi.pooled"):
            return estimate_block_mi(trajs, ESTIMATE_N, bootstrap_resamples=scale.bootstrap)

    key = _estimate_key("pooled", model.kind, model.alpha, scale.trajectories, scale.bootstrap)
    return Op("estimate.pooled", run, _estimate_observe(key), lambda r: {"sampling.windows.pooled": r.sample_count})


def _sliding_op(model: ProcessModel, scale: Scale, seed: int) -> Op:
    def run(tr, state):
        with tr.span("sampling.sample_trajectory"):
            traj = sample_trajectory(model, scale.sliding_length, seed)
        with tr.span("sampling.estimate_block_mi.sliding"):
            return estimate_block_mi(traj, ESTIMATE_N, bootstrap_resamples=scale.bootstrap)

    key = _estimate_key("sliding", model.kind, model.alpha, scale.sliding_length, scale.bootstrap)
    return Op("estimate.sliding", run, _estimate_observe(key), lambda r: {"sampling.windows.sliding": r.sample_count})


def _estimate_probe(tr, models, scale: Scale, seed: int):
    """Repeat each estimate without the bootstrap, so that the bootstrap's
    share is measured from outside: estimate time minus this time."""
    trajs = sample_trajectories(models[Kind.HPM2], scale.trajectories, 2 * ESTIMATE_N, seed)
    with tr.span("sampling.estimate_block_mi.pooled.no_bootstrap"):
        estimate_block_mi(trajs, ESTIMATE_N, bootstrap_resamples=0)
    traj = sample_trajectory(models[Kind.HMC], scale.sliding_length, seed)
    with tr.span("sampling.estimate_block_mi.sliding.no_bootstrap"):
        estimate_block_mi(traj, ESTIMATE_N, bootstrap_resamples=0)
    return [], {}


# ----- verify ------------------------------------------------------------------


def _verify_key(scale: Scale, check: str) -> str:
    ns = ",".join(map(str, scale.verify_ns))
    return f"verify n={ns} windows={scale.verify_windows}: {check}"


def _verify_op(alpha: float, scale: Scale, out_dir: Path, decoder_fault: bool) -> Op:
    argv = [
        "verify",
        "--alpha", str(alpha),
        "--n", ",".join(map(str, scale.verify_ns)),
        "--windows", str(scale.verify_windows),
        "--out", str(out_dir),
    ]
    if decoder_fault:
        argv.append("--inject-decoder-fault")

    def run(tr, state):
        with contextlib.redirect_stdout(io.StringIO()):
            with tr.span("cli.main"):
                code = cli.main(argv)
        return code, json.loads((out_dir / "verify.json").read_text())

    def observe(result):
        code, ledger = result
        obs = [
            Observation(_verify_key(scale, c["name"]), "check", c["passed"], None if c["passed"] else c["detail"])
            for c in ledger["checks"]
        ]
        if code != (0 if ledger["all_passed"] else 1):
            obs.append(Observation("verify exit code", "check", False, f"exit code {code} disagrees with the ledger"))
        return obs

    return Op("verify", run, observe)


def _verify_probe(tr, models, alpha: float, scale: Scale):
    """Call each check `run_verification` runs directly, with the arguments it
    passes, so that each check gets a span of its own."""
    tables, results = {}, {}
    with tr.span("verify.build_tables"):
        for kind in Kind:
            model = models[kind]
            for n in scale.verify_ns:
                with tr.span(f"exact.enumerate_joint.{kind.value}"):
                    if kind is Kind.HMC:
                        table = enumerate_joint(model, n, VERIFY_HMC_LEVEL_CUTOFF, 0.0)
                    elif kind is Kind.HPM1:
                        table = enumerate_joint(model, n, HPM1_LEVEL_CUTOFF, tail_aggregation=True)
                    else:
                        table = enumerate_joint(model, n, max(4, (1 << (n // 2)) - 1))
                table.meta["series_cutoff"] = VERIFY_SERIES_CUTOFF
                tables[(kind, alpha, n)] = table
                with tr.span("exact.block_mi"):
                    results[(kind, alpha, n)] = block_mi(table)

    checks = []
    with tr.span("verify.check_series_brackets"):
        checks.append(xverify.check_series_brackets())
    with tr.span("verify.check_decomposition"):
        checks.append(xverify.check_decomposition(tables))
    for kind in Kind:
        with tr.span("verify.check_decoder_agreement"):
            checks.append(xverify.check_decoder_agreement(models[kind], windows=scale.verify_windows))
    with tr.span("verify.check_sandwich"):
        checks.append(xverify.check_sandwich(tables, VERIFY_SERIES_CUTOFF))
    small = {k: t for k, t in tables.items() if k[2] <= 8 and len(t.entries) < 50_000}
    with tr.span("verify.check_triple_bound"):
        checks.append(xverify.check_triple_bound(small))
    with tr.span("verify.check_monotonicity"):
        checks.append(xverify.check_monotonicity(results))

    observations = [
        Observation(_verify_key(scale, c.name), "check", c.passed, None if c.passed else c.detail)
        for c in checks
    ]
    counts: dict = {"verify.windows": 0}
    for c in checks:
        if c.name.startswith("decoder_agreement"):
            counts["verify.windows"] += int(re.match(r"(\d+) windows", c.detail).group(1))
    for key, table in tables.items():
        merge_counts(counts, _table_counts(key[0], table, results[key]))
    return observations, counts


# ----- checks and counts -------------------------------------------------------


def merge_counts(acc: dict, new: dict) -> None:
    """Widths and pruned masses keep their maximum; other counts add up."""
    for name, value in new.items():
        if name.startswith(("width_bits.", "exact.pruned_mass_hi.")):
            acc[name] = max(acc.get(name, 0.0), value)
        else:
            acc[name] = acc.get(name, 0) + value


def judge(obs: Observation, reference: dict) -> str | None:
    """Why the observation fails, or None when it passes."""
    if obs.error:
        return obs.error
    if obs.kind == "fit":
        return None
    pinned = reference[obs.kind].get(obs.key)
    if pinned is None:
        return "no pinned reference"
    if obs.kind == "check":
        return None if obs.value == pinned else f"passed={obs.value}, pinned passed={pinned}"
    if obs.kind == "estimate":
        value, _ = obs.value
        lo = pinned["value"] - pinned["below_se"] * pinned["se"]
        hi = pinned["value"] + pinned["above_se"] * pinned["se"]
        if not lo <= value <= hi:
            return (
                f"estimate {value:.6g} outside [{lo:.6g}, {hi:.6g}]: the pinned {pinned['value']:.6g} "
                f"minus {pinned['below_se']:g} or plus {pinned['above_se']:g} pinned bootstrap SEs"
            )
        return None
    lo, hi = obs.value
    plo, phi = pinned
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return f"non-finite interval [{lo}, {hi}]"
    if hi < plo or phi < lo:
        return f"[{lo:.9g}, {hi:.9g}] misses the pinned [{plo:.9g}, {phi:.9g}]"
    if hi - lo > (phi - plo) * (1.0 + WIDTH_SLACK_REL) + WIDTH_SLACK_ABS:
        return f"width {hi - lo:.9g} exceeds the pinned width {phi - plo:.9g}"
    return None
