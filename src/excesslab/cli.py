"""Command-line frontend.

Subcommands:

  exact      certified E(n) sweep -> CSV
  estimate   sampled E(n) estimates -> CSV
  verify     invariant suite -> JSON ledger (exit code 0 iff all pass)
  fit        growth-rate fit of a computed series -> JSON report
  info       model constants and predicted growth class

Configuration can come from a JSON file (--config PATH); command-line flags
override file values.  Every run writes a manifest.json carrying the full
effective configuration and the library version.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    REGRESSORS,
    block_mi_upper_bound,
    default_regressor,
    fit_rate,
    predicted_rate_class,
    write_series_csv,
)
from .decoders import decoded_level_entropy
from .exact import (
    DEFAULT_ENTRY_BUDGET,
    DEFAULT_PATH_BUDGET,
    BudgetExceededError,
    block_mi,
    enumerate_joint,
)
from .models import DEFAULT_SERIES_CUTOFF, Kind, ProcessModel
from .sampling import estimate_block_mi, sample_trajectories, sample_trajectory
from .verify import run_verification

DEFAULT_HMC_CUTOFF = 64


@dataclasses.dataclass
class RunConfig:
    process: str = "hpm1"
    alpha: float = 1.5
    block_lengths: list[int] = dataclasses.field(default_factory=lambda: [2, 4, 8])
    level_cutoff: int | None = None
    prune_eps: float = 0.0
    seeds: list[int] = dataclasses.field(default_factory=lambda: [0])
    estimator: str = "plugin"
    output_dir: str = "runs"
    series_cutoff: int = DEFAULT_SERIES_CUTOFF
    tail_aggregation: bool | None = None
    trajectories: int = 10_000
    trajectory_length: int | None = None
    bootstrap: int = 64
    windows: int = 100_000
    path_budget: int = DEFAULT_PATH_BUDGET
    entry_budget: int = DEFAULT_ENTRY_BUDGET
    regressor: str = "auto"
    source: str = "exact"

    def validate(self) -> None:
        if self.process not in (k.value for k in Kind):
            raise ValueError(f"unknown process {self.process!r}; expected hpm1, hpm2 or hmc")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not self.block_lengths:
            raise ValueError("block length list must not be empty")
        if any(b <= a for a, b in zip(self.block_lengths, self.block_lengths[1:])):
            raise ValueError("block lengths must be strictly increasing")
        if self.block_lengths[0] < 1:
            raise ValueError("block lengths must be >= 1")
        if not 0.0 <= self.prune_eps < 1.0:
            raise ValueError(f"prune threshold must lie in [0, 1), got {self.prune_eps}")
        # A count below its floor would make a run check or sample nothing.
        counts = ("windows", "trajectories", "trajectory_length", "path_budget", "entry_budget")
        for name, floor in {**dict.fromkeys(counts, 1), "bootstrap": 0}.items():
            value = getattr(self, name)
            if value is not None and value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        if not self.seeds:
            raise ValueError("seed list must not be empty")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            raise ValueError(f"seeds must be >= 0, got {negative[0]}")
        if self.estimator not in ("plugin", "miller_madow"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.regressor not in ("auto",) + REGRESSORS:
            raise ValueError(f"unknown regressor {self.regressor!r}")
        if self.source not in ("exact", "closed_form"):
            raise ValueError(f"unknown fit source {self.source!r}")

    def model(self) -> ProcessModel:
        return ProcessModel(self.process, self.alpha, series_cutoff=self.series_cutoff)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data: dict = {}
    if path:
        data.update(json.loads(Path(path).read_text()))
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    # A null means the default: older manifests stored a null prune_eps.
    cfg = RunConfig(**{k: v for k, v in data.items() if k in known and v is not None})
    cfg.validate()
    return cfg


def _write_manifest(
    out: Path, command: str, config: RunConfig, outputs: list[str], resolved: object = None
) -> None:
    """`resolved` records the configuration the command actually ran with,
    where `config` leaves it to the per-kind defaults (null) or the command
    adjusts it."""
    manifest = {
        "command": command,
        "version": __version__,
        "config": config.to_dict(),
        "outputs": outputs,
    }
    if resolved is not None:
        manifest["resolved"] = resolved
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _resolved_rows(rows: list[dict]) -> list[dict]:
    """What `_exact_row` resolved per block length; the manifest records it."""
    return [{k: r[k] for k in ("n", "level_cutoff", "prune_eps", "tail_aggregation")} for r in rows]


def _auto_cutoff(config: RunConfig, n: int) -> int:
    if config.level_cutoff is not None:
        return config.level_cutoff
    kind = Kind(config.process)
    if kind is Kind.HMC:
        return DEFAULT_HMC_CUTOFF
    if kind is Kind.HPM2:
        return max(4, (1 << (n // 2)) - 1)
    return 1 << 12


def _exact_row(config: RunConfig, n: int) -> dict:
    kind = Kind(config.process)
    model = config.model()
    cutoff = _auto_cutoff(config, n)
    aggregate = config.tail_aggregation
    if aggregate is None:
        aggregate = kind is Kind.HPM1
    row = {
        "kind": config.process,
        "alpha": config.alpha,
        "n": n,
        "source": "exact",
        "level_cutoff": cutoff,
        "prune_eps": config.prune_eps,
        "tail_aggregation": aggregate,
        "status": "ok",
    }
    try:
        table = enumerate_joint(
            model,
            n,
            cutoff,
            config.prune_eps,
            tail_aggregation=aggregate,
            path_budget=config.path_budget,
            entry_budget=config.entry_budget,
        )
    except BudgetExceededError as exc:
        row["status"] = f"skipped: {exc}"  # its value columns are written empty
        return row
    mi = block_mi(table)
    row.update(
        {
            "value": mi.value,
            "err_low": mi.value - mi.lo,
            "err_high": mi.hi - mi.value,
            "entries": len(table.entries),
            "pruned_mass_hi": table.pruned_mass.hi,
        }
    )
    return row


def cmd_exact(config: RunConfig, out: Path) -> int:
    rows = [_exact_row(config, n) for n in config.block_lengths]
    path = out / "exact.csv"
    write_series_csv(
        rows, path, extra_columns=("entries", "pruned_mass_hi", "level_cutoff", "prune_eps", "status")
    )
    _write_manifest(out, "exact", config, [path.name], _resolved_rows(rows))
    skipped = [r for r in rows if r["status"] != "ok"]
    for r in skipped:
        print(f"n={r['n']}: {r['status']}", file=sys.stderr)
    print(f"wrote {path} ({len(rows)} rows, {len(skipped)} skipped)")
    return 0


def _estimate_row(config: RunConfig, n: int, seed: int) -> dict:
    kind = Kind(config.process)
    model = config.model()
    if kind is Kind.HMC:
        length = config.trajectory_length or max(4 * n, 100_000)
        traj = sample_trajectory(model, length, seed)
        report = estimate_block_mi(
            traj, n, method=config.estimator, bootstrap_resamples=config.bootstrap
        )
    else:
        length = config.trajectory_length or 2 * n
        trajs = sample_trajectories(model, config.trajectories, length, seed)
        report = estimate_block_mi(
            trajs, n, method=config.estimator, bootstrap_resamples=config.bootstrap
        )
    return {
        "kind": config.process,
        "alpha": config.alpha,
        "n": n,
        "seed": seed,
        "value": report.point_estimate,
        "err_low": report.std_error,
        "err_high": report.std_error,
        "source": "sampled",
        "std_error": report.std_error,
        "sample_count": report.sample_count,
        "method": report.method,
        "regime": report.regime,
        "trajectories": report.trajectory_count,
        "trajectory_length": length,
    }


def cmd_estimate(config: RunConfig, out: Path) -> int:
    rows = [_estimate_row(config, n, seed) for n in config.block_lengths for seed in config.seeds]
    path = out / "estimate.csv"
    write_series_csv(
        rows,
        path,
        extra_columns=("seed", "std_error", "sample_count", "method", "regime", "trajectories"),
    )
    # The trajectory length and regime depend on n alone, not on the seed.
    resolved = {r["n"]: {k: r[k] for k in ("n", "trajectory_length", "regime")} for r in rows}
    _write_manifest(out, "estimate", config, [path.name], list(resolved.values()))
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_verify(config: RunConfig, out: Path, decoder_fault: bool = False) -> int:
    # The suite always exercises all three kinds; alpha comes from the config.
    # Its tables are desk-scale: n <= 12, series cutoff <= 1e6.
    block_lengths = [b for b in config.block_lengths if b <= 12] or [2, 4, 6, 8]
    series_cutoff = min(config.series_cutoff, 1_000_000)
    dropped = [b for b in config.block_lengths if b > 12]
    if dropped:
        print(f"verify: dropped n = {dropped} (above 12); ran n = {block_lengths}", file=sys.stderr)
    ledger = run_verification(
        kinds=tuple(Kind),
        alphas=(config.alpha,),
        block_lengths=tuple(block_lengths),
        series_cutoff=series_cutoff,
        windows=config.windows,
        decoder_fault=decoder_fault,
    )
    path = out / "verify.json"
    payload = ledger.to_dict()
    payload["version"] = __version__
    payload["config"] = config.to_dict()
    path.write_text(json.dumps(payload, indent=2))
    resolved = {"block_lengths": block_lengths, "series_cutoff": series_cutoff}
    _write_manifest(out, "verify", config, [path.name], resolved)
    for check in ledger.checks:
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}: {check.detail}")
    print(f"wrote {path}")
    return 0 if ledger.all_passed else 1


def cmd_fit(config: RunConfig, out: Path) -> int:
    kind = Kind(config.process)
    points = []
    sources = []
    rows = None
    if config.source == "closed_form":
        # the revealed-level entropy: the exact lower-bound series with the
        # same growth class, available far beyond exact-enumeration reach
        for n in config.block_lengths:
            mi = decoded_level_entropy(kind, config.alpha, n, config.series_cutoff)
            points.append((n, mi.value))
            sources.append("closed_form")
    else:
        rows = [_exact_row(config, n) for n in config.block_lengths]
        for n, row in zip(config.block_lengths, rows):
            if row["status"] != "ok":
                print(f"n={n}: {row['status']}", file=sys.stderr)
                continue
            points.append((n, row["value"]))
            sources.append("exact")
    regressor, beta = (
        default_regressor(kind, config.alpha)
        if config.regressor == "auto"
        else (config.regressor, 2.0 - config.alpha if config.regressor == "logpow" else None)
    )
    report = fit_rate(
        points,
        regressor,
        beta=beta,
        kind=config.process,
        alpha=config.alpha,
        sources=sources,
    )
    path = out / "fit.json"
    payload = report.to_dict()
    payload["version"] = __version__
    payload["config"] = config.to_dict()
    path.write_text(json.dumps(payload, indent=2))
    _write_manifest(out, "fit", config, [path.name], rows and _resolved_rows(rows))
    print(report.to_json())
    print(f"wrote {path}")
    return 0


def cmd_info(config: RunConfig) -> int:
    model = config.model()
    c = model.norm_c
    print(f"process:        {config.process}")
    print(f"alpha:          {config.alpha}")
    print(f"alphabet:       {model.alphabet}")
    print(f"norm constant:  [{c.lo:.12f}, {c.hi:.12f}] (width {c.width:.3e})")
    if model.kind is Kind.HMC:
        d = model.norm_d
        print(f"branch const:   [{d.lo:.12f}, {d.hi:.12f}] (width {d.width:.3e})")
    cls = predicted_rate_class(model.kind, config.alpha)
    print(f"growth class:   {cls['family']}" + (f"({cls['exponent']:g})" if cls["exponent"] else ""))
    for n in config.block_lengths[:4]:
        bound = block_mi_upper_bound(model.kind, config.alpha, n, config.series_cutoff)
        print(f"E({n}) upper bound: {bound.hi:.4f}")
    print(f"version:        {__version__}")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(" ", "").split(",") if x]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excesslab",
        description="Certified block mutual information of heavy-tailed hidden Markov processes.",
    )
    parser.add_argument("--version", action="version", version=f"excesslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--process", choices=[k.value for k in Kind], help="process kind (default hpm1)")
        p.add_argument("--alpha", type=float, help="tail exponent in (1, 2] (default 1.5)")
        p.add_argument("--n", dest="block_lengths", type=_int_list, help="block lengths, e.g. 2,4,8")
        p.add_argument("--level-cutoff", dest="level_cutoff", type=int, help="level support cutoff (default: auto per kind)")
        p.add_argument("--prune-eps", dest="prune_eps", type=float, help="path pruning threshold for the ergodic kind (default 0)")
        p.add_argument("--seed", dest="seeds", type=_int_list, help="seeds, e.g. 0,1,2")
        p.add_argument("--out", dest="output_dir", help="output directory (default runs)")
        p.add_argument("--series-cutoff", dest="series_cutoff", type=int, help="normalization series cutoff (default 1e7)")

    p_exact = sub.add_parser("exact", help="certified E(n) sweep to CSV")
    common(p_exact)
    p_exact.add_argument("--tail-aggregation", dest="tail_aggregation", action="store_true", default=None)
    p_exact.add_argument("--no-tail-aggregation", dest="tail_aggregation", action="store_false")

    p_est = sub.add_parser("estimate", help="sampled E(n) estimates to CSV")
    common(p_est)
    p_est.add_argument("--estimator", choices=["plugin", "miller_madow"])
    p_est.add_argument("--trajectories", type=int, help="pooled trajectory count (default 10000)")
    p_est.add_argument("--length", dest="trajectory_length", type=int, help="trajectory length")
    p_est.add_argument("--bootstrap", type=int, help="bootstrap resamples (default 64)")

    p_ver = sub.add_parser("verify", help="run the invariant suite, write a JSON ledger")
    common(p_ver)
    p_ver.add_argument("--windows", type=int, help="decoder-agreement windows per kind")
    p_ver.add_argument("--inject-decoder-fault", action="store_true", help=argparse.SUPPRESS)

    p_fit = sub.add_parser("fit", help="fit a growth law, write a JSON report")
    common(p_fit)
    p_fit.add_argument("--regressor", choices=["auto"] + list(REGRESSORS))
    p_fit.add_argument("--source", choices=["exact", "closed_form"])

    p_info = sub.add_parser("info", help="print model constants and growth class")
    common(p_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "inject_decoder_fault") and v is not None
    }
    try:
        config = load_config(args.config, overrides)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        parser.error(str(exc))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "exact":
            return cmd_exact(config, out)
        if args.command == "estimate":
            return cmd_estimate(config, out)
        if args.command == "verify":
            return cmd_verify(config, out, decoder_fault=args.inject_decoder_fault)
        if args.command == "fit":
            return cmd_fit(config, out)
        if args.command == "info":
            return cmd_info(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
