"""excesslab benchmark: one workload in one fresh, single-threaded process.

    python3 perfbench/run.py --workload hmc-exact --seed 0 --seconds 20 --trace 0

Workloads: hmc-exact, cyclic-exact, estimate and verify (see workloads.py
and NOTES.md).  A run times the set-up of fresh processes, runs a warm-up
pass at the tiny scale, then repeats passes of the workload for --seconds,
with its times rescaled to reference speed (see SpeedProbe).  Every output
is checked against the pinned data in reference.json.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1.  The line before it
is the run record (machine, git SHA, seed, thread pinning).  The record,
the per-operation times and, when traced, the spans are also written to
perfbench/out/<workload>-seed<seed>-trace<0|1>.json.
"""

import os

# Pin every thread pool before numpy loads, in this process and the set-up
# processes it starts, so that a 2-core machine measures the program and
# not the scheduler.
THREAD_ENV = {
    "EXCESSLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

if not (SRC / "excesslab" / "__init__.py").is_file():
    sys.exit(f"error: no excesslab sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import excesslab  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL_TRACER, Tracer, layer_table, sums_by_name  # noqa: E402

SETUP_REPS = 5  # fresh processes per run; setup_s is their median

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

KINDS = ("hpm1", "hpm2", "hmc")
VERIFY_CHECKS = (
    "verify.check_series_brackets",
    "verify.check_decomposition",
    "verify.check_decoder_agreement",
    "verify.check_sandwich",
    "verify.check_triple_bound",
    "verify.check_monotonicity",
)
# Span names whose summed duration per pass is a per-layer metric (name + "_s").
SPAN_METRICS = (
    "series.normalization_sum",
    "series.branch_normalization_sum",
    *(f"exact.enumerate_joint.{k}" for k in KINDS),
    "exact.block_mi",
    "decoders.mi_decomposition_residual",
    "decoders.decoded_level_entropy",
    "analysis.block_mi_upper_bound",
    "analysis.fit_rate",
    "sampling.sample_trajectories",
    "sampling.estimate_block_mi.pooled",
    "sampling.sample_trajectory",
    "sampling.estimate_block_mi.sliding",
    "estimate.pooled",
    "estimate.sliding",
    *VERIFY_CHECKS,
    "cli.main",
)
DERIVED_METRICS = (
    "sampling.bootstrap.pooled_s",
    "sampling.bootstrap.sliding_s",
    "cli.verify_overhead_s",
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
)
COUNT_METRICS = (
    *((f"exact.entries.{k}", "count") for k in KINDS),
    *((f"exact.distinct_blocks.{k}", "count") for k in KINDS),
    *((f"exact.decode_useful_ratio.{k}", "ratio") for k in KINDS),
    ("exact.pruned_mass_hi.hmc", "prob"),
    *((f"width_bits.{k}", "bits") for k in KINDS),
    ("sampling.windows.pooled", "count"),
    ("sampling.windows.sliding", "count"),
    ("verify.windows", "count"),
)
PER_LAYER = (
    *((f"{name}_s", "s") for name in SPAN_METRICS),
    *((name, "s") for name in DERIVED_METRICS),
    *COUNT_METRICS,
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the repeated passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.SCALES), default="full", help="tiny is for smoke tests")
    p.add_argument("--reference", type=Path, default=REFERENCE, help="pinned outputs to check against")
    p.add_argument("--inject-decoder-fault", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "git": _git_state(),
        "threads": {k: os.environ[k] for k in THREAD_ENV},
        "excesslab_version": excesslab.__version__,
    }


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_state() -> dict:
    """SHA and dirty flag of the checkout; both None outside a git repository."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True, timeout=60
        ).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def fresh_setup_seconds(workload: str) -> float:
    """Wall time of a fresh interpreter that imports excesslab and builds the
    workload's models with their cold series constants."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
        f"workloads.setup({workloads.ALPHA[workload]!r}, {workloads.SERIES_CUTOFF[workload]!r})"
    )
    start = time.perf_counter()
    # No timeout: with one, the wait polls and rounds the time to 50 ms.
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the machine's speed while the workload runs.

    On the shared 2-vCPU virtual machine this benchmark was defined on, the
    same code runs up to twice as slowly for seconds at a time, which moves
    a run's times by 15-30% from one run to the next.  So while the passes
    run, a SIGALRM handler times a fixed reference computation every
    EVERY_SECONDS, also in the middle of long operations.  `clock()` leaves
    the handler's time out, and every time the run reports is rescaled to
    reference speed: multiplied by REFERENCE_SECONDS over the run's mean
    time of the reference computation.  That includes `setup_s`, measured
    in other processes just before the passes.  The raw times are kept in
    the run's output file.
    """

    REFERENCE_SECONDS = 0.015  # about the computation's time on that machine
    EVERY_SECONDS = 0.25
    _KEYS = [bytes((i & 255, i >> 8)) for i in range(4096)]
    _TABLE = dict.fromkeys(_KEYS, 0)

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = 0.0

    @classmethod
    def reference_computation(cls) -> float:
        """Seconds for 204 800 stores into a dict of 4096 bytes keys.  It
        allocates nothing and its table stays in cache, so neither the heap
        nor the caches the workload left behind change its time; it uses
        none of excesslab's code."""
        table = cls._TABLE
        start = time.perf_counter()
        for _ in range(50):
            for key in cls._KEYS:
                table[key] ^= 1
        return time.perf_counter() - start

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(self.reference_computation())
        self._busy += time.perf_counter() - start

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self._busy

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_SECONDS, self.EVERY_SECONDS)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def scale(self) -> float:
        return self.REFERENCE_SECONDS / statistics.fmean(self.samples)


def run_pass(ops, tracer, reference: dict, clock, counts=None, deadline=math.inf):
    """One pass over the operations, stopping early at `deadline`:
    per-operation seconds and outcomes."""
    state: dict = {}
    times: dict[str, float] = {}
    outcomes: list[tuple[str, str | None]] = []
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        # Each operation starts from a collected heap, as it would in a fresh
        # process, so that collections left over from the previous one do
        # not land in its time.
        gc.collect()
        start = clock()
        try:
            with tracer.span(op.name):
                result = op.run(tracer, state)
        except Exception as exc:  # an operation that raises is a failed operation
            times[op.name] = clock() - start
            traceback.print_exc(file=sys.stderr)
            outcomes.append((op.name, f"raised {type(exc).__name__}: {exc}"))
            continue
        times[op.name] = clock() - start
        outcomes.extend((obs.key, workloads.judge(obs, reference)) for obs in op.observe(result))
        if counts is not None and op.counts is not None:
            workloads.merge_counts(counts, op.counts(result))
        del result  # so that no two operations' tables are alive at once
    return times, outcomes


def pass_seconds(passes: list[dict], ops) -> float:
    """Raw time of one pass: the sum over operations of each one's mean time."""
    return sum(statistics.fmean(p[op.name] for p in passes if op.name in p) for op in ops)


def per_layer_metrics(tracer: Tracer, traced_labels, untraced, traced, counts, ops) -> dict:
    """Per-layer times (raw seconds) and counts of a traced run."""
    # Span sums come from whole passes only.
    per_pass = [
        sums_by_name(tracer.spans, label)
        for label, times in zip(traced_labels, traced)
        if len(times) == len(ops)
    ]
    once = sums_by_name(tracer.spans, "setup")
    for name, seconds in sums_by_name(tracer.spans, "probe").items():
        once[name] = once.get(name, 0.0) + seconds

    def span_s(name: str) -> float:
        return statistics.fmean(p.get(name, 0.0) for p in per_pass) + once.get(name, 0.0)

    values = {f"{name}_s": span_s(name) for name in SPAN_METRICS}
    for regime in ("pooled", "sliding"):
        full = span_s(f"sampling.estimate_block_mi.{regime}")
        bare = span_s(f"sampling.estimate_block_mi.{regime}.no_bootstrap")
        values[f"sampling.bootstrap.{regime}_s"] = full - bare
    values["cli.verify_overhead_s"] = (
        span_s("cli.main") - sum(span_s(name) for name in VERIFY_CHECKS) - span_s("verify.build_tables")
    )
    values["trace.wall_s"] = pass_seconds(traced, ops)
    values["trace.untraced_wall_s"] = pass_seconds(untraced, ops)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    for k in KINDS:
        entries = counts.get(f"exact.entries.{k}", 0)
        distinct = counts.get(f"exact.distinct_blocks.{k}", 0)
        counts[f"exact.decode_useful_ratio.{k}"] = distinct / (2 * entries) if entries else 0.0
    for name, _ in COUNT_METRICS:
        values[name] = counts.get(name, 0)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    scale = workloads.SCALES[args.scale]
    reference = json.loads(args.reference.read_text())
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_record(args)
    speed = SpeedProbe()

    setup_times = []
    if not args.trace:
        setup_times = [fresh_setup_seconds(args.workload) for _ in range(SETUP_REPS)]
    tracer = Tracer(clock=speed.clock) if args.trace else NULL_TRACER
    if args.trace:
        tracer.run = "setup"
    models = workloads.setup(workloads.ALPHA[args.workload], workloads.SERIES_CUTOFF[args.workload], tracer)
    wl = workloads.build(
        args.workload, scale, args.seed, models, OUT / f"{tag}-cli", args.inject_decoder_fault
    )
    warm_up = workloads.build(args.workload, workloads.SCALES["tiny"], args.seed, models, OUT / f"{tag}-cli")

    # A warm-up pass at the tiny scale fills the lazy caches the workload's
    # code paths use.  Then passes repeat until --seconds, counted from the
    # warm-up's start, have gone by; the last pass may stop part way.  The
    # first pass (first of each kind when traced) always runs whole.  A
    # traced run alternates traced and untraced passes, so that the tracing
    # overhead is measured in one process.
    untraced, traced, traced_labels, counts = [], [], [], {}
    with speed.sampling():
        deadline = time.perf_counter() + args.seconds
        _, outcomes = run_pass(warm_up.ops, NULL_TRACER, reference, speed.clock)
        while time.perf_counter() < deadline or not untraced or (args.trace and not traced):
            if args.trace and len(traced) <= len(untraced):
                tracer.run = f"{tag}-pass{len(traced) + len(untraced)}"
                first = not traced
                times, found = run_pass(
                    wl.ops, tracer, reference, speed.clock, counts if first else None, math.inf if first else deadline
                )
                traced.append(times)
                traced_labels.append(tracer.run)
            else:
                times, found = run_pass(
                    wl.ops, NULL_TRACER, reference, speed.clock, None, deadline if untraced else math.inf
                )
                untraced.append(times)
            outcomes.extend(found)

        if args.trace and wl.probe is not None:
            tracer.run = "probe"
            observations, probe_counts = wl.probe(tracer)
            outcomes.extend((obs.key, workloads.judge(obs, reference)) for obs in observations)
            workloads.merge_counts(counts, probe_counts)

    if args.trace:
        raw = per_layer_metrics(tracer, traced_labels, untraced, traced, counts, wl.ops)
        units = dict(PER_LAYER)
    else:
        raw = {
            "setup_s": statistics.median(setup_times),
            "wall_s": pass_seconds(untraced, wl.ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    metrics = {name: value * speed.scale if units[name] == "s" else value for name, value in raw.items()}

    failures = [(key, reason) for key, reason in outcomes if reason is not None]
    for key, reason in failures[:20]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        "record": record,
        "result": result,
        "raw_metrics": raw,
        "speed": {"scale": speed.scale, "reference_seconds": speed.samples},
        "setup_seconds": setup_times,
        "pass_seconds": {"untraced": untraced, "traced": traced},
        "failures": failures,
    }
    if args.trace:
        details["layers"] = layer_table(tracer.spans)
        details["spans"] = tracer.to_list()
        print(f"{'span (raw seconds)':48} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for row in details["layers"]:
            print(f"{row['name']:48} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"record": record, "speed_scale": speed.scale}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
