"""Pin the outputs that every benchmark run is checked against.

    python3 perfbench/pin.py          # rewrites perfbench/reference.json

Run it only at a commit whose outputs are trusted; the file it writes is
what later commits are judged by.  Certified intervals, closed forms and
verify ledgers are deterministic and are pinned as computed.  An estimate
depends on the seed, so each is pinned as the median point estimate over
seeds 0..POINT_SEEDS-1 (computed without the bootstrap, which does not
change the point estimate), with the median bootstrap SE over seeds
0..SE_SEEDS-1.  A run's estimate fails when it lies more than `below_se`
of those SEs below the pinned median, or more than `above_se` above it.
Each is twice the largest deviation of the POINT_SEEDS seeds on its side,
and at least MIN_TOL_SE.  The two differ because these processes are
heavy-tailed: a trajectory that stays inside one long word gives an estimate
far below the rest (0.61 bits against a median of 5.02 for one seed in 400
of the sliding hmc estimate), while none lands far above.
"""

import dataclasses
import json
import math
import statistics

import run  # pins threads and puts the sources on sys.path
import workloads
from tracing import NULL_TRACER

SE_SEEDS = 16
POINT_SEEDS = 400
MIN_TOL_SE = 6.0


def observations(name: str, scale, seed: int) -> list:
    models = workloads.setup(workloads.ALPHA[name], workloads.SERIES_CUTOFF[name])
    wl = workloads.build(name, scale, seed, models, run.OUT / f"pin-{name}-cli")
    state: dict = {}
    found = []
    for op in wl.ops:
        found.extend(op.observe(op.run(NULL_TRACER, state)))
    return found


def estimate_pin(values: list[float], se: float) -> dict:
    value = statistics.median(values)
    low, high = min(values), max(values)
    return {
        "value": value,
        "se": se,
        "below_se": max(MIN_TOL_SE, math.ceil(2.0 * (value - low) / se)),
        "above_se": max(MIN_TOL_SE, math.ceil(2.0 * (high - value) / se)),
        "point_seeds": POINT_SEEDS,
        "point_range": [low, high],
        "se_seeds": SE_SEEDS,
    }


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    reference: dict = {"interval": {}, "check": {}, "estimate": {}}
    for scale_name, scale in workloads.SCALES.items():
        for name in ("hmc-exact", "cyclic-exact", "verify"):
            for obs in observations(name, scale, 0):
                if obs.error:
                    raise SystemExit(f"refusing to pin a failed output: {obs.key}: {obs.error}")
                if obs.kind == "interval":
                    reference["interval"][obs.key] = list(obs.value)
                elif obs.kind == "check":
                    reference["check"][obs.key] = obs.value
        ses: dict = {}
        for seed in range(SE_SEEDS):
            for obs in observations("estimate", scale, seed):
                ses.setdefault(obs.key, []).append(obs.value[1])
        points: dict = {}
        bare = dataclasses.replace(scale, bootstrap=0)
        suffix = (f"bootstrap={bare.bootstrap}", f"bootstrap={scale.bootstrap}")
        for seed in range(POINT_SEEDS):
            for obs in observations("estimate", bare, seed):
                points.setdefault(obs.key.replace(*suffix), []).append(obs.value[0])
        for key, values in points.items():
            reference["estimate"][key] = estimate_pin(values, statistics.median(ses[key]))
            print(f"{key}: {value:.4f} (range {min(values):.4f}-{max(values):.4f}), se {se:.4f}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
