"""The benchmark's own tests: tiny-size smoke runs and the failure checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--seed", "3", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", str(trace), "--scale", "tiny"))
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_pinned_interval_fails_the_point(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    key = "block_mi hmc a=1.5 n=4 cutoff=64 eps=0"
    lo, hi = reference["interval"][key]
    reference["interval"][key] = [hi + 1.0, hi + 2.0]
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    result = result_of(
        bench("--workload", "hmc-exact", "--scale", "tiny", "--reference", str(corrupted))
    )
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_injected_decoder_fault_is_a_failed_operation():
    result = result_of(bench("--workload", "verify", "--scale", "tiny", "--inject-decoder-fault"))
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
