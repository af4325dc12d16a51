"""CLI contracts: subcommands, config precedence, outputs, exit codes."""

import csv
import json
import subprocess
import sys

import pytest

from excesslab.cli import DEFAULT_HMC_CUTOFF, main
from excesslab.exact import block_mi, enumerate_joint
from excesslab.models import ProcessModel

FAST = ["--series-cutoff", "1000000"]


def run_cli(args, **kwargs):
    return main(args, **kwargs)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_exact_writes_one_row_per_n(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        ["exact", "--process", "hpm1", "--alpha", "1.5", "--n", "1,2,3,4,5,6,7,8", "--out", str(out)]
        + FAST
    )
    assert code == 0
    rows = read_csv(out / "exact.csv")
    assert len(rows) == 8
    assert [int(r["n"]) for r in rows] == list(range(1, 9))
    assert all(r["status"] == "ok" for r in rows)
    values = [float(r["value"]) for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "exact"
    assert manifest["config"]["alpha"] == 1.5
    assert manifest["version"]


def test_manifest_records_resolved_configuration(tmp_path):
    # hpm2's default cutoff grows with n, so the config's null cannot say it.
    out = tmp_path / "exact"
    assert run_cli(["exact", "--process", "hpm2", "--n", "4,8", "--out", str(out)] + FAST) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["level_cutoff"] is None
    assert manifest["resolved"] == [
        {"n": 4, "level_cutoff": 4, "tail_aggregation": False},
        {"n": 8, "level_cutoff": 15, "tail_aggregation": False},
    ]
    rows = read_csv(out / "exact.csv")
    assert [int(r["level_cutoff"]) for r in rows] == [4, 15]

    out = tmp_path / "fit"
    args = ["fit", "--process", "hpm1", "--alpha", "2.0", "--n", "4,6,8,10"]
    assert run_cli(args + ["--out", str(out)] + FAST) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["outputs"] == ["fit.json"]
    # An aggregated hpm1 table ignores the cutoff, so none is recorded.
    assert manifest["config"]["level_cutoff"] is None
    assert manifest["resolved"] == [
        {"n": n, "level_cutoff": None, "tail_aggregation": True} for n in (4, 6, 8, 10)
    ]


@pytest.mark.parametrize(
    "kind, cutoff, aggregate",
    [("hpm1", 1 << 12, True), ("hpm2", None, False), ("hmc", DEFAULT_HMC_CUTOFF, False)],
)
def test_exact_values_equal_the_per_kind_recipe(tmp_path, kind, cutoff, aggregate):
    # One table recipe per kind: hpm1 aggregates its tail, hpm2 and hmc do
    # not, and nothing is pruned.  The CSV's 17 digits read back bit for bit.
    out = tmp_path / "run"
    assert run_cli(["exact", "--process", kind, "--n", "2,4,8", "--out", str(out)] + FAST) == 0
    header = (out / "exact.csv").read_text().splitlines()[0]
    assert header == "kind,alpha,n,value,err_low,err_high,source,entries,pruned_mass_hi,level_cutoff,status"
    rows = read_csv(out / "exact.csv")
    resolved = json.loads((out / "manifest.json").read_text())["resolved"]
    assert {r["tail_aggregation"] for r in resolved} == {aggregate}
    model = ProcessModel(kind, 1.5, series_cutoff=1_000_000)
    for n, row in zip((2, 4, 8), rows):
        level_cutoff = cutoff or max(4, (1 << (n // 2)) - 1)
        mi = block_mi(enumerate_joint(model, n, level_cutoff, 0.0, tail_aggregation=aggregate))
        assert float(row["value"]) == mi.value
        assert float(row["err_low"]) == mi.value - mi.lo
        assert float(row["err_high"]) == mi.hi - mi.value


@pytest.mark.parametrize(
    "command, flag",
    # Every subcommand took --prune-eps; only exact took the other two.
    [(command, ["--prune-eps", "1e-7"]) for command in ("exact", "estimate", "verify", "fit", "info")]
    + [("exact", ["--tail-aggregation"]), ("exact", ["--no-tail-aggregation"])],
)
def test_removed_table_flags_are_usage_errors(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as err:
        run_cli([command, "--n", "2", "--out", str(tmp_path / "run")] + flag + FAST)
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config", [{"prune_eps": 0.0}, {"prune_eps": None}, {"tail_aggregation": False}])
def test_config_with_a_removed_key_is_usage_error(tmp_path, capsys, config):
    # Older configs and manifests hold these keys; they are named, not ignored.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        run_cli(["exact", "--config", str(cfg), "--n", "2", "--out", str(tmp_path / "run")] + FAST)
    assert err.value.code == 2
    assert f"unknown config keys: {list(config)}" in capsys.readouterr().err


def test_exact_empty_block_lengths_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["exact", "--process", "hpm1", "--n", "", "--out", str(tmp_path)] + FAST)
    assert err.value.code == 2


def test_alpha_out_of_range_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli(["exact", "--process", "hpm1", "--alpha", "2.5", "--n", "2", "--out", str(tmp_path)] + FAST)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["verify", "--windows", "0"], {}, "windows must be >= 1, got 0"),
        (["estimate", "--trajectories", "0"], {}, "trajectories must be >= 1, got 0"),
        (["estimate", "--bootstrap", "-3"], {}, "bootstrap must be >= 0, got -3"),
        (["estimate", "--length", "0"], {}, "trajectory_length must be >= 1, got 0"),
        (["exact"], {"path_budget": 0}, "path_budget must be >= 1, got 0"),
        (["exact"], {"entry_budget": -1}, "entry_budget must be >= 1, got -1"),
        (["estimate", "--bootstrap", "1"], {}, "bootstrap must be 0 or >= 2, got 1"),
        (["exact", "--level-cutoff", "1"], {}, "level_cutoff must be >= 2, got 1"),
        (["exact", "--series-cutoff", "50"], {}, "series_cutoff must be >= 100, got 50"),
        (
            ["estimate", "--process", "hpm2", "--trajectories", "1", "--length", "100"],
            {},
            "trajectories must be >= 2 for a pooled hpm2 estimate, got 1",
        ),
        (
            ["estimate", "--process", "hpm2", "--trajectories", "1"],
            {},
            "trajectories must give >= 4 pooled windows at n=2, got 1 from 1 of length 4",
        ),
        # One trajectory would slide, not pool, even with no bootstrap.
        (
            ["estimate", "--process", "hpm1", "--trajectories", "1", "--length", "100", "--bootstrap", "0"],
            {},
            "trajectories must be >= 2 for a pooled hpm1 estimate, got 1",
        ),
        (
            ["estimate", "--process", "hpm1", "--trajectories", "2", "--length", "3"],
            {},
            "trajectories must give >= 4 pooled windows at n=2, got 0 from 2 of length 3",
        ),
        (
            ["estimate", "--process", "hmc", "--length", "5"],
            {},
            "trajectory_length must be >= 7 for a sliding estimate at n=2, got 5",
        ),
    ],
)
def test_count_that_checks_nothing_is_usage_error(tmp_path, capsys, args, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    # FAST goes first, so that a row's own --series-cutoff overrides it.
    command, *flags = args
    with pytest.raises(SystemExit) as err:
        run_cli([command] + FAST + flags + ["--config", str(cfg), "--n", "2", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_pooled_window_check_is_the_estimate_commands_alone(tmp_path):
    # One hpm2 trajectory gives no pooled estimate, but exact never samples.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trajectories": 1}))
    args = ["exact", "--process", "hpm2", "--config", str(cfg), "--n", "2", "--out", str(tmp_path)]
    assert run_cli(args + FAST) == 0


def test_negative_or_missing_seed_is_usage_error(tmp_path, capsys):
    # An empty seed list used to write an estimate.csv with no rows, exit 0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [2, -5]}))
    for args, message in (
        (["--seed", "3,-1"], "seeds must be >= 0, got -1"),
        (["--seed", f"3,{2**64}"], f"seeds must be < 2**64, got {2**64}"),
        (["--config", str(cfg)], "seeds must be >= 0, got -5"),
        (["--seed", ""], "seed list must not be empty"),
    ):
        with pytest.raises(SystemExit) as err:
            run_cli(["estimate", "--n", "2", "--out", str(tmp_path)] + args + FAST)
        assert err.value.code == 2
        assert message in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "process": "hpm2",
                "alpha": 1.5,
                "block_lengths": [2, 4],
                "series_cutoff": 1_000_000,
                "output_dir": str(tmp_path / "from_file"),
            }
        )
    )
    out = tmp_path / "flag_wins"
    code = run_cli(["exact", "--config", str(cfg), "--alpha", "2.0", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 2.0  # flag overrides file
    assert manifest["config"]["process"] == "hpm2"  # file value kept


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"proces": "hpm1"}))
    with pytest.raises(SystemExit):
        run_cli(["exact", "--config", str(cfg), "--n", "2", "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "config, message",
    [
        ([1, 2], "cfg.json: a config must be a JSON object, got list"),
        ({"alpha": "1.5"}, "cfg.json: alpha must be float, got '1.5'"),
        ({"block_lengths": 4}, "cfg.json: block_lengths must be list[int], got 4"),
    ],
)
def test_malformed_config_file_is_usage_error(tmp_path, capsys, config, message):
    # Each of these used to end in a TypeError traceback.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        run_cli(["info", "--config", str(cfg)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_hmc_budget_exhaustion_marks_row_skipped(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "process": "hmc",
                "alpha": 1.5,
                "block_lengths": [2, 10],
                "path_budget": 100_000,
                "series_cutoff": 1_000_000,
            }
        )
    )
    out = tmp_path / "run"
    code = run_cli(["exact", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "exact.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("skipped")
    assert rows[1]["value"] == ""


def test_hmc_entry_budget_skip_names_its_input(tmp_path, capsys):
    # The status names what the run was given; no run prunes, so it names
    # no pruning threshold.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "process": "hmc",
                "alpha": 1.5,
                "block_lengths": [2, 8],
                "entry_budget": 4000,
                "series_cutoff": 1_000_000,
            }
        )
    )
    out = tmp_path / "run"
    assert run_cli(["exact", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "exact.csv")
    assert rows[0]["status"] == "ok"
    status = rows[1]["status"]
    assert status == (
        "skipped: table exceeded entry budget 4000 "
        "(kind=hmc, alpha=1.5, n=8, level_cutoff=64)"
    )
    assert f"n=8: {status}" in capsys.readouterr().err
    assert "prune_eps" not in status


def test_estimate_reproducible_and_pooled(tmp_path):
    args = [
        "estimate",
        "--process",
        "hpm2",
        "--alpha",
        "1.5",
        "--n",
        "4",
        "--seed",
        "3,4",
        "--trajectories",
        "200",
        "--length",
        "16",
        "--bootstrap",
        "8",
    ] + FAST
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    rows1 = read_csv(out1 / "estimate.csv")
    rows2 = read_csv(out2 / "estimate.csv")
    assert rows1 == rows2
    assert all(r["regime"] == "pooled" for r in rows1)
    assert {r["seed"] for r in rows1} == {"3", "4"}


def test_estimate_sliding_for_ergodic_kind(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        [
            "estimate",
            "--process",
            "hmc",
            "--alpha",
            "1.5",
            "--n",
            "3",
            "--seed",
            "1",
            "--length",
            "4000",
            "--bootstrap",
            "4",
            "--out",
            str(out),
        ]
        + FAST
    )
    assert code == 0
    rows = read_csv(out / "estimate.csv")
    assert rows[0]["regime"] == "sliding"


def test_estimate_records_the_length_and_regime_it_ran(tmp_path):
    # The config leaves the trajectory length to the per-kind default (null);
    # the manifest records what each n ran with, once per n, not per seed.
    common = ["estimate", "--seed", "3,4", "--bootstrap", "2"] + FAST
    pooled, sliding = tmp_path / "pooled", tmp_path / "sliding"
    assert run_cli(common + ["--process", "hpm2", "--n", "2,4", "--trajectories", "50", "--out", str(pooled)]) == 0
    assert run_cli(common + ["--process", "hmc", "--n", "3", "--out", str(sliding)]) == 0
    manifest = json.loads((pooled / "manifest.json").read_text())
    assert manifest["config"]["trajectory_length"] is None
    assert manifest["resolved"] == [
        {"n": 2, "trajectory_length": 4, "regime": "pooled"},
        {"n": 4, "trajectory_length": 8, "regime": "pooled"},
    ]
    manifest = json.loads((sliding / "manifest.json").read_text())
    assert manifest["resolved"] == [{"n": 3, "trajectory_length": 100_000, "regime": "sliding"}]


def test_verify_passes_and_writes_ledger(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        ["verify", "--alpha", "1.5", "--n", "2,4", "--windows", "2000", "--out", str(out)] + FAST
    )
    assert code == 0
    ledger = json.loads((out / "verify.json").read_text())
    assert ledger["all_passed"] is True
    names = {c["name"] for c in ledger["checks"]}
    assert "series_brackets" in names
    assert "decomposition" in names
    assert any(n.startswith("decoder_agreement") for n in names)
    assert "sandwich" in names
    assert "triple_bound" in names
    assert "monotonicity" in names
    assert ledger["config"]["alpha"] == 1.5
    assert_margins_match_verdicts(ledger)


def assert_margins_match_verdicts(ledger):
    # A check's margin is its least slack: negative exactly when it fails.
    for check in ledger["checks"]:
        assert isinstance(check["margin"], float), check
        assert (check["margin"] >= 0) == check["passed"], check


def test_verify_records_the_block_lengths_and_cutoff_it_ran(tmp_path, capsys):
    # verify caps n at 12 and the series cutoff at 1e6 (the default is 1e7).
    out = tmp_path / "run"
    assert run_cli(["verify", "--n", "2,16", "--windows", "2000", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["block_lengths"] == [2, 16]
    assert manifest["resolved"] == {"block_lengths": [2], "series_cutoff": 1_000_000}
    assert "dropped n = [16]" in capsys.readouterr().err


def test_verify_detects_injected_decoder_fault(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        [
            "verify",
            "--alpha",
            "1.5",
            "--n",
            "2,4",
            "--windows",
            "5000",
            "--inject-decoder-fault",
            "--out",
            str(out),
        ]
        + FAST
    )
    assert code == 1
    ledger = json.loads((out / "verify.json").read_text())
    failed = [c["name"] for c in ledger["checks"] if not c["passed"]]
    assert failed == [f"decoder_agreement[{kind}]" for kind in ("hpm1", "hpm2", "hmc")]
    assert_margins_match_verdicts(ledger)


def test_fit_auto_selects_log_for_alpha_two(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        ["fit", "--process", "hpm2", "--alpha", "2.0", "--n", "8,12,16,20", "--out", str(out)] + FAST
    )
    assert code == 0
    report = json.loads((out / "fit.json").read_text())
    assert report["regressor"] == "log"
    assert report["predicted_class"]["family"] == "log"


def test_fit_auto_selects_loglog_for_marker_kind_alpha_two(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        ["fit", "--process", "hpm1", "--alpha", "2.0", "--n", "8,12,16,24", "--out", str(out)] + FAST
    )
    assert code == 0
    report = json.loads((out / "fit.json").read_text())
    assert report["regressor"] == "loglog"


def test_info_prints_constants(capsys):
    code = run_cli(["info", "--process", "hmc", "--alpha", "1.5", "--n", "4"] + FAST)
    assert code == 0
    text = capsys.readouterr().out
    assert "branch const" in text
    assert "poly(0.5)" in text


def test_info_makes_no_output_directory(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["info", "--process", "hpm2", "--n", "4", "--out", str(out)] + FAST)
    assert code == 0
    assert not out.exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "excesslab.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "excesslab" in proc.stdout


def test_every_exported_name_resolves():
    import excesslab

    missing = [name for name in excesslab.__all__ if not hasattr(excesslab, name)]
    assert not missing


def test_fit_closed_form_source_for_ergodic_kind(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        [
            "fit",
            "--process",
            "hmc",
            "--alpha",
            "1.5",
            "--n",
            "8,16,24,32,40",
            "--source",
            "closed_form",
            "--out",
            str(out),
        ]
        + FAST
    )
    assert code == 0
    report = json.loads((out / "fit.json").read_text())
    assert set(report["sources"]) == {"closed_form"}
    assert 0.4 <= report["fitted_slope"] <= 0.6
