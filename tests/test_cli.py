from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmdreason.cli as cli
from cmdreason.backend import ProtocolError
from cmdreason.dataset import load_dataset, save_dataset, LabeledCommand, RequirementVector
from cmdreason.harness import AbortedRun


def run_cli(*args) -> int:
    return cli.main(list(args))


# =============================================================================
# run
# =============================================================================


def test_run_with_gold_mock(toy_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "run", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "demo",
        "--shots", "2", "--mode", "stepwise", "--out", str(out),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "100.00" in stdout
    assert "cache hits: 0 of 24; requests sent: 24" in stdout
    assert (out / "report.json").is_file()
    assert json.loads((out / "report.json").read_text())["label"] == "demo"


def test_run_missing_required_args_is_usage_error(capsys):
    assert run_cli("run", "--dataset", "x.tsv") == 1
    assert "required" in capsys.readouterr().err


def test_run_invalid_mode_is_usage_error(toy_path, tmp_path, capsys):
    code = run_cli(
        "run", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "demo",
        "--mode", "verbose", "--out", str(tmp_path / "r"),
    )
    assert code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_run_missing_dataset_is_data_error(tmp_path, capsys):
    code = run_cli(
        "run", "--dataset", str(tmp_path / "nope.tsv"), "--endpoint", "mock://gold",
        "--model", "demo", "--out", str(tmp_path / "r"),
    )
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_run_backend_failure_exits_three(toy_path, tmp_path, monkeypatch, capsys):
    def explode(spec, backend=None):
        raise AbortedRun(3, 24, ProtocolError("it broke"))

    monkeypatch.setattr(cli, "run_experiment", explode)
    code = run_cli(
        "run", "--dataset", toy_path, "--endpoint", "http://example.invalid",
        "--model", "demo", "--out", str(tmp_path / "r"),
    )
    assert code == 3
    assert "aborted after 3 of 24" in capsys.readouterr().err


def test_unknown_mock_endpoint_is_usage_error(toy_path, tmp_path, capsys):
    # the endpoint is rejected before any artifact is written
    for command in ("run", "ablate"):
        code = run_cli(
            command, "--dataset", toy_path, "--endpoint", "mock://chaos", "--model", "demo",
            "--out", str(tmp_path / command),
        )
        assert code == 1
        assert "unknown mock endpoint" in capsys.readouterr().err
    assert list(tmp_path.rglob("spec.json")) == []


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli() == 1


# =============================================================================
# ablate
# =============================================================================


def test_ablate_grid(toy_path, tmp_path, capsys):
    out = tmp_path / "grid"
    code = run_cli(
        "ablate", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "demo",
        "--modes", "none,stepwise", "--shots", "0,2", "--out", str(out),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "stepwise" in stdout
    summary = json.loads((out / "ablation.json").read_text())
    assert len(summary) == 4
    assert (out / "ablation.md").is_file()


def test_ablate_rejects_unknown_mode(toy_path, tmp_path, capsys):
    code = run_cli(
        "ablate", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "demo",
        "--modes", "none,telepathy", "--shots", "0", "--out", str(tmp_path / "g"),
    )
    assert code == 1
    assert "telepathy" in capsys.readouterr().err


def test_ablate_rejects_oversized_shot_count(toy_path, tmp_path, capsys):
    code = run_cli(
        "ablate", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "demo",
        "--modes", "none", "--shots", "0,99", "--out", str(tmp_path / "g"),
    )
    assert code == 1
    assert "pool size" in capsys.readouterr().err


# =============================================================================
# baseline
# =============================================================================


def test_baseline_random(toy_path, tmp_path, capsys):
    out = tmp_path / "rand"
    code = run_cli("baseline", "--dataset", toy_path, "--random", "--seed", "7", "--out", str(out))
    assert code == 0
    assert "random(seed=7)" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["label"] == "random(seed=7)"
    assert (out / "records.jsonl").is_file()


def test_baseline_rules(toy_path, tmp_path, capsys):
    from cmdreason.baselines import example_rules_path

    out = tmp_path / "rules"
    code = run_cli(
        "baseline", "--dataset", toy_path, "--rules", str(example_rules_path()), "--out", str(out)
    )
    assert code == 0
    assert "rules(example_rules.tsv)" in capsys.readouterr().out


def test_baseline_requires_exactly_one_method(toy_path, tmp_path, capsys):
    assert run_cli("baseline", "--dataset", toy_path, "--out", str(tmp_path / "b")) == 1
    assert (
        run_cli(
            "baseline", "--dataset", toy_path, "--random", "--rules", "r.tsv",
            "--out", str(tmp_path / "b"),
        )
        == 1
    )


def test_baseline_records_rescore_with_score(toy_path, tmp_path, capsys):
    out = tmp_path / "rand"
    run_cli("baseline", "--dataset", toy_path, "--random", "--seed", "3", "--out", str(out))
    baseline_out = capsys.readouterr().out
    code = run_cli("score", "--records", str(out / "records.jsonl"), "--dataset", toy_path)
    assert code == 0
    score_out = capsys.readouterr().out
    # identical numbers either way; only the row label differs
    assert baseline_out.split("\n")[2].split()[1:] == score_out.split("\n")[2].split()[1:]


# =============================================================================
# sample
# =============================================================================


def test_sample_writes_loadable_subset(toy_path, tmp_path, capsys):
    out = tmp_path / "sub.tsv"
    code = run_cli("sample", "--dataset", toy_path, "--n", "12", "--seed", "3", "--out", str(out))
    assert code == 0
    subset = load_dataset(out)
    assert len(subset) == 12
    full_ids = {rec.command_id for rec in load_dataset(toy_path)}
    assert all(rec.command_id in full_ids for rec in subset)


def test_sample_n_out_of_range_is_usage_error(toy_path, tmp_path, capsys):
    code = run_cli("sample", "--dataset", toy_path, "--n", "99", "--out", str(tmp_path / "s.tsv"))
    assert code == 1


def test_sample_infeasible_is_data_error(tmp_path, capsys):
    data = [
        LabeledCommand("a", "a", RequirementVector.from_bits("10000000")),
        LabeledCommand("b", "b", RequirementVector.from_bits("10000000")),
        LabeledCommand("c", "c", RequirementVector.from_bits("00000000")),
        LabeledCommand("d", "d", RequirementVector.from_bits("00000000")),
    ]
    ds = tmp_path / "d.tsv"
    save_dataset(data, ds)
    code = run_cli(
        "sample", "--dataset", str(ds), "--n", "1", "--tolerance", "0.05",
        "--out", str(tmp_path / "s.tsv"),
    )
    assert code == 2
    assert "best max per-question deviation" in capsys.readouterr().err


# =============================================================================
# report
# =============================================================================


def test_report_tabulates_runs(toy_path, tmp_path, capsys):
    run_dir = tmp_path / "run"
    rand_dir = tmp_path / "rand"
    run_cli("run", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "demo",
            "--out", str(run_dir))
    run_cli("baseline", "--dataset", toy_path, "--random", "--out", str(rand_dir))
    capsys.readouterr()
    out = tmp_path / "compare.md"
    code = run_cli("report", "--in", str(run_dir), str(rand_dir), "--format", "md",
                   "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "| demo | 100.00 |" in text
    assert "random(seed=0)" in text


def test_report_missing_run_dir_is_data_error(tmp_path, capsys):
    code = run_cli("report", "--in", str(tmp_path / "ghost"), "--out", str(tmp_path / "r.md"))
    assert code == 2


@pytest.mark.parametrize(
    "change",
    [
        lambda report: [report],
        lambda report: {**report, "command_level": 5},
        lambda report: {**report, "per_question": list(report["per_question"].values())},
    ],
    ids=["json-list", "number-percentage", "per-question-list"],
)
def test_report_malformed_report_json_is_data_error(change, toy_path, tmp_path, capsys):
    run_dir = tmp_path / "rand"
    run_cli("baseline", "--dataset", toy_path, "--random", "--out", str(run_dir))
    report = run_dir / "report.json"
    report.write_text(json.dumps(change(json.loads(report.read_text()))))
    capsys.readouterr()
    code = run_cli("report", "--in", str(run_dir), "--out", str(tmp_path / "r.md"))
    assert code == 2
    assert "not a valid report file" in capsys.readouterr().err
    assert not (tmp_path / "r.md").exists()


# =============================================================================
# score
# =============================================================================


def test_score_mismatched_dataset_is_data_error(toy_path, tmp_path, capsys):
    out = tmp_path / "rand"
    run_cli("baseline", "--dataset", toy_path, "--random", "--out", str(out))
    other = tmp_path / "other.tsv"
    other.write_text("z9\tSomething else.\t00000000\n")
    code = run_cli("score", "--records", str(out / "records.jsonl"), "--dataset", str(other))
    assert code == 2


def test_score_malformed_record_is_data_error(toy_path, tmp_path, capsys):
    out = tmp_path / "rand"
    run_cli("baseline", "--dataset", toy_path, "--random", "--out", str(out))
    records = out / "records.jsonl"
    lines = records.read_text().splitlines(keepends=True)
    row = json.loads(lines[0])
    row["predicted"] = "0123"
    lines[0] = json.dumps(row) + "\n"
    records.write_text("".join(lines))
    capsys.readouterr()
    assert run_cli("score", "--records", str(records), "--dataset", toy_path) == 2
    assert "records.jsonl:1: bad record line" in capsys.readouterr().err


def test_score_missing_records_is_data_error(toy_path, tmp_path):
    assert run_cli("score", "--records", str(tmp_path / "no.jsonl"), "--dataset", toy_path) == 2


# =============================================================================
# Console entry point
# =============================================================================


def test_console_script_help_runs():
    # the child does not inherit pytest's pythonpath setting, so name the package's root
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-m", "cmdreason.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    assert "SUBCOMMAND" in result.stdout
