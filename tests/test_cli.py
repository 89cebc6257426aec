from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import all_closed, child_env
import cmdreason.cli as cli
from cmdreason import harness
from cmdreason.backend import ProtocolError
from cmdreason.dataset import load_dataset, save_dataset, LabeledCommand, RequirementVector
from cmdreason.harness import AbortedRun
from cmdreason.prompt import default_template_path


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


def test_run_counts_a_duplicate_command_neither_as_sent_nor_as_a_hit(
    toy_path, tmp_path, capsys
):
    data = load_dataset(toy_path)[:3]
    data.append(LabeledCommand("dup", data[0].text, data[0].gold))
    save_dataset(data, tmp_path / "dup.tsv")
    args = ("run", "--dataset", str(tmp_path / "dup.tsv"), "--endpoint", "mock://gold",
            "--model", "demo", "--out", str(tmp_path / "run"))
    assert run_cli(*args) == 0
    assert "cache hits: 0 of 4; requests sent: 3" in capsys.readouterr().out
    assert run_cli(*args) == 0
    assert "cache hits: 3 of 4; requests sent: 0" in capsys.readouterr().out


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
    endpoints = {
        "mock://chaos": "unknown mock endpoint",
        "localhost:8000/v1": "bad endpoint 'localhost:8000/v1': not an http(s) URL",
        "ftp://h/v1": "bad endpoint 'ftp://h/v1': not an http(s) URL",
    }
    for endpoint, message in endpoints.items():
        for command in ("run", "ablate"):
            code = run_cli(
                command, "--dataset", toy_path, "--endpoint", endpoint, "--model", "demo",
                "--out", str(tmp_path / command),
            )
            assert code == 1
            assert message in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []


def test_template_without_output_pattern_is_data_error(toy_path, tmp_path, capsys):
    default = default_template_path().read_text(encoding="utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_text(default.replace("[A1 A2 A3 A4 A5 A6 A7 A8]", "eight bits"), encoding="utf-8")
    for command in ("run", "ablate"):
        code = run_cli(
            command, "--dataset", toy_path, "--template", str(bad), "--endpoint", "mock://gold",
            "--model", "demo", "--out", str(tmp_path / command),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"data error: {bad}: format instruction")
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


def test_sample_writes_into_a_new_directory_and_an_unwritable_path_is_a_data_error(
    toy_path, tmp_path, capsys
):
    nested = tmp_path / "nodir" / "sub.tsv"
    assert run_cli("sample", "--dataset", toy_path, "--n", "12", "--out", str(nested)) == 0
    assert len(load_dataset(nested)) == 12
    blocker = tmp_path / "file.txt"
    blocker.write_text("in the way")
    capsys.readouterr()
    code = run_cli("sample", "--dataset", toy_path, "--n", "12", "--out", str(blocker / "s.tsv"))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot write {blocker / 's.tsv'}")
    assert [p.name for p in tmp_path.iterdir() if p.name != "nodir"] == ["file.txt"]


def test_sample_n_out_of_range_is_usage_error(toy_path, tmp_path, capsys):
    code = run_cli("sample", "--dataset", toy_path, "--n", "99", "--out", str(tmp_path / "s.tsv"))
    assert code == 1


@pytest.mark.parametrize("tolerance", ["nan", "inf", "1e400", "-0.1"])
def test_sample_tolerance_not_finite_and_non_negative_is_usage_error(
    toy_path, tmp_path, capsys, tolerance
):
    out = tmp_path / "s.tsv"
    code = run_cli(
        "sample", "--dataset", toy_path, "--n", "5", f"--tolerance={tolerance}", "--out", str(out)
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: tolerance must be finite and >= 0")
    assert not out.exists()


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
# A run directory holds one run
# =============================================================================


def refuse_every_request(stub):
    # HTTP 400 is a ProtocolError, which aborts at once without a retry
    stub.responder = lambda body: (400, {"error": "bad request"})


def test_aborted_run_leaves_no_earlier_run_to_report(chat_stub, toy_path, tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("run", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "A",
            "--out", str(out))
    refuse_every_request(chat_stub)
    code = run_cli("run", "--dataset", toy_path, "--endpoint", chat_stub.url, "--model", "B",
                   "--out", str(out))
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == [
        "records.partial.jsonl", "responses.partial.jsonl", "spec.json"
    ]
    assert json.loads((out / "spec.json").read_text())["backend_config"]["model_name"] == "B"
    capsys.readouterr()
    assert run_cli("report", "--in", str(out), "--out", str(tmp_path / "r.md")) == 2
    assert "report.json" in capsys.readouterr().err


def test_failed_ablation_cell_keeps_no_earlier_report(chat_stub, toy_path, tmp_path):
    out = tmp_path / "grid"
    grid = ("--modes", "none", "--shots", "0", "--out", str(out))
    run_cli("ablate", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "A", *grid)
    assert (out / "none_0shot" / "report.json").is_file()
    refuse_every_request(chat_stub)
    code = run_cli("ablate", "--dataset", toy_path, "--endpoint", chat_stub.url, "--model", "B",
                   *grid)
    assert code == 3
    assert json.loads((out / "ablation.json").read_text())[0]["error"] is not None
    assert not (out / "none_0shot" / "report.json").exists()
    assert not (out / "none_0shot" / "records.jsonl").exists()


def test_baseline_over_a_run_leaves_only_its_own_files(toy_path, tmp_path):
    out = tmp_path / "run"
    run_cli("run", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "A",
            "--out", str(out))
    assert run_cli("baseline", "--dataset", toy_path, "--random", "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == ["records.jsonl", "report.json"]
    assert json.loads((out / "report.json").read_text())["label"] == "random(seed=0)"


# =============================================================================
# Connections to an HTTP endpoint
# =============================================================================


@pytest.fixture()
def http_backends(monkeypatch):
    """Every HttpChatBackend the harness builds, held alive so only close() closes it."""
    built = []

    class Recorded(harness.HttpChatBackend):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(harness, "HttpChatBackend", Recorded)
    yield built
    for backend in built:
        backend.close()


def test_run_closes_the_connections_of_the_backend_it_builds(
    chat_stub, http_backends, toy_path, tmp_path, capsys
):
    code = run_cli(
        "run", "--dataset", toy_path, "--endpoint", chat_stub.url, "--model", "m",
        "--out", str(tmp_path / "run"),
    )
    assert code == 0
    assert "requests sent: 24" in capsys.readouterr().out
    assert len(http_backends) == 1
    assert chat_stub.opened >= 1
    assert all_closed(chat_stub)


def test_ablate_shares_one_backend_across_cells_and_closes_it(
    chat_stub, http_backends, toy_path, tmp_path
):
    code = run_cli(
        "ablate", "--dataset", toy_path, "--endpoint", chat_stub.url, "--model", "m",
        "--modes", "none,stepwise", "--shots", "0,2", "--out", str(tmp_path / "grid"),
    )
    assert code == 0
    assert len(json.loads((tmp_path / "grid" / "ablation.json").read_text())) == 4
    assert len(http_backends) == 1
    assert 1 <= chat_stub.opened <= http_backends[0].config.max_in_flight
    assert all_closed(chat_stub)


def test_ablate_bad_dataset_is_data_error_before_any_cell(tmp_path, capsys):
    code = run_cli(
        "ablate", "--dataset", str(tmp_path / "missing.tsv"), "--endpoint", "mock://gold",
        "--model", "demo", "--out", str(tmp_path / "grid"),
    )
    assert code == 2
    assert "no such file" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


# =============================================================================
# Console entry point
# =============================================================================


def test_console_script_help_runs():
    # the child does not inherit pytest's pythonpath setting, so name the package's root
    result = subprocess.run(
        [sys.executable, "-m", "cmdreason.cli", "--help"],
        capture_output=True, text=True, env=child_env(),
    )
    assert result.returncode == 0
    assert "SUBCOMMAND" in result.stdout


def test_cli_imports_nothing_outside_the_standard_library():
    # compared before and after the import, since a site .pth may preload packages
    code = (
        "import sys; before = set(sys.modules); import cmdreason.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True
    )
    added = result.stdout.split()
    assert "cmdreason.cli" in added
    allowed = {*sys.stdlib_module_names, "cmdreason"}
    assert [name for name in added if name.partition(".")[0] not in allowed] == []


def test_cli_import_leaves_sqlite3_unloaded():
    # only a command that opens a response cache needs sqlite3
    code = "import sys, cmdreason.cli; print('sqlite3' in sys.modules, '_sqlite3' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    assert result.stdout.split() == ["False", "False"]


def test_cli_import_leaves_the_http_stack_unloaded():
    # score, report, baseline and sample send nothing: no HTTP, email, proxy or TLS modules
    heavy = ("http.client", "email.parser", "urllib.request", "ssl")
    code = f"import sys, cmdreason.cli; print(*[m in sys.modules for m in {heavy!r}])"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    assert result.stdout.split() == ["False"] * len(heavy)
