from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import all_closed, cache_entries, child_env
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
        raise AbortedRun(3, 24, ProtocolError("it broke"), 5)

    monkeypatch.setattr(cli, "run_experiment", explode)
    code = run_cli(
        "run", "--dataset", toy_path, "--endpoint", "http://example.invalid",
        "--model", "demo", "--out", str(tmp_path / "r"),
    )
    assert code == 3
    out, err = capsys.readouterr()
    assert "aborted after 3 of 24" in err
    assert out == "requests sent: 5\n"


def test_an_aborted_run_prints_every_request_it_sent(chat_stub, toy_path, toy_data, tmp_path, capsys):
    # the 7th command is refused after two 503s: its three requests count too
    tries = []

    def respond(body):
        if json.loads(body)["messages"][-1]["content"] != toy_data[6].text:
            return 200, {"choices": [{"message": {"role": "assistant", "content": "[0 0 0 0 0 0 0 0]"}}]}
        tries.append(body)
        return (503, {}, {"Retry-After": "0"}) if len(tries) < 3 else (400, {"error": "no"})

    chat_stub.responder = respond
    code = run_cli(
        "run", "--dataset", toy_path, "--endpoint", chat_stub.url,
        "--model", "demo", "--out", str(tmp_path / "r"),
    )
    assert code == 3
    assert len(tries) == 3
    assert capsys.readouterr().out == f"requests sent: {len(chat_stub.requests)}\n"


def test_a_key_holding_a_line_break_aborts_the_run_before_any_request(
    chat_stub, toy_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("CMDREASON_API_KEY", "sk-1\r\nX-Injected: 1")
    code = run_cli(
        "run", "--dataset", toy_path, "--endpoint", chat_stub.url,
        "--model", "demo", "--out", str(tmp_path / "r"),
    )
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "requests sent: 0\n"
    assert "holds a line break" in err
    assert chat_stub.requests == []


def test_a_key_outside_ascii_aborts_the_run_before_any_request(
    chat_stub, toy_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("CMDREASON_API_KEY", "tok\u20acn")
    code = run_cli(
        "run", "--dataset", toy_path, "--endpoint", chat_stub.url,
        "--model", "demo", "--out", str(tmp_path / "r"),
    )
    assert code == 3
    out, err = capsys.readouterr()
    assert out == "requests sent: 0\n"
    assert "outside printable ASCII" in err
    assert chat_stub.requests == []


def test_unknown_mock_endpoint_is_usage_error(toy_path, tmp_path, capsys):
    # the endpoint or model is rejected before any artifact is written
    refused = {
        ("mock://chaos", "demo"): "unknown mock endpoint",
        ("localhost:8000/v1", "demo"): "bad endpoint 'localhost:8000/v1': not an http(s) URL",
        ("ftp://h/v1", "demo"): "bad endpoint 'ftp://h/v1': not an http(s) URL",
        ("http://127.0.0.1:9/v 1", "demo"): "the URL path must be printable ASCII without spaces",
        ("/", "demo"): "endpoint_url must be non-empty",
        ("mock://gold", ""): "model_name must be non-empty",
        # the lone surrogate that the argv byte 0xff decodes to has no UTF-8 encoding
        ("http://127.0.0.1:9/v\udcff", "demo"): "endpoint_url must be UTF-8 text",
        ("mock://gold", "de\udcffmo"): "model_name must be UTF-8 text",
    }
    for (endpoint, model), message in refused.items():
        for command in ("run", "ablate"):
            code = run_cli(
                command, "--dataset", toy_path, "--endpoint", endpoint, "--model", model,
                "--out", str(tmp_path / command),
            )
            assert code == 1
            assert message in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []


def test_a_model_of_undecodable_argv_bytes_exits_1_without_a_traceback(toy_path, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "cmdreason.cli", "run", "--dataset", toy_path, "--endpoint",
         "mock://gold", "--model", b"de\xffmo", "--out", str(tmp_path / "r")],
        capture_output=True, env=child_env(),
    )
    assert result.returncode == 1
    assert result.stderr.startswith(b"error: model_name must be UTF-8 text")
    assert b"Traceback" not in result.stderr
    assert list(tmp_path.rglob("*")) == []


INPUT_FLAGS = ["--dataset", "--template", "--records", "--rules"]


@pytest.mark.parametrize(
    "flag, failure",
    [(flag, "not-utf8") for flag in INPUT_FLAGS]
    + [(flag, "unreadable") for flag in [*INPUT_FLAGS, "--in"]]
    + [(flag, "directory") for flag in [*INPUT_FLAGS, "--in"]],
)
def test_an_input_file_that_is_not_utf8_is_a_data_error_naming_it(
    flag, failure, toy_path, tmp_path, capsys, monkeypatch
):
    rand = tmp_path / "rand"
    assert run_cli("baseline", "--dataset", toy_path, "--random", "--out", str(rand)) == 0
    files = {"--dataset": Path(toy_path), "--template": default_template_path(),
             "--records": rand / "records.jsonl",
             "--rules": default_template_path().parent / "example_rules.tsv",
             "--in": rand / "report.json"}
    named = tmp_path / "bad"  # the path the flag names: for --in, the run directory
    bad = named / "report.json" if flag == "--in" else named
    bad.parent.mkdir(exist_ok=True)
    bad.write_bytes(files[flag].read_bytes().replace(b"\n", b"\n\xff", 1))  # 0xff opens line 2
    expected = f"{bad}:2: not UTF-8 text: invalid start byte 0xff"
    if failure == "directory":  # the path is there, but it is no regular file
        bad.unlink()
        bad.mkdir()
        expected = f"not a file: {bad}"
    if failure == "unreadable":  # the file is there, but reading it fails, as EACCES does
        read_bytes = Path.read_bytes

        def refuse(path: Path) -> bytes:
            if path == bad:
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", refuse)
        expected = f"cannot read {bad}: [Errno 13] Permission denied: '{bad}'"
    out = str(tmp_path / "out")
    gold = ["--endpoint", "mock://gold", "--model", "demo", "--out", out]
    command = {
        "--dataset": ["run", *gold],
        "--template": ["run", "--dataset", toy_path, *gold],
        "--records": ["score", "--dataset", toy_path],
        "--rules": ["baseline", "--dataset", toy_path, "--out", out],
        "--in": ["report", "--out", out],
    }[flag]
    capsys.readouterr()
    assert run_cli(*command, flag, str(named)) == 2
    assert capsys.readouterr().err == f"data error: {expected}\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("modes,shots", [(",", "0"), ("none", ","), (" ", " ")])
def test_ablate_rejects_an_empty_mode_or_shot_list(toy_path, tmp_path, capsys, modes, shots):
    code = run_cli(
        "ablate", "--dataset", toy_path, "--endpoint", "mock://gold", "--model", "demo",
        "--modes", modes, "--shots", shots, "--out", str(tmp_path / "g"),
    )
    assert code == 1
    assert "at least one mode and one shot count" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


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


def test_report_of_no_run_or_an_unknown_format_is_a_usage_error(toy_path, tmp_path, capsys):
    rand = str(tmp_path / "rand")
    run_cli("baseline", "--dataset", toy_path, "--random", "--out", rand)
    capsys.readouterr()
    out = tmp_path / "r.md"
    assert run_cli("report", "--in", "--out", str(out)) == 1
    assert "--in: expected at least one argument" in capsys.readouterr().err
    assert run_cli("report", "--in", rand, "--format", "yaml", "--out", str(out)) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_report_to_an_unwritable_path_is_a_data_error(toy_path, tmp_path, capsys):
    rand = str(tmp_path / "rand")
    run_cli("baseline", "--dataset", toy_path, "--random", "--out", rand)
    blocker = tmp_path / "file.txt"
    blocker.write_text("in the way")
    capsys.readouterr()
    assert run_cli("report", "--in", rand, "--out", str(blocker / "nested.md")) == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot write {blocker / 'nested.md'}")
    assert blocker.read_text() == "in the way"


@pytest.mark.parametrize(
    "change",
    [
        lambda report: [report],
        lambda report: {**report, "command_level": 5},
        lambda report: {**report, "per_question": list(report["per_question"].values())},
        lambda report: {k: v for k, v in report.items() if k != "failure_policy"},
        lambda report: {**report, "failure_policy": "lenient"},
        lambda report: {**report, "label": "\ud83d"},
    ],
    ids=["json-list", "number-percentage", "per-question-list", "no-policy", "unknown-policy",
         "lone-surrogate-label"],
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


def test_report_refuses_runs_scored_under_different_policies(toy_path, tmp_path, capsys):
    gold = ("--dataset", toy_path, "--endpoint", "mock://gold", "--model", "demo")
    strict, exclude, rand = (str(tmp_path / name) for name in ("strict", "exclude", "rand"))
    assert run_cli("run", *gold, "--out", strict) == 0
    assert run_cli("run", *gold, "--policy", "exclude", "--out", exclude) == 0
    assert run_cli("baseline", "--dataset", toy_path, "--random", "--out", rand) == 0
    capsys.readouterr()
    out = tmp_path / "r.md"
    assert run_cli("report", "--in", strict, rand, exclude, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"data error: {exclude} was scored under failure policy exclude, {strict} under"
        " strict: a table compares one policy\n"
    )
    assert run_cli("report", "--in", exclude, rand, strict, "--out", str(out)) == 2
    assert f"data error: {rand} was scored under failure policy strict" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("report", "--in", strict, rand, "--out", str(out)) == 0


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


def answer_with_a_lone_surrogate(stub, bad_command, n_messages):
    """Answer bad_command, asked in n_messages messages, with JSON text UTF-8 cannot encode."""

    def respond(body):
        messages = json.loads(body)["messages"]
        bad = len(messages) == n_messages and messages[-1]["content"] == bad_command
        content = "Output is [0 0 0 1 0 0 0 0]." + ("\\ud83d" if bad else "")
        reply = '{"choices":[{"message":{"role":"assistant","content":"%s"}}]}' % content
        return 200, reply.encode()

    stub.responder = respond


def test_a_lone_surrogate_in_an_answer_aborts_the_run_with_its_partial_snapshots(
    chat_stub, toy_path, tmp_path, capsys
):
    bad = load_dataset(toy_path)[5].text
    answer_with_a_lone_surrogate(chat_stub, bad, 8)  # the system message and 3 shot pairs
    out = tmp_path / "run"
    code = run_cli("run", "--dataset", toy_path, "--endpoint", chat_stub.url, "--model", "m",
                   "--out", str(out))
    assert code == 3
    assert "not valid Unicode" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "records.partial.jsonl", "responses.partial.jsonl", "spec.json"
    ]
    # every answer sent but the bad one is cached, and nothing under the bad one's key
    assert len(cache_entries(tmp_path / "autocache")) == len(chat_stub.requests) - 1
    assert bad not in (out / "responses.partial.jsonl").read_text()


def test_a_lone_surrogate_in_an_answer_fails_only_its_own_ablation_cell(
    chat_stub, toy_path, tmp_path
):
    answer_with_a_lone_surrogate(chat_stub, load_dataset(toy_path)[5].text, 2)  # the 0-shot cell
    out = tmp_path / "grid"
    code = run_cli("ablate", "--dataset", toy_path, "--endpoint", chat_stub.url, "--model", "m",
                   "--modes", "none", "--shots", "0,1", "--out", str(out))
    assert code == 3
    zero, one = json.loads((out / "ablation.json").read_text())
    assert zero["error"].startswith("AbortedRun") and "not valid Unicode" in zero["error"]
    assert one["error"] is None and one["command_level"] is not None
    assert (out / "none_1shot" / "report.json").is_file()
    assert len(cache_entries(tmp_path / "autocache")) == len(chat_stub.requests) - 1


@pytest.mark.parametrize(
    "blocked,refused,code",
    [("none_0shot", None, 2),  # only a data error
     ("none_0shot", 4, 2),  # a data error, then a backend error
     ("none_1shot", 2, 3)],  # a backend error, then a data error
)
def test_ablate_exits_with_the_code_of_its_first_failed_cell(
    chat_stub, toy_path, tmp_path, blocked, refused, code
):
    # a file where a cell's directory goes fails that cell as a data error, and
    # refusing the requests of `refused` messages (2: 0 shots, 4: 1 shot) fails that cell's run
    def respond(body):
        if len(json.loads(body)["messages"]) == refused:
            return 400, {"error": "no"}
        return 200, {"choices": [{"message": {"role": "assistant", "content": "[0 0 0 0 0 0 0 0]"}}]}

    chat_stub.responder = respond
    out = tmp_path / "grid"
    out.mkdir()
    (out / blocked).write_text("in the way")
    assert run_cli("ablate", "--dataset", toy_path, "--endpoint", chat_stub.url, "--model", "m",
                   "--modes", "none", "--shots", "0,1", "--out", str(out)) == code
    rows = {f"{row['mode']}_{row['shots']}shot": row["error"]
            for row in json.loads((out / "ablation.json").read_text())}
    assert rows.pop(blocked).startswith(f"UnwritableOutput: cannot clear {out / blocked}")
    (other,) = rows.values()
    assert (other is None) == (refused is None)
    assert other is None or other.startswith("AbortedRun: run aborted after 0 of 24")


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
