"""Byte pins: the requests and the artifacts of fixed runs, as sha256 digests.

A cold run against the in-process stub endpoint, and its warm replay from
the cache, must send and write exactly the bytes pinned here: each request
body with its cache key, spec.json, responses.jsonl, records.jsonl and
report.json, and the cache's rows.  So must a run that a 400 aborts (its
spec.json and .partial pair), a 4-cell grid (every file of every cell, and
ablation.json and ablation.md), and both baselines (records.jsonl and
report.json).  So must what run (cold, then warm), ablate, baseline and
score print, and the tables that report --in writes over a gold run and both
baselines, in each format.  The corpus is the toy dataset plus commands that
hold non-ASCII and astral characters, a quote, a backslash, a control
character and U+2028, one of them twice; the replies mix bracket,
step-fallback and unparseable answers.  The endpoint names a fixed address
that the stub serves as its own CONNECT proxy, so the keys, which hash the
endpoint URL, do not depend on the stub's port.  A change that moves a
pinned byte fails here; a change meant to move one updates the digest and
says why.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from conftest import cache_entries, toy_dataset_path
import cmdreason.cli as cli
from cmdreason.backend import BackendConfig
from cmdreason.baselines import example_rules_path
from cmdreason.dataset import LabeledCommand, RequirementVector, load_dataset, save_dataset
from cmdreason.harness import (
    REPORT_FORMATS,
    AblationGrid,
    AbortedRun,
    ExperimentSpec,
    run_ablation,
    run_experiment,
)
from cmdreason.prompt import ExplanationMode, default_template

# reached only through the stub as its proxy: nothing listens on the discard port
ENDPOINT = "http://127.0.0.1:9/v1"

EXTRA_COMMANDS = [
    ("u1", "Öffne das Fenster — bitte", "10000000"),
    ("u2", "Play 🎵 on the 🚗 speakers", "00001000"),
    ("u3", 'Text Mom "on my way"', "01000110"),
    ("u4", "Open C:\\trips\\notes.txt on the screen", "00001100"),
    ("u5", "Stop\x07 the car", "00010001"),
    ("u6", "Turn left\u2028then park", "10110001"),
    ("u7", "Öffne das Fenster — bitte", "10000000"),  # u1's text again: sent once
]

PINS = {
    "requests": "4f68308db45f78d4732566dc0d83b2d243022e2ffc141a4a290a23dc4e7b3d05",
    "spec.json": "a207ebf16ff38147dc2bd656b6eef67e1612099551d82d8a84e9da6745338726",
    "responses.jsonl": "09bf5b9179e315cc9df5c5a403973dc2c090dada05ca12860cb82f5738b04014",
    "records.jsonl": "37bd3fc5e06f114d813d855093b0d05ac0099972b43fedc44eeba39fa0b7c384",
    "report.json": "4428b55f9ff9db10182f1edc49543ce612c9e59b79c24cee4a3d6885e2f140ee",
    "cache rows": "058c0764e4a6cf3975468a02e6440d835164a868fce286a894532896374980d7",
    "score stdout": "b1e07c13057bd08aacbd8b343c6b7e917ce838e9430c8c87ec304ca376a40f44",
}
# the run's spec.json as versions that wrote "output_dir" wrote it, which must still load
OLD_SPEC_JSON = "616d4185084ac1e569158af3e3fa893c4faa0d3d9fa11ac67c14fa7395f4efa0"
# every file under a directory, as the digest of its sorted "path sha256" lines
TREE_PINS = {
    "aborted": "1fb7edd658aac138b704879ed9d279ddb75ba61a77d95c3e98668395d993a902",
    "grid": "8e640ca757f942b408e6faa086e70f7df6fba7c30fc0bc0b266a7c8cff3b0e12",
    "random": "0166f6041733f5eed2f12b6e341670cb313120ac9d5b03cb52a74bfbead2d013",
    "rules": "7fd7f781eb8953f346664efe71af363caa6bef5b1156f44c5f520b0db5508918",
}
# what the subcommands print, and the tables that report --in writes
TABLE_PINS = {
    "run cold": "364074c16ee45fed65b6a026b72b90b05f0419f9b0996bde55416ccf7e9f8323",
    "run warm": "1a2b9c033f8c812ad002eb426f23a6a67bab6d4c9b0c14d14d631cec25385546",
    "ablate": "2de4be8cf94d99bd130d0b4b045ded71f0d70abbfd7f0b3db64147cab37c8dd4",
    "baseline random": "351ffd74430d80f1943a8818a6b5aeba0a95f009736b6da6f872a028b3e9dc4b",
    "baseline rules": "6e91d5f0165ac1d8e9d467f136c7d820d419aa64a02b749aae1ac0fa4988ebdd",
    "report table": "303d18b4aa1e1ea1ea7bfcc93f1e9260b1760a1418c795c5d19b3101013299ce",
    "report csv": "0f3b80adafb5e4473d4379e97492f537287e489772ef8ef44d96b504a7772d62",
    "report md": "6eadbf3c80ca8de920a0965343966256ec82ebb069320f15707acc0340e37e3b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    lines = sorted(
        f"{path.relative_to(root).as_posix()} {sha256(path.read_bytes())}"
        for path in root.rglob("*")
        if path.is_file()
    )
    return sha256("\n".join(lines).encode())


def reply_for(i: int, rec: LabeledCommand) -> str:
    """The stub's answer to the i-th distinct command: one of four kinds, in turn."""
    kind = i % 4
    if kind == 0:  # the gold vector on the answer line
        return f"Explanation: …\nTherefore, the output should be : {rec.gold.bracket()}"
    if kind == 1:  # a wrong vector, after a restated format
        wrong = RequirementVector(not flag for flag in rec.gold)
        return f"Format [A1 A2 A3 A4 A5 A6 A7 A8].\r\nSo: {wrong.bracket()}"
    if kind == 2:  # no bracket vector: the step lines answer
        return "\n".join(
            f"Step {k}: {'Yes' if flag else 'No'}, because." for k, flag in enumerate(rec.gold, 1)
        )
    return f'I cannot tell "{rec.text}" \\ 🚦\u2028apart.\rStep 1: maybe'  # unparseable


@pytest.fixture()
def corpus(tmp_path, monkeypatch) -> list[LabeledCommand]:
    """The corpus, saved as pins.tsv in tmp_path, which becomes the working directory."""
    data = load_dataset(toy_dataset_path()) + [
        LabeledCommand(command_id, text, RequirementVector.from_bits(bits))
        for command_id, text, bits in EXTRA_COMMANDS
    ]
    monkeypatch.chdir(tmp_path)
    save_dataset(data, "pins.tsv")
    return data


@pytest.fixture()
def pinned(corpus, chat_stub, monkeypatch):
    """The corpus and its run spec; the stub answers each command with reply_for, as the proxy."""
    data = corpus
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{chat_stub.server_address[1]}")
    replies = {}
    for rec in data:
        replies.setdefault(rec.text, reply_for(len(replies), rec))

    def respond(body):
        command = json.loads(body)["messages"][-1]["content"]
        return 200, {"choices": [{"message": {"role": "assistant", "content": replies[command]}}]}

    chat_stub.responder = respond
    return data, ExperimentSpec(
        dataset_path="pins.tsv",
        prompt_config=default_template().config(ExplanationMode.STEPWISE, 2),
        backend_config=BackendConfig(endpoint_url=ENDPOINT, model_name="pinned-model"),
        output_dir="run",
    )


def test_requests_and_artifacts_are_pinned(pinned, chat_stub, tmp_path, capsys):
    data, spec = pinned
    names = ("spec.json", "responses.jsonl", "records.jsonl", "report.json")
    runs = []
    for _ in ("cold", "warm"):
        run_experiment(spec)
        runs.append({name: sha256((tmp_path / "run" / name).read_bytes()) for name in names})

    bodies = [body for _, _, body in chat_stub.requests]
    assert len(bodies) == len({rec.text for rec in data})  # the warm replay sent nothing
    prefix = ENDPOINT.encode() + b"\0"
    keyed = sorted(f"{sha256(prefix + body)} {sha256(body)}" for body in bodies)
    lines = (tmp_path / "run" / "records.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert {line.split()[0] for line in keyed} == {row["cache_key"] for row in records}
    assert {row["method"] for row in records} == {"bracket", "step_fallback", None}
    rows = sorted(cache_entries(tmp_path / "autocache").items())
    score = ["score", "--records", "run/records.jsonl", "--dataset", "pins.tsv"]
    assert cli.main([*score, "--policy", "exclude"]) == 0
    got = {
        "requests": sha256("\n".join(keyed).encode()),
        **runs[0],
        "cache rows": sha256(json.dumps(rows).encode()),
        "score stdout": sha256(capsys.readouterr().out.encode()),
    }
    assert runs[1] == runs[0]
    assert got == PINS


def test_a_spec_json_that_names_its_output_dir_still_loads(pinned):
    _, spec = pinned
    old = {**spec.to_json_dict(), "output_dir": "run"}
    written = json.dumps(old, indent=2, sort_keys=True) + "\n"
    assert sha256(written.encode()) == OLD_SPEC_JSON
    assert ExperimentSpec.from_json_dict(json.loads(written), "run") == spec


def test_aborted_run_files_are_pinned(pinned, chat_stub, tmp_path):
    data, spec = pinned
    # one worker sends in dataset order, so the abort at the 11th command is
    # preceded by exactly the first 10 answers
    respond = chat_stub.responder
    chat_stub.responder = lambda body: (
        (400, {"error": "bad request"})
        if json.loads(body)["messages"][-1]["content"] == data[10].text
        else respond(body)
    )
    config = dataclasses.replace(spec.backend_config, max_in_flight=1)
    with pytest.raises(AbortedRun) as aborted:
        run_experiment(dataclasses.replace(spec, backend_config=config, output_dir="aborted"))
    assert aborted.value.n_completed == 10
    assert sorted(p.name for p in (tmp_path / "aborted").iterdir()) == [
        "records.partial.jsonl", "responses.partial.jsonl", "spec.json",
    ]
    assert tree_digest(tmp_path / "aborted") == TREE_PINS["aborted"]


def test_grid_files_are_pinned(pinned, tmp_path):
    _, spec = pinned
    base = dataclasses.replace(spec, prompt_config=default_template(), output_dir="grid")
    modes = (ExplanationMode.NONE, ExplanationMode.STEPWISE)
    cells = run_ablation(AblationGrid(base, modes, (0, 2)))
    assert [cell.error for cell in cells] == [None] * 4
    assert len(list((tmp_path / "grid").rglob("*.*"))) == 2 + 4 * 4
    assert tree_digest(tmp_path / "grid") == TREE_PINS["grid"]


def test_baseline_files_are_pinned(pinned, tmp_path):
    for name, method in (("random", ["--random", "--seed", "7"]),
                         ("rules", ["--rules", str(example_rules_path())])):
        assert cli.main(["baseline", "--dataset", "pins.tsv", *method, "--out", name]) == 0
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == [
            "records.jsonl", "report.json",
        ]
        assert tree_digest(tmp_path / name) == TREE_PINS[name], name


def test_printed_and_reported_tables_are_pinned(corpus, capsys):
    gold = ["--dataset", "pins.tsv", "--endpoint", "mock://gold", "--model", "gold-model"]
    got = {}
    for name, argv in (
        ("run cold", ["run", *gold, "--out", "gold"]),
        ("run warm", ["run", *gold, "--out", "gold"]),
        ("ablate", ["ablate", *gold, "--out", "grid"]),
        ("baseline random", ["baseline", "--dataset", "pins.tsv", "--random", "--out", "random"]),
        ("baseline rules", ["baseline", "--dataset", "pins.tsv",
                            "--rules", str(example_rules_path()), "--out", "rules"]),
    ):
        assert cli.main(argv) == 0, name
        got[name] = sha256(capsys.readouterr().out.encode())
    for fmt in REPORT_FORMATS:
        out = f"report.{fmt}"
        assert cli.main(["report", "--in", "gold", "random", "rules", "--format", fmt,
                         "--out", out]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        got[f"report {fmt}"] = sha256(Path(out).read_bytes())
    assert got == TABLE_PINS
