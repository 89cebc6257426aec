"""Byte pins: the requests and the artifacts of one fixed run, as sha256 digests.

A cold run against the in-process stub endpoint, and its warm replay from the
cache, must send and write exactly the bytes pinned here: each request body
with its cache key, and spec.json, responses.jsonl, records.jsonl and
report.json.  The corpus is the toy dataset plus commands that hold non-ASCII
and astral characters, a quote, a backslash, a control character and U+2028,
one of them twice; the replies mix bracket, step-fallback and unparseable
answers.  The endpoint names a fixed address that the stub serves as its own
CONNECT proxy, so the keys, which hash the endpoint URL, do not depend on the
stub's port.  A change that moves a pinned byte fails here; a change meant to move
one updates the digest and says why.
"""
from __future__ import annotations

import hashlib
import json

from conftest import toy_dataset_path
from cmdreason.backend import BackendConfig
from cmdreason.dataset import LabeledCommand, RequirementVector, load_dataset, save_dataset
from cmdreason.harness import ExperimentSpec, run_experiment
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
    "spec.json": "616d4185084ac1e569158af3e3fa893c4faa0d3d9fa11ac67c14fa7395f4efa0",
    "responses.jsonl": "09bf5b9179e315cc9df5c5a403973dc2c090dada05ca12860cb82f5738b04014",
    "records.jsonl": "37bd3fc5e06f114d813d855093b0d05ac0099972b43fedc44eeba39fa0b7c384",
    "report.json": "4428b55f9ff9db10182f1edc49543ce612c9e59b79c24cee4a3d6885e2f140ee",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def test_requests_and_artifacts_are_pinned(chat_stub, tmp_path, monkeypatch):
    data = load_dataset(toy_dataset_path()) + [
        LabeledCommand(command_id, text, RequirementVector.from_bits(bits))
        for command_id, text, bits in EXTRA_COMMANDS
    ]
    monkeypatch.chdir(tmp_path)
    save_dataset(data, "pins.tsv")
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
    spec = ExperimentSpec(
        dataset_path="pins.tsv",
        prompt_config=default_template().config(ExplanationMode.STEPWISE, 2),
        backend_config=BackendConfig(endpoint_url=ENDPOINT, model_name="pinned-model"),
        output_dir="run",
    )
    names = ("spec.json", "responses.jsonl", "records.jsonl", "report.json")
    runs = []
    for _ in ("cold", "warm"):
        run_experiment(spec)
        runs.append({name: sha256((tmp_path / "run" / name).read_bytes()) for name in names})

    bodies = [body for _, _, body in chat_stub.requests]
    assert len(bodies) == len(replies)  # the warm replay sent nothing
    prefix = ENDPOINT.encode() + b"\0"
    keyed = sorted(f"{sha256(prefix + body)} {sha256(body)}" for body in bodies)
    lines = (tmp_path / "run" / "records.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert {line.split()[0] for line in keyed} == {row["cache_key"] for row in records}
    assert {row["method"] for row in records} == {"bracket", "step_fallback", None}
    got = {"requests": sha256("\n".join(keyed).encode()), **runs[0]}
    assert runs[1] == runs[0]
    assert got == PINS
