from __future__ import annotations

import collections
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    CountingMock,
    all_closed,
    awkward_text,
    cache_entries,
    child_env,
    prompt_configs,
    vectors,
)
from cmdreason import harness
from cmdreason.backend import (
    BackendConfig,
    HttpChatBackend,
    MockChatBackend,
    ProtocolError,
    RateLimited,
    RequestEncoder,
    ResponseCache,
)
from cmdreason.dataset import (
    LabeledCommand,
    MalformedRecord,
    RequirementVector,
    load_dataset,
    save_dataset,
)
from cmdreason.errors import UsageError
from cmdreason.harness import (
    AblationGrid,
    AbortedRun,
    ExperimentSpec,
    ablation_table,
    build_backend,
    comparison_table,
    gold_echo_script,
    load_records,
    load_report,
    report_json_dict,
    run_ablation,
    run_experiment,
)
from cmdreason.metrics import EvalReport, PredictionRecord, evaluate
from cmdreason.prompt import ExplanationMode, transcript_prefix


def gold_config(**overrides) -> BackendConfig:
    """The backend config of make_spec's specs, which a backend run with them must carry."""
    return BackendConfig(endpoint_url="mock://gold", model_name="mock-gold", **overrides)


@pytest.fixture
def thread_starts(monkeypatch) -> list[threading.Thread]:
    """Every thread started while the test runs, in start order."""
    started: list[threading.Thread] = []
    original = threading.Thread.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def make_spec(toy_path, template, out_dir, **overrides) -> ExperimentSpec:
    shots = overrides.pop("shots", 2)
    mode = overrides.pop("mode", ExplanationMode.STEPWISE)
    overrides.setdefault("backend_config", gold_config())
    return ExperimentSpec(
        dataset_path=str(toy_path),
        prompt_config=template.config(mode, shots),
        output_dir=str(out_dir),
        **overrides,
    )


def gold_backend(toy_data, cache_dir, max_in_flight=4) -> CountingMock:
    return CountingMock(
        gold_echo_script(toy_data),
        config=gold_config(max_in_flight=max_in_flight),
        cache=ResponseCache(cache_dir),
    )


# =============================================================================
# run_experiment
# =============================================================================


def test_gold_mock_run_is_perfect(toy_path, toy_data, template, tmp_path):
    spec = make_spec(toy_path, template, tmp_path / "run")
    result = run_experiment(spec, gold_backend(toy_data, tmp_path / "cache"))
    assert result.report.command_level_accuracy == 1
    assert result.report.question_level_accuracy == 1
    assert result.report.n_parse_failures == 0


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_run_persists_all_artifacts(toy_path, toy_data, template, tmp_path):
    out = tmp_path / "run"
    spec = make_spec(toy_path, template, out)
    run_experiment(spec, gold_backend(toy_data, tmp_path / "cache"))
    assert sorted(p.name for p in out.iterdir()) == [
        "records.jsonl", "report.json", "responses.jsonl", "spec.json"
    ]
    responses = read_jsonl(out / "responses.jsonl")
    assert [row["id"] for row in responses] == [rec.command_id for rec in toy_data]
    assert all(list(row) == ["id", "text"] for row in responses)
    assert responses[0]["text"].endswith("[0 1 0 0 1 1 1 0]")


def test_records_cover_every_command_once_in_dataset_order(
    toy_path, toy_data, template, tmp_path
):
    spec = make_spec(toy_path, template, tmp_path / "run")
    result = run_experiment(spec, gold_backend(toy_data, tmp_path / "cache"))
    assert [r.command_id for r in result.records] == [rec.command_id for rec in toy_data]
    on_disk = load_records(tmp_path / "run" / "records.jsonl")
    assert on_disk == result.records
    assert all(r.method == "bracket" for r in on_disk)
    rows = read_jsonl(tmp_path / "run" / "records.jsonl")
    assert [row["gold"] for row in rows] == [rec.gold.bits() for rec in toy_data]


def test_warm_run_builds_each_vector_once_from_the_dataset(
    toy_path, toy_data, template, tmp_path, monkeypatch
):
    spec = make_spec(toy_path, template, tmp_path / "run")
    run_experiment(spec, gold_backend(toy_data, tmp_path / "cache"))
    callers = []
    from_bits = RequirementVector.from_bits.__func__

    def counting(cls, bits):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return from_bits(cls, bits)

    monkeypatch.setattr(RequirementVector, "from_bits", classmethod(counting))
    warm = run_experiment(spec, gold_backend(toy_data, tmp_path / "cache"))
    assert warm.n_cache_hits == len(toy_data)
    assert callers == ["cmdreason.dataset"] * len(toy_data)


def test_warm_gold_run_builds_only_its_prefix_messages_and_no_vector(
    toy_path, toy_data, template, tmp_path, monkeypatch
):
    # a warm replay of mock://gold builds its transcript prefix once, encodes
    # each command's text without a message, and takes every vector from the
    # table: one transcript_prefix call, whatever the dataset size, and no
    # RequirementVector at all
    spec = make_spec(toy_path, template, tmp_path / "run")
    run_experiment(spec)
    built = []
    prefix, new = harness.transcript_prefix, RequirementVector.__new__

    def counting_prefix(config):
        built.append("transcript_prefix")
        return prefix(config)

    def counting_new(cls, flags):
        built.append("RequirementVector")
        return new(cls, flags)

    monkeypatch.setattr(harness, "transcript_prefix", counting_prefix)
    monkeypatch.setattr(RequirementVector, "__new__", staticmethod(counting_new))
    warm = run_experiment(spec)
    assert warm.n_cache_hits == len(toy_data)
    assert built == ["transcript_prefix"]
    # the counter counts
    built.clear()
    RequirementVector((True,) * 8)
    assert built == ["RequirementVector"]


GOOD_RECORD = {
    "id": "c01", "cache_key": "k", "method": "bracket", "failure_reason": None,
    "predicted": "01001110", "gold": "01001110",
}


@pytest.mark.parametrize(
    "line",
    [
        json.dumps({**GOOD_RECORD, "predicted": "0123"}),
        json.dumps([GOOD_RECORD]),
        json.dumps({**GOOD_RECORD, "method": None}),
        json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "method"}),
        json.dumps({**GOOD_RECORD, "failure_reason": "no_bracket_no_steps"}),
        json.dumps({**GOOD_RECORD, "method": None, "predicted": None}),
        json.dumps({**GOOD_RECORD, "id": ""}),
        "{not json",
        json.dumps({**GOOD_RECORD, "predicted": list("01001110")}),
        json.dumps({**GOOD_RECORD, "predicted": 1001110}),
        json.dumps({**GOOD_RECORD, "id": 7}),
        json.dumps({**GOOD_RECORD, "method": 1}),
        json.dumps({**GOOD_RECORD, "method": None, "predicted": None, "failure_reason": 3}),
        json.dumps({**GOOD_RECORD, "cache_key": 12}),
        json.dumps({**GOOD_RECORD, "cache_key": None}),
        # written as the byte 0xff
        json.dumps({**GOOD_RECORD, "id": "c\udcff"}, ensure_ascii=False),
    ],
    ids=[
        "short-mask", "json-list", "mask-without-method", "missing-key",
        "mask-and-failure", "neither", "empty-id", "not-json",
        "mask-as-list", "mask-as-number", "int-id", "int-method",
        "int-failure-reason", "int-cache-key", "null-cache-key", "not-utf-8",
    ],
)
def test_load_records_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "records.jsonl"
    path.write_text(
        json.dumps(GOOD_RECORD) + "\n" + line + "\n", encoding="utf-8", errors="surrogateescape"
    )
    with pytest.raises(MalformedRecord) as err:
        load_records(path)
    assert err.value.line_no == 2


def test_load_records_skips_blank_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("\n" + json.dumps(GOOD_RECORD) + "\n \t\n", encoding="utf-8")
    assert [r.command_id for r in load_records(path)] == [GOOD_RECORD["id"]]


def test_one_unparseable_response_hand_count(toy_path, toy_data, template, tmp_path):
    script = gold_echo_script(toy_data)
    script[toy_data[7].text] = "I will comply."  # c08 becomes unparseable
    backend = MockChatBackend(script, config=gold_config(), cache=ResponseCache(tmp_path / "cache"))

    strict = run_experiment(
        make_spec(toy_path, template, tmp_path / "strict"), backend
    )
    assert strict.report.n_parse_failures == 1
    assert strict.report.command_level_accuracy == Fraction(23, 24)
    assert strict.report.question_level_accuracy == Fraction(23 * 8, 24 * 8)
    assert strict.report.per_question_accuracy == (Fraction(23, 24),) * 8
    failed = [r for r in strict.records if r.failure_reason][0]
    assert failed.command_id == "c08"
    assert failed.vector is None
    assert failed.failure_reason == "no_bracket_no_steps"

    excl = run_experiment(
        make_spec(toy_path, template, tmp_path / "excl", failure_policy="exclude"), backend
    )
    assert excl.report.command_level_accuracy == 1
    assert excl.report.n_parse_failures == 1


def test_rerun_with_warm_cache_is_byte_identical_and_offline(
    toy_path, toy_data, template, tmp_path
):
    out = tmp_path / "run"
    spec = make_spec(toy_path, template, out)
    backend = gold_backend(toy_data, tmp_path / "cache")

    first = run_experiment(spec, backend)
    snapshot = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert first.n_cache_hits == 0

    second = run_experiment(spec, backend)
    assert second.n_cache_hits == len(toy_data)
    assert second.n_backend_attempts == 0
    assert backend.send_count == len(toy_data)  # nothing new reached the network
    assert second.report == first.report
    for p in sorted(out.rglob("*")):
        if p.is_file():
            assert p.read_bytes() == snapshot[p.relative_to(out)], p


def test_parallel_dispatch_does_not_change_outputs(toy_path, toy_data, template, tmp_path):
    # stagger response times so completion order differs from dataset order
    base = gold_echo_script(toy_data)
    lock = threading.Lock()
    calls = []

    def staggered(transcript):
        import time

        text = transcript[-1]["content"]
        with lock:
            calls.append(text)
        time.sleep((hash(text) % 7) / 1000)
        return base[text]

    backend_parallel = MockChatBackend(staggered, config=gold_config(max_in_flight=8))
    out_a = tmp_path / "parallel"
    run_experiment(
        make_spec(toy_path, template, out_a, backend_config=backend_parallel.config),
        backend_parallel,
    )

    backend_serial = MockChatBackend(base, config=gold_config(max_in_flight=1))
    out_b = tmp_path / "serial"
    run_experiment(
        make_spec(toy_path, template, out_b, backend_config=backend_serial.config), backend_serial
    )

    assert (out_a / "records.jsonl").read_bytes() == (out_b / "records.jsonl").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_aborted_run_resumes_from_cache(toy_path, toy_data, template, tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    script = gold_echo_script(toy_data)
    script[toy_data[12].text] = ProtocolError("endpoint exploded")  # c13 dies
    out = tmp_path / "run"
    spec = make_spec(toy_path, template, out, backend_config=gold_config(max_in_flight=1))

    broken = CountingMock(script, config=spec.backend_config, cache=cache)
    with pytest.raises(AbortedRun) as err:
        run_experiment(spec, broken)
    assert err.value.n_completed == 12
    assert err.value.n_total == 24
    partial = load_records(out / "records.partial.jsonl")
    assert [r.command_id for r in partial] == [rec.command_id for rec in toy_data[:12]]
    assert reloaded(out / "spec.json") == spec
    responses = read_jsonl(out / "responses.partial.jsonl")
    assert [row["id"] for row in responses] == [rec.command_id for rec in toy_data[:12]]
    assert not (out / "records.jsonl").exists()

    healthy = CountingMock(gold_echo_script(toy_data), config=spec.backend_config, cache=cache)
    resumed = run_experiment(spec, healthy)
    # everything the first pass managed to complete replays from cache; only
    # the remainder (at least the command that died) goes out again
    assert resumed.n_cache_hits >= 12
    assert healthy.send_count == 24 - resumed.n_cache_hits

    clean_out = tmp_path / "clean"
    clean = run_experiment(
        make_spec(toy_path, template, clean_out, backend_config=spec.backend_config),
        gold_backend(toy_data, tmp_path / "cache2", max_in_flight=1),
    )
    assert clean.report == resumed.report
    assert (out / "records.jsonl").read_bytes() == (clean_out / "records.jsonl").read_bytes()
    assert (out / "report.json").read_bytes() == (clean_out / "report.json").read_bytes()


_KILLED_RUN = """
import itertools, os, sys
from cmdreason.backend import BackendConfig, MockChatBackend, ResponseCache
from cmdreason.dataset import load_dataset
from cmdreason.harness import ExperimentSpec, gold_echo_script, run_experiment
from cmdreason.prompt import ExplanationMode, default_template


class LoggedCache(ResponseCache):
    def put(self, key, text):
        super().put(key, text)
        sys.stdout.write(key + "\\n")  # committed
        sys.stdout.flush()


dataset, out, cache_dir = sys.argv[1:]
script = gold_echo_script(load_dataset(dataset))
calls = itertools.count(1)


def answer(transcript):
    if next(calls) == 10:
        os._exit(9)  # dies while other workers may be writing to the cache
    return script[transcript[-1]["content"]]


spec = ExperimentSpec(
    dataset,
    default_template().config(ExplanationMode.STEPWISE, 2),
    BackendConfig(endpoint_url="mock://gold", model_name="mock-gold"),
    out,
)
run_experiment(spec, MockChatBackend(answer, spec.backend_config, LoggedCache(cache_dir)))
"""


def snapshot(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_killed_run_keeps_each_committed_answer_and_resumes_to_the_same_artifacts(
    toy_path, toy_data, template, tmp_path
):
    out, cache_dir = tmp_path / "run", tmp_path / "cache"
    spec = make_spec(toy_path, template, out)
    run_experiment(spec, gold_backend(toy_data, tmp_path / "clean-cache"))
    clean = snapshot(out)
    answers = cache_entries(tmp_path / "clean-cache")
    shutil.rmtree(out)

    child = subprocess.run(
        [sys.executable, "-c", _KILLED_RUN, toy_path, str(out), str(cache_dir)],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert child.returncode == 9, child.stderr
    entries = cache_entries(cache_dir)
    logged = set(child.stdout.split())
    assert logged  # some put returned before the kill: the test cannot pass empty
    assert logged <= set(entries)  # every committed answer is there
    assert entries == {key: answers[key] for key in entries}  # and no torn one
    assert 0 < len(entries) < len(toy_data)

    backend = gold_backend(toy_data, cache_dir)
    resumed = run_experiment(spec, backend)
    assert resumed.n_cache_hits == len(entries)
    assert backend.send_count == len(toy_data) - len(entries)
    assert snapshot(out) == clean


def test_response_ids_round_trip_verbatim(template, tmp_path):
    data = [
        LabeledCommand("weird/id: 1", "Honk the horn.", RequirementVector.from_bits("00010000"))
    ]
    ds = tmp_path / "d.tsv"
    save_dataset(data, ds)
    spec = make_spec(ds, template, tmp_path / "run")
    result = run_experiment(spec, MockChatBackend(gold_echo_script(data), spec.backend_config))
    assert result.records[0].command_id == "weird/id: 1"
    assert read_jsonl(tmp_path / "run" / "responses.jsonl") == [
        {"id": "weird/id: 1", "text": gold_echo_script(data)["Honk the horn."]}
    ]


def test_responses_are_byte_identical_across_reruns_and_concurrency(
    toy_path, toy_data, template, tmp_path
):
    outputs = []
    for max_in_flight in (1, 4):
        backend = gold_backend(toy_data, tmp_path / f"cache{max_in_flight}", max_in_flight)
        for attempt in ("cold", "warm"):
            out = tmp_path / f"run{max_in_flight}{attempt}"
            spec = make_spec(toy_path, template, out, backend_config=backend.config)
            run_experiment(spec, backend)
            outputs.append((out / "responses.jsonl").read_bytes())
    assert len(set(outputs)) == 1


def test_each_command_is_keyed_and_looked_up_once_and_warm_runs_send_nothing(
    toy_path, toy_data, template, tmp_path, monkeypatch, thread_starts
):
    key_calls, get_calls = [], []  # get_calls: every key passed to ResponseCache.get_many
    original_key, original_get_many = RequestEncoder.key, ResponseCache.get_many

    def counting_key(self, tail):
        key_calls.append(json.loads(self.head + tail)["messages"][-1]["content"])
        return original_key(self, tail)

    def counting_get_many(self, keys):
        get_calls.extend(keys)
        return original_get_many(self, keys)

    monkeypatch.setattr(RequestEncoder, "key", counting_key)
    monkeypatch.setattr(ResponseCache, "get_many", counting_get_many)
    spec = make_spec(toy_path, template, tmp_path / "run")
    cold = run_experiment(spec, gold_backend(toy_data, tmp_path / "cache"))
    assert key_calls == [rec.text for rec in toy_data]
    assert get_calls == [record.cache_key for record in cold.records]

    key_calls.clear()
    get_calls.clear()
    thread_starts.clear()
    warm = gold_backend(toy_data, tmp_path / "cache")
    result = run_experiment(spec, warm)
    assert thread_starts == []  # a fully warm run starts no thread
    assert warm.send_count == 0
    assert result.n_cache_hits == len(toy_data)
    assert key_calls == [rec.text for rec in toy_data]
    assert len(get_calls) == len(toy_data)


def test_a_repeated_command_is_looked_up_once_in_one_call_per_run(
    toy_data, template, tmp_path, monkeypatch
):
    data = [*toy_data[:3], LabeledCommand("dup", toy_data[1].text, toy_data[1].gold), toy_data[3]]
    path = tmp_path / "dup.tsv"
    save_dataset(data, path)
    lookups = []
    original_get_many = ResponseCache.get_many

    def counting_get_many(self, keys):
        lookups.append(list(keys))
        return original_get_many(self, keys)

    monkeypatch.setattr(ResponseCache, "get_many", counting_get_many)
    spec = make_spec(path, template, tmp_path / "run")
    backend = CountingMock(
        gold_echo_script(data), config=gold_config(), cache=ResponseCache(tmp_path / "cache")
    )
    cold = run_experiment(spec, backend)
    warm = run_experiment(spec, backend)
    keys = [record.cache_key for record in warm.records]
    assert keys == [record.cache_key for record in cold.records] and keys[3] == keys[1]
    assert lookups == [keys[:3] + keys[4:]] * 2  # each distinct key once, in dataset order
    assert (warm.n_cache_hits, backend.send_count) == (4, 4)


# Strings that JSON escapes: quotes, backslashes, control characters, NUL,
# non-ASCII, non-BMP characters (two \u escapes) and lone surrogates.
_AWKWARD_STRINGS = ['say "hi"', "back\\slash", "tab\tnew\nline\r", "NUL \0", "\x1f\x7f",
                    "\U0001F697 non-BMP", "lone \ud800 surrogate", "\udfff", "\xe9\u2028", "</"]
_AWKWARD_CHARS = "ab \"\\\0\x01\n\r\t\x1f\x7f\x80\xe9\u2028\ud800\U00010000\uffff\U0001F697/"


def _awkward_strings(n: int) -> list[str]:
    rng = random.Random(1138)
    return _AWKWARD_STRINGS + [
        "".join(rng.choice(_AWKWARD_CHARS) for _ in range(rng.randint(1, 12))) for _ in range(n)
    ]


def test_jsonl_lines_are_the_bytes_json_dumps_writes(tmp_path):
    strings = _awkward_strings(300)
    rows = list(zip(strings, reversed(strings)))
    harness._write_responses(tmp_path / "responses.jsonl", rows)
    assert (tmp_path / "responses.jsonl").read_bytes() == "".join(
        json.dumps({"id": i, "text": text}, sort_keys=True) + "\n" for i, text in rows
    ).encode("ascii")

    data, records, expected = [], [], []
    rng = random.Random(2718)
    for n, s in enumerate(strings):
        gold = RequirementVector.from_bits(f"{n % 256:08b}")
        vector = None if n % 3 == 0 else RequirementVector.from_bits(f"{(n * 7) % 256:08b}")
        method = None if vector is None else rng.choice(("bracket", "step_fallback", s))
        failure_reason = rng.choice(("no_bracket_no_steps", s)) if vector is None else None
        data.append(LabeledCommand(f"c{n}", "Honk.", gold))
        records.append(PredictionRecord(s, vector, method, failure_reason, strings[-n - 1]))
        expected.append({
            "id": s, "cache_key": strings[-n - 1], "method": method,
            "failure_reason": failure_reason,
            "predicted": None if vector is None else vector.bits(), "gold": gold.bits(),
        })
    harness._write_records(tmp_path / "records.jsonl", data, records)
    assert (tmp_path / "records.jsonl").read_bytes() == "".join(
        json.dumps(row, sort_keys=True) + "\n" for row in expected
    ).encode("ascii")


@st.composite
def records_with_their_commands(draw) -> tuple[list[LabeledCommand], list[PredictionRecord]]:
    """Records of awkward texts, each with the command it predicts; PredictionRecord drops some.

    The commands' gold is written but never read back, so one vector does for all.
    """
    pool = draw(st.lists(awkward_text, min_size=1, max_size=5))
    fields = st.tuples(
        st.sampled_from(pool),
        st.none() | vectors,
        st.sampled_from([None, "", "bracket", "step_fallback", "direct", *pool]),
        st.sampled_from([None, "", *pool]),
        st.sampled_from(["", *pool]),
    )
    data, records = [], []
    for args in draw(st.lists(fields, max_size=4)):
        try:
            records.append(PredictionRecord(*args))
        except ValueError:
            continue
        data.append(LabeledCommand(f"c{len(data)}", "Honk.", RequirementVector.from_bits("01001110")))
    return data, records


@settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(records_with_their_commands())
def test_written_records_load_back_equal(tmp_path, drawn):
    data, records = drawn
    harness._write_records(tmp_path / "records.jsonl", data, records)
    assert load_records(tmp_path / "records.jsonl") == records


@st.composite
def specs(draw) -> ExperimentSpec | None:
    """An ExperimentSpec of awkward values, or None for a draw that its constructors reject."""
    # each field is mostly one its constructor takes
    text = st.sampled_from(draw(st.lists(awkward_text, min_size=1, max_size=4)))
    number = st.floats(1e-3, 1e9) | st.integers(1, 3) | st.sampled_from([0, -0.0, -1, math.inf, math.nan])
    try:
        backend_config = BackendConfig(
            endpoint_url=draw(text),
            model_name=draw(text),
            temperature=draw(number),
            max_output_tokens=draw(st.integers(0, 10**9)),
            timeout_seconds=draw(number),
            max_retries=draw(st.integers(-1, 5)),
            max_in_flight=draw(st.integers(0, 8)),
        )
        return ExperimentSpec(
            draw(text), draw(prompt_configs()), backend_config, draw(text),
            draw(st.sampled_from(["strict", "exclude"] * 3 + ["lenient"])),
        )
    except ValueError:
        return None


@settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(specs())
def test_spec_json_gives_the_spec_back_or_the_spec_is_refused(tmp_path, spec):
    if spec is None:  # BackendConfig or ExperimentSpec refused the draw
        return
    path = tmp_path / "spec.json"
    harness._write_json(path, spec.to_json_dict())
    written = path.read_bytes()
    back = ExperimentSpec.from_json_dict(json.loads(written), spec.output_dir)
    assert back == spec
    harness._write_json(path, back.to_json_dict())
    assert path.read_bytes() == written


def test_cache_entries_of_another_endpoint_are_not_reused(
    toy_path, toy_data, template, tmp_path
):
    gold_config = BackendConfig(endpoint_url="mock://gold", model_name="same-model")
    gold = run_experiment(
        make_spec(toy_path, template, tmp_path / "gold", backend_config=gold_config),
        build_backend(gold_config, toy_data, ResponseCache(tmp_path / "cache")),
    )
    assert gold.report.command_level_accuracy == 1

    other_config = BackendConfig(endpoint_url="http://127.0.0.1:9/v1", model_name="same-model")
    zeros = CountingMock(
        lambda transcript: "[0 0 0 0 0 0 0 0]",
        config=other_config,
        cache=ResponseCache(tmp_path / "cache"),
    )
    other = run_experiment(
        make_spec(toy_path, template, tmp_path / "other", backend_config=other_config), zeros
    )
    assert other.n_cache_hits == 0
    assert zeros.send_count == len(toy_data)
    assert other.report.command_level_accuracy < 1


def test_another_served_model_warns_once_and_changes_no_artifact(
    chat_stub, template, tmp_path, caplog
):
    data = [LabeledCommand(f"c{i}", f"Honk {i}.", RequirementVector.from_bits("00010000"))
            for i in range(3)]
    ds = tmp_path / "d.tsv"
    save_dataset(data, ds)
    config = BackendConfig(endpoint_url=chat_stub.url, model_name="test-model")
    spec = ExperimentSpec(str(ds), template, config, str(tmp_path / "run"))
    ok = chat_stub.responder
    artifacts = []
    for served in ("test-model", "other-model"):
        chat_stub.responder = lambda body, m=served: (200, {**ok(body)[1], "model": m})
        caplog.clear()
        backend = HttpChatBackend(config, ResponseCache(tmp_path / served))
        try:
            with caplog.at_level("WARNING", logger="cmdreason.backend"):
                assert run_experiment(spec, backend).n_backend_attempts == 3
        finally:
            backend.close()
        warned = [r.getMessage() for r in caplog.records if r.name == "cmdreason.backend"]
        assert len(warned) == (served != "test-model")
        artifacts.append({p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()})
    assert "'other-model'" in warned[0]
    assert artifacts[0] == artifacts[1]


def test_each_record_keys_the_bytes_the_endpoint_received(chat_stub, template, tmp_path):
    data = [
        LabeledCommand("c1", "Öffne das Fenster — bitte 🚗", RequirementVector.from_bits("10000000")),
        LabeledCommand("c2", 'Say "hi" \\ then stop', RequirementVector.from_bits("01000000")),
        LabeledCommand("c3", "Honk.", RequirementVector.from_bits("00010000")),
    ]
    ds = tmp_path / "d.tsv"
    save_dataset(data, ds)
    config = BackendConfig(endpoint_url=chat_stub.url, model_name="modèle")
    base = ExperimentSpec(str(ds), template, config, str(tmp_path / "grid"))
    backend = HttpChatBackend(config)
    try:
        cells = run_ablation(AblationGrid(base, tuple(ExplanationMode), (0, 2)), backend)
    finally:
        backend.close()
    received = {
        hashlib.sha256(chat_stub.url.encode() + b"\0" + body).hexdigest(): json.loads(body)
        for _, _, body in chat_stub.requests
    }
    assert len(received) == len(chat_stub.requests) == 6 * len(data)
    texts = {rec.command_id: rec.text for rec in data}
    keys = []
    for cell in cells:
        for record in load_records(cell.output_dir / "records.jsonl"):
            keys.append(record.cache_key)
            assert received[record.cache_key]["messages"][-1]["content"] == texts[record.command_id]
    assert sorted(keys) == sorted(received)


class FullCache(ResponseCache):
    def put(self, key: str, text: str) -> None:
        raise OSError(28, "No space left on device")


def test_worker_failure_stops_run_and_leaves_partial_snapshot(
    toy_path, toy_data, template, tmp_path
):
    script = gold_echo_script(toy_data)

    def slow(transcript):
        time.sleep(0.005)
        return script[transcript[-1]["content"]]

    out = tmp_path / "run"
    spec = make_spec(toy_path, template, out, backend_config=gold_config(max_in_flight=2))
    backend = CountingMock(slow, config=spec.backend_config, cache=FullCache(tmp_path / "cache"))
    with pytest.raises(OSError, match="No space left"):
        run_experiment(spec, backend)
    assert backend.send_count < len(toy_data)  # queued requests were cancelled
    assert (out / "records.partial.jsonl").is_file()
    assert (out / "responses.partial.jsonl").is_file()
    assert not (out / "records.jsonl").exists()

    run_experiment(spec, gold_backend(toy_data, tmp_path / "cache", max_in_flight=2))
    assert not (out / "records.partial.jsonl").exists()
    assert not (out / "responses.partial.jsonl").exists()


def test_an_error_on_the_calling_thread_stops_every_run_and_is_raised(
    toy_path, toy_data, template, tmp_path, monkeypatch
):
    script = gold_echo_script(toy_data)

    def slow(transcript):
        time.sleep(0.005)
        return script[transcript[-1]["content"]]

    config = gold_config(max_in_flight=3)
    backend = CountingMock(slow, config=config, cache=ResponseCache(tmp_path / "cache"))
    runs = [
        harness._Run(make_spec(toy_path, template, tmp_path / f"r{k}", shots=k, backend_config=config),
                     toy_data, backend)
        for k in range(3)
    ]
    sent_before = []

    def interrupted(run, data):  # the first run's finish, on the calling thread
        sent_before.append(backend.send_count)
        raise KeyboardInterrupt

    monkeypatch.setattr(harness._Run, "finish", interrupted)
    try:
        with pytest.raises(KeyboardInterrupt):
            harness._fetch(backend, runs, toy_data)
    finally:
        backend.close()
    assert all(run.failed.is_set() for run in runs)
    assert sent_before[0] >= len(toy_data)  # the first run's requests were all done
    # requests in flight when it was raised finish; no queued one is sent
    assert backend.send_count - sent_before[0] <= config.max_in_flight
    assert backend.send_count < len(runs) * len(toy_data)


def test_pool_bounds_requests_in_flight(toy_path, toy_data, template, tmp_path):
    script = gold_echo_script(toy_data)

    def slow(transcript):
        time.sleep(0.02)
        return script[transcript[-1]["content"]]

    backend = CountingMock(slow, config=gold_config(max_in_flight=3))
    result = run_experiment(
        make_spec(toy_path, template, tmp_path / "run", backend_config=backend.config), backend
    )
    assert result.report.command_level_accuracy == 1
    assert backend.send_count == len(toy_data)
    assert backend.peak_in_flight == 3


def test_no_request_is_sent_after_a_failure(toy_path, toy_data, template, tmp_path):
    script = gold_echo_script(toy_data)
    calls = []

    def third_call_fails(transcript):
        calls.append(transcript[-1]["content"])
        if len(calls) == 3:
            raise ProtocolError("scripted failure")
        return script[transcript[-1]["content"]]

    cache_dir = tmp_path / "cache"
    backend = CountingMock(
        third_call_fails, config=gold_config(max_in_flight=1), cache=ResponseCache(cache_dir)
    )
    with pytest.raises(AbortedRun):
        run_experiment(
            make_spec(toy_path, template, tmp_path / "run", backend_config=backend.config), backend
        )
    assert backend.send_count == 3
    assert len(cache_entries(cache_dir)) == 2


class LongBackoff:
    """A backoff rng whose every draw is 30 seconds."""

    def uniform(self, low, high):
        return 30.0


def test_failure_ends_a_siblings_backoff(toy_path, toy_data, template, tmp_path):
    script = gold_echo_script(toy_data)
    first, second = toy_data[0].text, toy_data[1].text
    sent = []
    backing_off = threading.Event()

    def answer(transcript):
        text = transcript[-1]["content"]
        sent.append(text)
        if text == first:
            backing_off.set()
            raise RateLimited("slow down")
        if text == second:
            backing_off.wait(5)
            raise ProtocolError("scripted failure")
        return script[text]

    backend = MockChatBackend(
        answer, config=gold_config(max_in_flight=2, max_retries=3), backoff_rng=LongBackoff()
    )
    start = time.monotonic()
    with pytest.raises(AbortedRun) as err:
        run_experiment(
            make_spec(toy_path, template, tmp_path / "run", backend_config=backend.config), backend
        )
    assert time.monotonic() - start < 10  # the sibling's backoff alone is 30 s
    assert sorted(sent) == sorted([first, second])  # the sibling sent nothing more
    assert isinstance(err.value.__cause__, ProtocolError)  # the failure, not the cut backoff
    assert err.value.n_completed == 0


def test_failure_under_contention_keeps_every_completed_result(
    toy_path, toy_data, template, tmp_path
):
    # more workers than cores and frequent thread switches: every completed
    # request must reach the partial snapshot, and once the run's `failed` is
    # set each worker starts at most one more send, the one it checked
    # `failed` for before it was set.  The total sent after the failure is up
    # to the scheduler: the failing worker can stall before it sets `failed`.
    script = gold_echo_script(toy_data)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(10):
            lock = threading.Lock()
            calls = []
            run_failed = []  # the run's `failed` event, as fetch receives it
            late_sends = collections.Counter()  # per thread: sends begun after `failed` was set

            def fifth_call_fails(transcript):
                late = run_failed[0].is_set()
                with lock:
                    calls.append(transcript)
                    n = len(calls)
                    late_sends[threading.get_ident()] += late
                if n == 5:
                    raise ProtocolError("scripted failure")
                return script[transcript[-1]["content"]]

            cache_dir = tmp_path / f"cache{attempt}"
            out = tmp_path / f"run{attempt}"
            backend = CountingMock(
                fifth_call_fails, config=gold_config(max_in_flight=8),
                cache=ResponseCache(cache_dir),
            )
            fetch = backend.fetch

            def capturing_fetch(body, failed):
                run_failed[:] = [failed]
                return fetch(body, failed)

            backend.fetch = capturing_fetch
            with pytest.raises(AbortedRun) as err:
                run_experiment(
                    make_spec(toy_path, template, out, backend_config=backend.config), backend
                )
            cached = len(cache_entries(cache_dir))
            assert max(late_sends.values(), default=0) <= 1, late_sends
            assert cached == backend.send_count - 1 == err.value.n_completed
            assert len(load_records(out / "records.partial.jsonl")) == cached
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_duplicate_command_is_sent_once_and_replays_identically(
    max_in_flight, toy_data, template, tmp_path
):
    # an endpoint that answers each command differently on every call: a
    # second send of the duplicate would put two answers in the cold run
    # where the cache, and so the warm replay, keeps one
    data = [*toy_data[:4], LabeledCommand("dup", toy_data[1].text, toy_data[1].gold)]
    path = tmp_path / "dup.tsv"
    save_dataset(data, path)
    gold = gold_echo_script(data)
    lock = threading.Lock()
    calls = []

    def changing(transcript):
        with lock:
            calls.append(transcript[-1]["content"])
            n = len(calls)
        time.sleep(0.01)  # keeps the copies' requests in flight together
        return gold[transcript[-1]["content"]] if n % 2 else "[0 0 0 0 0 0 0 0]"

    out = tmp_path / "run"
    spec = make_spec(path, template, out, backend_config=gold_config(max_in_flight=max_in_flight))
    backend = MockChatBackend(
        changing, config=spec.backend_config, cache=ResponseCache(tmp_path / "cache")
    )
    cold = run_experiment(spec, backend)
    cold_files = snapshot(out)
    assert sorted(calls) == sorted({rec.text for rec in data})
    assert (cold.n_cache_hits, cold.n_backend_attempts) == (0, 4)
    records = read_jsonl(out / "records.jsonl")
    assert records[4]["cache_key"] == records[1]["cache_key"]
    assert records[4]["predicted"] == records[1]["predicted"]

    warm = run_experiment(spec, backend)
    assert len(calls) == 4
    assert (warm.n_cache_hits, warm.n_backend_attempts) == (4, 0)
    assert snapshot(out) == cold_files


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_cached_responses_replay_byte_for_byte(newline, toy_path, toy_data, template, tmp_path):
    script = {
        text: f"Step 1: Yes.{newline}{answer}{newline}"
        for text, answer in gold_echo_script(toy_data).items()
    }
    backend = CountingMock(script, config=gold_config(), cache=ResponseCache(tmp_path / "cache"))
    outputs = []
    for attempt in ("cold", "warm"):
        out = tmp_path / attempt
        run_experiment(make_spec(toy_path, template, out), backend)
        outputs.append((out / "responses.jsonl").read_bytes())
    assert backend.send_count == len(toy_data)  # the warm run replayed every answer
    assert read_jsonl(tmp_path / "cold" / "responses.jsonl")[0]["text"].endswith(newline)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "other",
    [{"endpoint_url": "https://api.example.com/v1"}, {"model_name": "gpt-4"}, {"max_in_flight": 2}],
    ids=["endpoint", "model", "max_in_flight"],
)
def test_backend_of_another_config_is_a_usage_error_before_any_write_or_send(
    other, toy_path, toy_data, template, tmp_path
):
    backend = CountingMock(
        gold_echo_script(toy_data),
        config=dataclasses.replace(gold_config(), **other),
        cache=ResponseCache(tmp_path / "cache"),
    )
    with pytest.raises(UsageError, match="is not the spec's"):
        run_experiment(make_spec(toy_path, template, tmp_path / "run"), backend)
    with pytest.raises(UsageError, match="is not the spec's"):
        run_ablation(small_grid(toy_path, template, tmp_path / "grid"), backend)
    assert backend.send_count == 0
    assert list(tmp_path.iterdir()) == []  # no spec.json, no output directory, no cache file


def test_a_run_and_a_grid_close_the_backend_passed_in(toy_path, toy_data, template, tmp_path):
    backend = gold_backend(toy_data, tmp_path / "cache")
    run_experiment(make_spec(toy_path, template, tmp_path / "run"), backend)
    # the cache's last connection is closed, so its WAL and WAL index are gone
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["responses.sqlite"]
    cells = run_ablation(small_grid(toy_path, template, tmp_path / "grid"), backend)
    assert all(cell.error is None for cell in cells)
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["responses.sqlite"]


def final_command(body: bytes) -> str:
    return json.loads(body)["messages"][-1]["content"]


def test_run_counts_each_retry_as_an_attempt_and_its_warm_replay_sends_none(
    chat_stub, toy_path, toy_data, template, tmp_path
):
    # every third command gets one 503, which asks for no wait, before its 200
    flaky = {rec.text for rec in toy_data[::3]}
    answered = set()
    lock = threading.Lock()
    ok = chat_stub.responder

    def one_503_first(body):
        command = final_command(body)
        with lock:
            first = command not in answered
            answered.add(command)
        if first and command in flaky:
            return 503, {"error": "overloaded"}, {"Retry-After": "0"}
        return ok(body)

    chat_stub.responder = one_503_first
    config = BackendConfig(endpoint_url=chat_stub.url, model_name="m")
    spec = make_spec(toy_path, template, tmp_path / "run", backend_config=config)
    n, k = len(toy_data), len(flaky)
    cold = run_experiment(spec)
    assert (cold.n_cache_hits, cold.n_backend_attempts) == (0, n + k)
    warm = run_experiment(spec)
    assert (warm.n_cache_hits, warm.n_backend_attempts) == (n, 0)
    assert len(chat_stub.requests) == n + k


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_an_abort_counts_the_requests_of_the_failed_fetch_too(
    chat_stub, toy_path, toy_data, template, tmp_path, max_in_flight
):
    # the 13th command gets 503, 503 and then 400: three requests, none of them landed
    broken = toy_data[12].text
    tries = []
    ok = chat_stub.responder

    def respond(body):
        if final_command(body) != broken:
            return ok(body)
        tries.append(body)
        return (503, {}, {"Retry-After": "0"}) if len(tries) < 3 else (400, {"error": "no"})

    chat_stub.responder = respond
    config = BackendConfig(endpoint_url=chat_stub.url, model_name="m", max_in_flight=max_in_flight)
    spec = make_spec(toy_path, template, tmp_path / "run", backend_config=config)
    with pytest.raises(AbortedRun) as err:
        run_experiment(spec)
    assert len(tries) == 3
    landed = len(cache_entries(tmp_path / "autocache"))
    assert landed == err.value.n_completed
    assert err.value.n_backend_attempts == landed + 3 == len(chat_stub.requests)
    if max_in_flight == 1:  # one worker sends in dataset order and stops at the failure
        assert landed == 12
    assert str(err.value) == (
        f"run aborted after {landed} of {len(toy_data)} commands: {err.value.__cause__}"
    )


def test_a_resumed_run_counts_each_answer_committed_before_the_abort_as_a_hit(
    chat_stub, toy_path, toy_data, template, tmp_path
):
    broken = toy_data[12].text
    ok = chat_stub.responder
    chat_stub.responder = lambda body: (
        (400, {"error": "no"}) if final_command(body) == broken else ok(body)
    )
    config = BackendConfig(endpoint_url=chat_stub.url, model_name="m")
    spec = make_spec(toy_path, template, tmp_path / "run", backend_config=config)
    with pytest.raises(AbortedRun) as err:
        run_experiment(spec)
    committed = len(cache_entries(tmp_path / "autocache"))
    assert 0 < committed == err.value.n_completed < len(toy_data)

    chat_stub.responder = ok
    resumed = run_experiment(spec)
    assert (resumed.n_cache_hits, resumed.n_backend_attempts) == (
        committed, len(toy_data) - committed
    )


def test_an_http_backend_passed_in_keeps_no_idle_connection_and_runs_again(
    chat_stub, toy_path, toy_data, template, tmp_path
):
    config = BackendConfig(endpoint_url=chat_stub.url, model_name="m")
    backend = HttpChatBackend(config, ResponseCache(tmp_path / "cache"))
    try:
        first = run_experiment(
            make_spec(toy_path, template, tmp_path / "a", backend_config=config), backend
        )
        assert first.n_backend_attempts == len(toy_data)
        assert backend._idle.empty()
        assert all_closed(chat_stub)
        second = run_experiment(
            make_spec(toy_path, template, tmp_path / "b", shots=1, backend_config=config), backend
        )
        assert second.n_backend_attempts == len(toy_data)
        assert len(chat_stub.requests) == 2 * len(toy_data)
        assert backend._idle.empty()
        assert all_closed(chat_stub)
    finally:
        backend.close()


def reloaded(spec_json: Path) -> ExperimentSpec:
    """The spec a spec.json file holds, given the directory it sits in."""
    return ExperimentSpec.from_json_dict(json.loads(spec_json.read_text()), str(spec_json.parent))


def test_spec_json_round_trip(toy_path, template, tmp_path):
    spec = make_spec(toy_path, template, tmp_path / "run", failure_policy="exclude")
    assert ExperimentSpec.from_json_dict(spec.to_json_dict(), spec.output_dir) == spec
    backend = MockChatBackend(gold_echo_script(load_dataset(toy_path)), spec.backend_config)
    run_experiment(spec, backend)
    assert reloaded(tmp_path / "run" / "spec.json") == spec


def test_one_spec_run_into_two_directories_writes_the_same_spec_json(
    toy_path, toy_data, template, tmp_path
):
    backend = gold_backend(toy_data, tmp_path / "cache")
    written = []
    for name in ("a", "./b/"):  # the directory as spelled, or as spec.json's parent
        spec = make_spec(toy_path, template, f"{tmp_path}/{name}", backend_config=backend.config)
        run_experiment(spec, backend)
        assert reloaded(tmp_path / name / "spec.json") == spec
        written.append((tmp_path / name / "spec.json").read_bytes())
    assert written[0] == written[1]
    assert "output_dir" not in json.loads(written[0])


def test_spec_json_with_old_seed_key_still_loads(toy_path, template, tmp_path):
    spec = make_spec(toy_path, template, tmp_path / "run")
    assert ExperimentSpec.from_json_dict({**spec.to_json_dict(), "seed": 7}, spec.output_dir) == spec
    assert "seed" not in spec.to_json_dict()


def test_spec_json_with_old_api_key_env_still_loads(toy_path, template, tmp_path):
    spec = make_spec(toy_path, template, tmp_path / "run")
    old = spec.to_json_dict()
    old["backend_config"] = {**old["backend_config"], "api_key_env": "CMDREASON_API_KEY"}
    assert ExperimentSpec.from_json_dict(old, spec.output_dir) == spec
    assert "api_key_env" not in spec.to_json_dict()["backend_config"]


@pytest.mark.parametrize(
    "path,value,message",
    [("backend_config.endpoint_url", 5, "endpoint_url must be"),
     ("backend_config.model_name", 5, "model_name must be"),
     ("backend_config.timeout_seconds", True, "timeout_seconds must be"),
     ("backend_config.timeout_seconds", "5", "timeout_seconds must be"),
     ("backend_config.max_retries", True, "max_retries must be"),
     ("backend_config.max_in_flight", True, "max_in_flight must be"),
     ("backend_config.max_in_flight", 2.5, "max_in_flight must be"),
     # too large for a float, so not finite
     pytest.param("backend_config.temperature", 10**400, "temperature must be",
                  id="temperature-10**400"),
     pytest.param("backend_config.timeout_seconds", 10**400, "timeout_seconds must be",
                  id="timeout_seconds-10**400"),
     # a part of another shape, which the refusal names; "" is the whole spec
     ("backend_config", {}, "backend_config is malformed"),
     ("prompt_config", {}, "prompt_config is malformed"),
     ("", [], "spec is malformed"),
     ("prompt_config.shots", 5, "prompt_config is malformed")],
)
def test_spec_json_with_a_value_of_another_type_is_refused(
    toy_path, template, tmp_path, path, value, message
):
    data = make_spec(toy_path, template, tmp_path / "run").to_json_dict()
    if path:
        *parents, field = path.split(".")
        parent = data
        for key in parents:
            parent = parent[key]
        parent[field] = value
    else:
        data = value
    with pytest.raises(ValueError, match=message):
        ExperimentSpec.from_json_dict(data, str(tmp_path / "run"))


@pytest.mark.parametrize(
    "field,value,message",
    [("dataset_path", 5, "a str"), ("dataset_path", Path("d.tsv"), "a str"),
     ("output_dir", 7, "a str"), ("output_dir", Path("run"), "a str"),
     ("prompt_config", {}, "a PromptConfig"), ("backend_config", {}, "a BackendConfig")],
)
def test_spec_refuses_a_field_of_another_type(
    toy_path, template, tmp_path, field, value, message
):
    args = [toy_path, template, gold_config(), str(tmp_path / "run"), "strict"]
    args[[f.name for f in dataclasses.fields(ExperimentSpec)].index(field)] = value
    with pytest.raises(ValueError, match=f"{field} must be {message}"):
        ExperimentSpec(*args)  # positional, as a library caller may pass them
    assert list(tmp_path.iterdir()) == []


def test_spec_rejects_unknown_policy(toy_path, template, tmp_path):
    with pytest.raises(ValueError):
        make_spec(toy_path, template, tmp_path, failure_policy="lenient")


# =============================================================================
# build_backend
# =============================================================================


def test_build_backend_gold_needs_dataset():
    config = BackendConfig(endpoint_url="mock://gold", model_name="m")
    with pytest.raises(UsageError):
        build_backend(config)


def test_build_backend_rejects_unknown_mock():
    config = BackendConfig(endpoint_url="mock://chaos", model_name="m")
    with pytest.raises(UsageError):
        build_backend(config, dataset=[])


# =============================================================================
# run_ablation
# =============================================================================


def test_grid_cells_are_mode_major_shots_ascending(toy_path, template, tmp_path):
    spec = make_spec(toy_path, template, tmp_path / "grid")
    grid = AblationGrid(
        spec,
        (ExplanationMode.STEPWISE, ExplanationMode.NONE, ExplanationMode.PARAGRAPH),
        (2, 0, 1),
    )
    assert grid.cells() == [
        (mode, k)
        for mode in (ExplanationMode.NONE, ExplanationMode.PARAGRAPH, ExplanationMode.STEPWISE)
        for k in (0, 1, 2)
    ]


@pytest.mark.parametrize(
    "modes,shot_counts",
    [((), (0,)), ((ExplanationMode.NONE,), (99,)),
     (("stepwise", "stpewise"), (0, 2)),  # a misspelled mode is not dropped
     ((ExplanationMode.NONE,), (True,)), ((ExplanationMode.NONE,), (2.0,))],
)
def test_grid_rejects_empty_or_oversized(toy_path, template, tmp_path, modes, shot_counts):
    spec = make_spec(toy_path, template, tmp_path / "grid")
    with pytest.raises(ValueError):
        AblationGrid(spec, modes, shot_counts)


def test_gold_grid_all_cells_perfect(toy_path, toy_data, template, tmp_path):
    out = tmp_path / "grid"
    spec = make_spec(toy_path, template, out, shots=4)
    grid = AblationGrid(
        spec, (ExplanationMode.NONE, ExplanationMode.STEPWISE), (0, 2)
    )
    cells = run_ablation(grid, gold_backend(toy_data, tmp_path / "cache"))
    assert len(cells) == 4
    assert all(c.error is None for c in cells)
    assert all(c.report.command_level_accuracy == 1 for c in cells)
    for cell in cells:
        assert (out / f"{cell.mode.value}_{cell.shot_count}shot" / "report.json").is_file()
        prompt_config = spec.prompt_config.config(cell.mode, cell.shot_count)
        assert reloaded(cell.output_dir / "spec.json") == dataclasses.replace(
            spec, prompt_config=prompt_config, output_dir=str(cell.output_dir)
        )
    summary = json.loads((out / "ablation.json").read_text())
    assert [(row["mode"], row["shots"]) for row in summary] == [
        ("none", 0), ("none", 2), ("stepwise", 0), ("stepwise", 2)
    ]
    assert all(row["command_level"] == "100.00" for row in summary)
    assert (out / "ablation.md").read_text().startswith("| Mode | Shots | Command | Question |")


def test_grid_continues_past_failing_cell(toy_path, toy_data, template, tmp_path):
    gold_script = gold_echo_script(toy_data)

    def script(transcript):
        if len(transcript) == 2:  # every zero-shot transcript fails
            raise ProtocolError("no shots, no service")
        return gold_script[transcript[-1]["content"]]

    backend = MockChatBackend(script, config=gold_config(), cache=ResponseCache(tmp_path / "cache"))
    out = tmp_path / "grid"
    grid = AblationGrid(
        make_spec(toy_path, template, out), (ExplanationMode.STEPWISE,), (0, 1, 2)
    )
    cells = run_ablation(grid, backend)
    assert cells[0].error is not None
    assert isinstance(cells[0].error, AbortedRun)
    assert "no shots, no service" in str(cells[0].error)
    assert cells[0].report is None
    assert [c.error is None for c in cells] == [False, True, True]
    summary = json.loads((out / "ablation.json").read_text())
    assert summary[0]["command_level"] is None
    assert summary[0]["error"]
    table = ablation_table(cells, "table")
    assert "error" in table


def small_grid(path, template, out, backend_config=None) -> AblationGrid:
    return AblationGrid(
        make_spec(path, template, out, shots=2, backend_config=backend_config or gold_config()),
        (ExplanationMode.NONE, ExplanationMode.STEPWISE), (0, 1, 2),
    )


def grid_files(out: Path) -> dict[Path, bytes]:
    """Every file of a grid's output but spec.json: the grids compared differ in max_in_flight."""
    return {name: data for name, data in snapshot(out).items() if name.name != "spec.json"}


def test_grid_fetches_through_one_pool_that_stays_full_across_cells(
    toy_data, template, tmp_path, thread_starts
):
    # two commands per cell: a pool per cell could never have more than two
    # requests in flight
    data = toy_data[:2]
    save_dataset(data, tmp_path / "two.tsv")
    gold = gold_echo_script(data)

    def slow(transcript):
        time.sleep(0.05)
        return gold[transcript[-1]["content"]]

    backend = CountingMock(
        slow, config=gold_config(max_in_flight=4), cache=ResponseCache(tmp_path / "cache")
    )
    grid = small_grid(tmp_path / "two.tsv", template, tmp_path / "grid", backend.config)
    cells = run_ablation(grid, backend)
    assert all(cell.error is None for cell in cells)
    assert len(thread_starts) == 4  # the pool's workers, started once for the whole grid
    assert backend.send_count == 6 * len(data)
    assert backend.peak_in_flight == 4

    thread_starts.clear()
    warm = run_ablation(grid, backend)
    assert thread_starts == []  # a fully warm grid starts no thread
    assert [cell.report for cell in warm] == [cell.report for cell in cells]
    assert backend.send_count == 6 * len(data)


def test_grid_sends_cell_by_cell_in_dataset_order(toy_path, toy_data, template, tmp_path):
    gold = gold_echo_script(toy_data)
    sent = []

    def recording(transcript):
        sent.append((transcript[0]["content"], len(transcript), transcript[-1]["content"]))
        return gold[transcript[-1]["content"]]

    backend = MockChatBackend(recording, config=gold_config(max_in_flight=1))
    grid = small_grid(toy_path, template, tmp_path / "grid", backend.config)
    run_ablation(grid, backend)
    expected = []
    for mode, shots in grid.cells():
        prefix = transcript_prefix(grid.base.prompt_config.config(mode, shots))
        expected.extend((prefix[0]["content"], len(prefix) + 1, rec.text) for rec in toy_data)
    assert sent == expected


def test_grid_writes_each_cell_while_later_cells_are_fetched(
    toy_path, toy_data, template, tmp_path
):
    gold = gold_echo_script(toy_data)
    out = tmp_path / "grid"
    first_report = out / "none_0shot" / "report.json"
    written = []

    def waiting_for_the_first_cell(transcript):
        if len(transcript) == 6 and "Step 1:" in transcript[0]["content"]:  # the last cell
            deadline = time.monotonic() + 5
            while not first_report.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            written.append(first_report.exists())
        return gold[transcript[-1]["content"]]

    backend = MockChatBackend(waiting_for_the_first_cell, config=gold_config(max_in_flight=2))
    run_ablation(small_grid(toy_path, template, out, backend.config), backend)
    assert written == [True] * len(toy_data)


def test_failed_cell_stops_only_its_own_queued_requests(toy_path, toy_data, template, tmp_path):
    # the first cell fails on its third request while the later cells'
    # requests wait in the same pool; they are all sent, and the cells come
    # out as a clean grid's, with the same cache left behind on each repeat
    gold = gold_echo_script(toy_data)
    clean = tmp_path / "clean"
    run_ablation(small_grid(toy_path, template, clean), gold_backend(toy_data, tmp_path / "cc"))

    caches = []
    for attempt in range(3):
        lock = threading.Lock()
        zero_shot = []

        def first_cell_fails(transcript):
            time.sleep(0.002)
            if len(transcript) == 2 and "Step 1:" not in transcript[0]["content"]:
                with lock:
                    zero_shot.append(transcript[-1]["content"])
                    if len(zero_shot) == 3:
                        raise ProtocolError("scripted failure")
            return gold[transcript[-1]["content"]]

        out, cache_dir = tmp_path / f"grid{attempt}", tmp_path / f"cache{attempt}"
        backend = CountingMock(
            first_cell_fails, config=gold_config(max_in_flight=1 if attempt else 3),
            cache=ResponseCache(cache_dir),
        )
        cells = run_ablation(small_grid(toy_path, template, out, backend.config), backend)
        assert [cell.error is None for cell in cells] == [False] + [True] * 5
        assert "run aborted after" in str(cells[0].error)
        assert backend.send_count <= 3 + 2 + 5 * len(toy_data)
        assert len(zero_shot) <= 3 + 2  # only requests already in flight went on
        for cell in cells[1:]:
            name = cell.output_dir.name
            assert grid_files(out / name) == grid_files(clean / name)
        assert (out / "none_0shot" / "records.partial.jsonl").is_file()
        if attempt:
            caches.append(cache_entries(cache_dir))
    assert caches[0] == caches[1]
    assert len(caches[0]) == 2 + 5 * len(toy_data)


def test_grid_under_contention_finishes_every_cell(toy_path, toy_data, template, tmp_path):
    # more workers than cores and frequent thread switches: a lost update of
    # a cell's count of requests still to go would leave the grid waiting for
    # that cell forever, and a lost answer would leave it incomplete
    gold = gold_echo_script(toy_data)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(3):
            lock = threading.Lock()
            calls = []

            def tenth_call_fails(transcript):
                with lock:
                    calls.append(transcript)
                    n = len(calls)
                if n == 10:
                    raise ProtocolError("scripted failure")
                return gold[transcript[-1]["content"]]

            cache_dir = tmp_path / f"cache{attempt}"
            backend = CountingMock(
                tenth_call_fails, config=gold_config(max_in_flight=8),
                cache=ResponseCache(cache_dir),
            )
            cells = []
            grid = small_grid(toy_path, template, tmp_path / f"grid{attempt}", backend.config)
            runner = threading.Thread(
                target=lambda: cells.extend(run_ablation(grid, backend)), daemon=True
            )
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive()
            failed = [cell for cell in cells if cell.error is not None]
            assert len(cells) == 6 and len(failed) == 1
            assert len(cache_entries(cache_dir)) == backend.send_count - 1
            assert all(cell.report.command_level_accuracy == 1 for cell in cells if cell.report)
    finally:
        sys.setswitchinterval(interval)


class FailingCache(ResponseCache):
    """A cache whose third put finds the disk full."""

    def __init__(self, directory):
        super().__init__(directory)
        self.puts = 0

    def put(self, key: str, text: str) -> None:
        self.puts += 1
        if self.puts == 3:
            raise OSError(28, "No space left on device")
        super().put(key, text)


def test_cache_put_error_stops_the_grid_and_propagates(toy_path, toy_data, template, tmp_path):
    backend = CountingMock(
        gold_echo_script(toy_data), config=gold_config(max_in_flight=1),
        cache=FailingCache(tmp_path / "cache"),
    )
    out = tmp_path / "grid"
    with pytest.raises(OSError, match="No space left"):
        run_ablation(small_grid(toy_path, template, out, backend.config), backend)
    assert backend.send_count == 3
    assert len(load_records(out / "none_0shot" / "records.partial.jsonl")) == 2
    assert not (out / "none_0shot" / "records.jsonl").exists()
    assert not (out / "ablation.json").exists()


PINNED_ABLATION_JSON = """\
[
  {
    "command_level": "70.83",
    "error": null,
    "mode": "none",
    "question_level": "85.42",
    "shots": 0
  },
  {
    "command_level": null,
    "error": "AbortedRun: run aborted after 5 of 24 commands: scripted failure (HTTP 500): overloaded",
    "mode": "none",
    "question_level": null,
    "shots": 2
  },
  {
    "command_level": "70.83",
    "error": null,
    "mode": "stepwise",
    "question_level": "85.42",
    "shots": 0
  },
  {
    "command_level": "66.67",
    "error": null,
    "mode": "stepwise",
    "question_level": "81.25",
    "shots": 2
  }
]
"""

PINNED_ABLATION_MD = """\
| Mode | Shots | Command | Question |
| --- | --- | --- | --- |
| none | 0 | 70.83 | 85.42 |
| none | 2 | error | AbortedRun: run aborted after 5 of 24 commands: scripted failure (HTTP 500): overloaded |
| stepwise | 0 | 70.83 | 85.42 |
| stepwise | 2 | 66.67 | 81.25 |
"""

PINNED_CELL_REPORT_JSON = """\
{
  "command_level": "66.67",
  "failure_policy": "strict",
  "label": "mock-gold",
  "n_commands": 24,
  "n_parse_failures": 4,
  "per_question": {
    "Entertainment": "83.33",
    "In-cabin Monitoring": "83.33",
    "Localization": "79.17",
    "Network Access": "83.33",
    "Perception": "79.17",
    "Personal Data": "79.17",
    "Traffic Laws": "79.17",
    "Vehicle Control": "83.33"
  },
  "question_level": "81.25"
}
"""


def test_small_grid_output_bytes_are_pinned(toy_path, toy_data, template, tmp_path):
    # bracket, step-fallback and unparseable answers with a few wrong bits, so
    # that no accuracy is a round number, and one cell that fails part-way
    index = {rec.text: i for i, rec in enumerate(toy_data)}

    def script(transcript):
        i = index[transcript[-1]["content"]]
        shots = (len(transcript) - 2) // 2
        if shots == 2 and i == 5 and "Step 1:" not in transcript[0]["content"]:
            raise ProtocolError("scripted failure", 500, "overloaded")
        if (i + shots) % 7 == 3:
            return "I would rather not say."
        flags = list(toy_data[i].gold)
        if (i * 3 + shots) % 5 == 0:
            flags[(i + shots) % 8] = not flags[(i + shots) % 8]
        if i % 4 == 1:
            return "\n".join(
                f"Step {k}: {'Yes' if f else 'No'}." for k, f in enumerate(flags, start=1)
            )
        return "Answer: " + RequirementVector(tuple(flags)).bracket()

    backend = MockChatBackend(
        script, config=gold_config(max_in_flight=1), cache=ResponseCache(tmp_path / "cache")
    )
    out = tmp_path / "grid"
    grid = AblationGrid(
        make_spec(toy_path, template, out, shots=4, backend_config=backend.config),
        (ExplanationMode.NONE, ExplanationMode.STEPWISE),
        (0, 2),
    )
    run_ablation(grid, backend)
    assert (out / "ablation.json").read_text() == PINNED_ABLATION_JSON
    assert (out / "ablation.md").read_text() == PINNED_ABLATION_MD
    assert (out / "stepwise_2shot" / "report.json").read_text() == PINNED_CELL_REPORT_JSON


# =============================================================================
# Report emission
# =============================================================================


def sample_rows(toy_path, toy_data, template, tmp_path) -> list[dict]:
    spec = make_spec(toy_path, template, tmp_path / "rowsrun")
    result = run_experiment(spec, MockChatBackend(gold_echo_script(toy_data), spec.backend_config))
    return [report_json_dict("mock-gold", result.report)]


ZERO_ROW = report_json_dict("x", EvalReport((Fraction(0),) * 8, Fraction(0), Fraction(0), 0, 0, "strict"))


def test_emit_csv_round_trips_at_emitted_precision(toy_path, toy_data, template, tmp_path):
    rows = sample_rows(toy_path, toy_data, template, tmp_path)
    parsed = list(csv.reader(io.StringIO(comparison_table(rows, "csv"), newline="")))
    assert parsed[0] == [
        "Method", "Command", "Overall",
        "Perception", "In-cabin Monitoring", "Localization", "Vehicle Control",
        "Entertainment", "Personal Data", "Network Access", "Traffic Laws",
    ]
    row = rows[0]
    assert parsed[1] == ["mock-gold", row["command_level"], row["question_level"]] + list(
        row["per_question"].values()
    )
    assert len(parsed[1]) == 11  # method + 10 numeric columns


def test_emit_is_byte_deterministic(toy_path, toy_data, template, tmp_path):
    rows = sample_rows(toy_path, toy_data, template, tmp_path)
    again = sample_rows(toy_path, toy_data, template, tmp_path / "again")
    assert comparison_table(rows * 2, "md") == comparison_table(again * 2, "md")


def test_emit_markdown_layout(toy_path, toy_data, template, tmp_path):
    rows = sample_rows(toy_path, toy_data, template, tmp_path)
    lines = comparison_table(rows, "md").splitlines()
    assert lines[0] == (
        "| Method | Command | Overall | Perception | In-cabin Monitoring | Localization"
        " | Vehicle Control | Entertainment | Personal Data | Network Access | Traffic Laws |"
    )
    assert lines[1].startswith("| --- |")
    assert lines[2].startswith("| mock-gold | 100.00 | 100.00 |")


def test_comparison_table_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="format must be one of"):
        comparison_table([ZERO_ROW], "yaml")


def test_load_report_round_trip(toy_path, toy_data, template, tmp_path):
    out = tmp_path / "run"
    spec = make_spec(toy_path, template, out)
    result = run_experiment(spec, MockChatBackend(gold_echo_script(toy_data), spec.backend_config))
    assert load_report(out) == report_json_dict("mock-gold", result.report)


# =============================================================================
# Offline re-scoring round trip
# =============================================================================


def test_score_round_trip_matches_original_report(toy_path, toy_data, template, tmp_path):
    script = gold_echo_script(toy_data)
    script[toy_data[3].text] = "no answer here"
    spec = make_spec(toy_path, template, tmp_path / "run")
    result = run_experiment(spec, MockChatBackend(script, spec.backend_config))
    records = load_records(tmp_path / "run" / "records.jsonl")
    rescored = evaluate(records, toy_data, "strict")
    assert rescored == result.report


# =============================================================================
# The README's library example
# =============================================================================


def test_readme_library_example_runs_and_replays_from_the_cache(
    toy_path, tmp_path, monkeypatch, capsys
):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)[1]
    # the example names the dataset by its path in a source checkout
    dataset = tmp_path / "src" / "cmdreason" / "data" / "toy_dataset.tsv"
    dataset.parent.mkdir(parents=True)
    shutil.copy(toy_path, dataset)
    monkeypatch.chdir(tmp_path)
    code = compile(example, str(readme), "exec")
    exec(code, {})
    exec(code, {})  # the second run replays every answer from the cache
    data = load_dataset(dataset)
    bits, n = data[0].gold.bits(), len(data)
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["100.00", f"{bits} 0 {n}", "100.00", f"{bits} {n} 0"]
    assert (tmp_path / "runs" / "demo" / "report.json").is_file()
