from __future__ import annotations

import csv
import json
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cmdreason import harness
from cmdreason.backend import (
    BackendConfig,
    KeyHasher,
    MockChatBackend,
    ProtocolError,
    ResponseCache,
    mock_config,
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
    ResultRow,
    UnwritableOutput,
    ablation_table,
    build_backend,
    emit_report,
    gold_echo_script,
    load_records,
    load_result_row,
    run_ablation,
    run_experiment,
)
from cmdreason.metrics import evaluate
from cmdreason.prompt import ExplanationMode


def make_spec(toy_path, template, out_dir, **overrides) -> ExperimentSpec:
    shots = overrides.pop("shots", 2)
    mode = overrides.pop("mode", ExplanationMode.STEPWISE)
    overrides.setdefault(
        "backend_config", BackendConfig(endpoint_url="mock://gold", model_name="mock-gold")
    )
    return ExperimentSpec(
        dataset_path=str(toy_path),
        prompt_config=template.config(mode, shots),
        output_dir=str(out_dir),
        **overrides,
    )


def gold_backend(toy_data, cache_dir, max_in_flight=4) -> MockChatBackend:
    return MockChatBackend(
        gold_echo_script(toy_data),
        config=mock_config(max_in_flight=max_in_flight),
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
    ],
    ids=[
        "short-mask", "json-list", "mask-without-method", "missing-key",
        "mask-and-failure", "neither", "empty-id", "not-json",
    ],
)
def test_load_records_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        load_records(path)
    assert err.value.line_no == 2


def test_one_unparseable_response_hand_count(toy_path, toy_data, template, tmp_path):
    script = gold_echo_script(toy_data)
    script[toy_data[7].text] = "I will comply."  # c08 becomes unparseable
    backend = MockChatBackend(script, cache=ResponseCache(tmp_path / "cache"))

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

        text = transcript[-1].content
        with lock:
            calls.append(text)
        time.sleep((hash(text) % 7) / 1000)
        return base[text]

    backend_parallel = MockChatBackend(staggered, config=mock_config(max_in_flight=8))
    out_a = tmp_path / "parallel"
    run_experiment(make_spec(toy_path, template, out_a), backend_parallel)

    backend_serial = MockChatBackend(base, config=mock_config(max_in_flight=1))
    out_b = tmp_path / "serial"
    run_experiment(make_spec(toy_path, template, out_b), backend_serial)

    assert (out_a / "records.jsonl").read_bytes() == (out_b / "records.jsonl").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_aborted_run_resumes_from_cache(toy_path, toy_data, template, tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    script = gold_echo_script(toy_data)
    script[toy_data[12].text] = ProtocolError("endpoint exploded")  # c13 dies
    out = tmp_path / "run"
    spec = make_spec(toy_path, template, out)

    broken = MockChatBackend(script, config=mock_config(max_in_flight=1), cache=cache)
    with pytest.raises(AbortedRun) as err:
        run_experiment(spec, broken)
    assert err.value.n_completed == 12
    assert err.value.n_total == 24
    partial = load_records(out / "records.partial.jsonl")
    assert [r.command_id for r in partial] == [rec.command_id for rec in toy_data[:12]]
    responses = read_jsonl(out / "responses.partial.jsonl")
    assert [row["id"] for row in responses] == [rec.command_id for rec in toy_data[:12]]
    assert not (out / "records.jsonl").exists()

    healthy = MockChatBackend(
        gold_echo_script(toy_data), config=mock_config(max_in_flight=1), cache=cache
    )
    resumed = run_experiment(spec, healthy)
    # everything the first pass managed to complete replays from cache; only
    # the remainder (at least the command that died) goes out again
    assert resumed.n_cache_hits >= 12
    assert healthy.send_count == 24 - resumed.n_cache_hits

    clean_out = tmp_path / "clean"
    clean = run_experiment(
        make_spec(toy_path, template, clean_out),
        gold_backend(toy_data, tmp_path / "cache2", max_in_flight=1),
    )
    assert clean.report == resumed.report
    assert (out / "records.jsonl").read_bytes() == (clean_out / "records.jsonl").read_bytes()
    assert (out / "report.json").read_bytes() == (clean_out / "report.json").read_bytes()


def test_response_ids_round_trip_verbatim(template, tmp_path):
    data = [
        LabeledCommand("weird/id: 1", "Honk the horn.", RequirementVector.from_bits("00010000"))
    ]
    ds = tmp_path / "d.tsv"
    save_dataset(data, ds)
    spec = make_spec(ds, template, tmp_path / "run")
    result = run_experiment(spec, MockChatBackend(gold_echo_script(data)))
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
            run_experiment(make_spec(toy_path, template, out), backend)
            outputs.append((out / "responses.jsonl").read_bytes())
    assert len(set(outputs)) == 1


def test_each_command_is_keyed_and_looked_up_once_and_warm_runs_send_nothing(
    toy_path, toy_data, template, tmp_path, monkeypatch
):
    key_calls, get_calls = [], []
    original_key, original_get = KeyHasher.key, ResponseCache.get

    def counting_key(self, transcript):
        key_calls.append(transcript[-1].content)
        return original_key(self, transcript)

    def counting_get(self, key):
        get_calls.append(key)
        return original_get(self, key)

    monkeypatch.setattr(KeyHasher, "key", counting_key)
    monkeypatch.setattr(ResponseCache, "get", counting_get)
    spec = make_spec(toy_path, template, tmp_path / "run")
    cold = run_experiment(spec, gold_backend(toy_data, tmp_path / "cache"))
    assert key_calls == [rec.text for rec in toy_data]
    assert get_calls == [record.cache_key for record in cold.records]

    def no_pool(*args, **kwargs):
        raise AssertionError("a fully warm run started a thread pool")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    key_calls.clear()
    get_calls.clear()
    warm = gold_backend(toy_data, tmp_path / "cache")
    result = run_experiment(spec, warm)
    assert warm.send_count == 0
    assert result.n_cache_hits == len(toy_data)
    assert key_calls == [rec.text for rec in toy_data]
    assert len(get_calls) == len(toy_data)


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
    zeros = MockChatBackend(
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


class FullCache(ResponseCache):
    def put(self, key: str, text: str) -> None:
        raise OSError(28, "No space left on device")


def test_worker_failure_stops_run_and_leaves_partial_snapshot(
    toy_path, toy_data, template, tmp_path
):
    script = gold_echo_script(toy_data)

    def slow(transcript):
        time.sleep(0.005)
        return script[transcript[-1].content]

    out = tmp_path / "run"
    spec = make_spec(toy_path, template, out)
    backend = MockChatBackend(
        slow, config=mock_config(max_in_flight=2), cache=FullCache(tmp_path / "cache")
    )
    with pytest.raises(OSError, match="No space left"):
        run_experiment(spec, backend)
    assert backend.send_count < len(toy_data)  # queued requests were cancelled
    assert (out / "records.partial.jsonl").is_file()
    assert (out / "responses.partial.jsonl").is_file()
    assert not (out / "records.jsonl").exists()

    run_experiment(spec, gold_backend(toy_data, tmp_path / "cache"))
    assert not (out / "records.partial.jsonl").exists()
    assert not (out / "responses.partial.jsonl").exists()


def test_spec_json_round_trip(toy_path, template, tmp_path):
    spec = make_spec(toy_path, template, tmp_path / "run", failure_policy="exclude")
    assert ExperimentSpec.from_json_dict(spec.to_json_dict()) == spec
    run_experiment(spec, MockChatBackend(gold_echo_script(load_dataset(toy_path))))
    on_disk = json.loads((tmp_path / "run" / "spec.json").read_text())
    assert ExperimentSpec.from_json_dict(on_disk) == spec


def test_spec_json_with_old_seed_key_still_loads(toy_path, template, tmp_path):
    spec = make_spec(toy_path, template, tmp_path / "run")
    assert ExperimentSpec.from_json_dict({**spec.to_json_dict(), "seed": 7}) == spec
    assert "seed" not in spec.to_json_dict()


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


def test_grid_rejects_empty_or_oversized(toy_path, template, tmp_path):
    spec = make_spec(toy_path, template, tmp_path / "grid")
    with pytest.raises(ValueError):
        AblationGrid(spec, (), (0,))
    with pytest.raises(ValueError):
        AblationGrid(spec, (ExplanationMode.NONE,), (99,))


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
        return gold_script[transcript[-1].content]

    backend = MockChatBackend(script, cache=ResponseCache(tmp_path / "cache"))
    out = tmp_path / "grid"
    grid = AblationGrid(
        make_spec(toy_path, template, out), (ExplanationMode.STEPWISE,), (0, 1, 2)
    )
    cells = run_ablation(grid, backend)
    assert cells[0].error is not None
    assert "AbortedRun" in cells[0].error
    assert "no shots, no service" in cells[0].error
    assert cells[0].report is None
    assert [c.error is None for c in cells] == [False, True, True]
    summary = json.loads((out / "ablation.json").read_text())
    assert summary[0]["command_level"] is None
    assert summary[0]["error"]
    table = ablation_table(cells, "table")
    assert "error" in table


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
        i = index[transcript[-1].content]
        shots = (len(transcript) - 2) // 2
        if shots == 2 and i == 5 and "Step 1:" not in transcript[0].content:
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
        script, config=mock_config(max_in_flight=1), cache=ResponseCache(tmp_path / "cache")
    )
    out = tmp_path / "grid"
    grid = AblationGrid(
        make_spec(toy_path, template, out, shots=4),
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


def rows_from_runs(*reports) -> list[ResultRow]:
    return [ResultRow.from_eval(label, report) for label, report in reports]


def sample_rows(toy_path, toy_data, template, tmp_path) -> list[ResultRow]:
    spec = make_spec(toy_path, template, tmp_path / "rowsrun")
    result = run_experiment(spec, MockChatBackend(gold_echo_script(toy_data)))
    return rows_from_runs(("mock-gold", result.report))


def test_emit_csv_round_trips_at_emitted_precision(toy_path, toy_data, template, tmp_path):
    rows = sample_rows(toy_path, toy_data, template, tmp_path)
    out = tmp_path / "report.csv"
    emit_report(rows, "csv", out)
    with out.open() as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == [
        "Method", "Command", "Overall",
        "Perception", "In-cabin Monitoring", "Localization", "Vehicle Control",
        "Entertainment", "Personal Data", "Network Access", "Traffic Laws",
    ]
    assert parsed[1] == ["mock-gold"] + [rows[0].command_pct, rows[0].question_pct] + list(
        rows[0].per_question_pct
    )
    assert len(parsed[1]) == 11  # method + 10 numeric columns


def test_emit_is_byte_deterministic(toy_path, toy_data, template, tmp_path):
    rows = sample_rows(toy_path, toy_data, template, tmp_path)
    a, b = tmp_path / "a.md", tmp_path / "b.md"
    emit_report(rows * 2, "md", a)
    emit_report(rows * 2, "md", b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_markdown_layout(toy_path, toy_data, template, tmp_path):
    rows = sample_rows(toy_path, toy_data, template, tmp_path)
    out = tmp_path / "report.md"
    emit_report(rows, "md", out)
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "| Method | Command | Overall | Perception | In-cabin Monitoring | Localization"
        " | Vehicle Control | Entertainment | Personal Data | Network Access | Traffic Laws |"
    )
    assert lines[1].startswith("| --- |")
    assert lines[2].startswith("| mock-gold | 100.00 | 100.00 |")


def test_emit_rejects_empty_and_unknown_format(tmp_path):
    row = ResultRow("x", "0.00", "0.00", ("0.00",) * 8)
    with pytest.raises(ValueError):
        emit_report([], "md", tmp_path / "r.md")
    with pytest.raises(ValueError):
        emit_report([row], "yaml", tmp_path / "r.yaml")


def test_emit_unwritable_path(tmp_path):
    row = ResultRow("x", "0.00", "0.00", ("0.00",) * 8)
    blocker = tmp_path / "file.txt"
    blocker.write_text("in the way")
    with pytest.raises(UnwritableOutput):
        emit_report([row], "md", blocker / "nested.md")


def test_load_result_row_round_trip(toy_path, toy_data, template, tmp_path):
    out = tmp_path / "run"
    spec = make_spec(toy_path, template, out)
    result = run_experiment(spec, MockChatBackend(gold_echo_script(toy_data)))
    row = load_result_row(out)
    assert row == ResultRow.from_eval("mock-gold", result.report)


# =============================================================================
# Offline re-scoring round trip
# =============================================================================


def test_score_round_trip_matches_original_report(toy_path, toy_data, template, tmp_path):
    script = gold_echo_script(toy_data)
    script[toy_data[3].text] = "no answer here"
    spec = make_spec(toy_path, template, tmp_path / "run")
    result = run_experiment(spec, MockChatBackend(script))
    records = load_records(tmp_path / "run" / "records.jsonl")
    rescored = evaluate(records, toy_data, "strict")
    assert rescored == result.report
