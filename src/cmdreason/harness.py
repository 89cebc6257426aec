"""End-to-end orchestration: dataset -> requests -> backend -> parse -> score.

A run owns an output directory and persists everything needed to audit or
re-score it offline:

* ``spec.json``       - the resolved experiment spec (re-runs reproduce
                        results given the mock backend or a warm cache);
                        written only once the backend is built, so a
                        rejected endpoint leaves nothing behind
* ``responses.jsonl`` - the raw response text of every command, one
                        ``{"id", "text"}`` line each, in dataset order
* ``records.jsonl``   - one line per command: id, cache_key, parse
                        method/failure, predicted mask, gold mask; the gold
                        mask is for auditing, re-scoring reads gold from the
                        dataset
* ``report.json``     - the scored accuracies, display-rounded

Each file is written once, whole, through a temp file and os.replace, after
clear_run_dir has deleted every artifact of an earlier run or baseline.
Baselines write records.jsonl and report.json through save_run_artifacts.
A JSONL line holds the bytes that json.dumps(row, sort_keys=True) gives,
rendered straight from the row's fixed key order.

A run reads one backend config, its spec's: the one spec.json names, the
cache keys hash, the pool is sized by and report.json is labelled with.  A
backend passed in must carry it, or the run is a UsageError before it
writes or sends anything.  A run closes its backend, whoever built it, and
the backend reopens its cache and connections on its next use.

ResultRow.from_eval is the one conversion from an EvalReport to display
strings: report.json, ablation.json, ablation.md and every comparison table
take their percentages from it.

Every command's parse becomes one metrics.PredictionRecord, which is what
evaluate() scores, what RunResult.records holds and what load_records reads
back; _write_records and load_records are the only code that knows the
records.jsonl format.

`run` and `ablate` take one path, in three steps.  Planning, on the calling
thread, clears each run's directory, writes its spec.json, encodes each
command's text straight into the tail of its request body (the head, with
the prompt config's transcript prefix, is built once per run, and no
transcript is built per command), hashes the key from the head's state,
and looks up each distinct key once: a run's keys go to one get_many on
the backend's cache, which reads them in chunked queries.  Fetching sends
the misses of all runs from one pool of up to max_in_flight workers, in
canonical order: run by run, then dataset order.  A key that several
positions of a run share is sent once, and its answer fills each of them.  A fully warm set of runs
starts no pool.  Finishing parses, scores and writes a run, or writes its
partial snapshots if a failure left answers missing; it runs on the calling
thread as soon as the run's requests are done, while the pool goes on with
the next runs, so that a grid holds few answers at once.  Records and
reports are always aggregated in dataset order, so parallelism never
changes any output byte.  Nothing volatile (timestamps, latencies, cache-hit counts) is
persisted.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .backend import (
    BackendConfig,
    ChatBackend,
    HttpChatBackend,
    MockChatBackend,
    RequestEncoder,
    ResponseCache,
)
from .dataset import (
    CATEGORY_TITLES,
    LabeledCommand,
    MalformedRecord,
    MissingFile,
    RequirementVector,
    UnwritableOutput,
    load_dataset,
    write_text,
)
from .errors import BackendError, DataError, UsageError
from .metrics import (
    FAILURE_POLICIES,
    EvalReport,
    PredictionRecord,
    evaluate,
    format_percent,
)
from .parser import parse_response
from .prompt import (
    ANSWER_LINE_PREFIX,
    MODE_ORDER,
    ExplanationMode,
    PromptConfig,
    transcript_prefix,
)

log = logging.getLogger(__name__)

MOCK_GOLD_ENDPOINT = "mock://gold"
REPORT_FORMATS = ("table", "csv", "md")


class AbortedRun(BackendError):
    """A run stopped early on a backend failure; completed calls stay cached."""

    def __init__(self, n_completed: int, n_total: int, cause: BackendError) -> None:
        super().__init__(
            f"run aborted after {n_completed} of {n_total} commands: {cause}"
        )
        self.n_completed = n_completed
        self.n_total = n_total
        self.cause = cause


@dataclass(frozen=True, slots=True)
class ExperimentSpec:
    """Everything that determines a run's outputs; fully serializable."""

    dataset_path: str
    prompt_config: PromptConfig
    backend_config: BackendConfig
    output_dir: str
    failure_policy: str = "strict"

    def __post_init__(self) -> None:
        if self.failure_policy not in FAILURE_POLICIES:
            raise ValueError(f"failure_policy must be one of {FAILURE_POLICIES}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "dataset_path": self.dataset_path,
            "output_dir": self.output_dir,
            "failure_policy": self.failure_policy,
            "prompt_config": self.prompt_config.to_json_dict(),
            "backend_config": dataclasses.asdict(self.backend_config),
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        return cls(
            dataset_path=data["dataset_path"],
            prompt_config=PromptConfig.from_json_dict(data["prompt_config"]),
            # "api_key_env" is written by older versions; the key is now always API_KEY_ENV
            backend_config=BackendConfig(
                **{k: v for k, v in data["backend_config"].items() if k != "api_key_env"}
            ),
            output_dir=data["output_dir"],
            failure_policy=data["failure_policy"],
        )


@dataclass(frozen=True, slots=True)
class RunResult:
    report: EvalReport
    records: list[PredictionRecord]
    output_dir: Path
    n_cache_hits: int  # answers read from the cache; a command's second copy is not one
    n_backend_attempts: int  # requests sent, retries included


# =============================================================================
# File helpers
# =============================================================================


def _write_json(path: Path, data: Any) -> None:
    write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


# A JSON string as json.dumps writes it by default (ensure_ascii): what the JSONL lines hold.
_json_str = json.encoder.encode_basestring_ascii


def _str_or_null(value: str | None) -> str:
    return "null" if value is None else _json_str(value)


def _write_responses(path: Path, rows: list[tuple[str, str]]) -> None:
    """One line per (command id, response text): json.dumps({"id", "text"}, sort_keys=True)."""
    write_text(
        path, "".join(f'{{"id": {_json_str(i)}, "text": {_json_str(text)}}}\n' for i, text in rows)
    )


RUN_ARTIFACTS = ("spec.json", "responses.jsonl", "records.jsonl", "report.json",
                 "responses.partial.jsonl", "records.partial.jsonl")


def clear_run_dir(out_dir: str | Path) -> Path:
    """Delete every run artifact in out_dir, so that it never mixes two runs' files."""
    out = Path(out_dir)
    try:
        for name in RUN_ARTIFACTS:
            (out / name).unlink(missing_ok=True)
    except OSError as exc:
        raise UnwritableOutput(f"cannot clear {out}: {exc}") from exc
    return out


# =============================================================================
# Backends for runs
# =============================================================================


def gold_echo_script(records: list[LabeledCommand]) -> dict[str, str]:
    """Mock script answering every dataset command with its gold answer line."""
    return {
        rec.text: f"{ANSWER_LINE_PREFIX} {rec.gold.bracket()}" for rec in records
    }


def build_backend(
    config: BackendConfig,
    dataset: list[LabeledCommand] | None = None,
    cache: ResponseCache | None = None,
) -> ChatBackend:
    """Construct the backend an endpoint URL names, over cache or the default one.

    ``mock://gold`` answers from the dataset's own gold labels (an offline
    oracle for demos and smoke tests); any http(s) URL gets the real client.
    Any other endpoint is a UsageError.
    """
    if config.endpoint_url == MOCK_GOLD_ENDPOINT:
        if dataset is None:
            raise UsageError(f"{MOCK_GOLD_ENDPOINT} needs a dataset to echo from")
        return MockChatBackend(gold_echo_script(dataset), config=config, cache=cache)
    if config.endpoint_url.startswith("mock:"):
        raise UsageError(
            f"unknown mock endpoint {config.endpoint_url!r}; only {MOCK_GOLD_ENDPOINT} is built in"
        )
    try:
        return HttpChatBackend(config, cache)
    except ValueError as exc:
        raise UsageError(f"bad endpoint {config.endpoint_url!r}: {exc}") from exc


# =============================================================================
# Single experiment
# =============================================================================


def run_experiment(spec: ExperimentSpec, backend: ChatBackend | None = None) -> RunResult:
    """Run one configuration over a dataset and persist all artifacts.

    Once the backend is built, clear_run_dir empties the output directory.
    If a request fails, the run stops: queued requests and retries are not
    sent, the completed responses stay cached, and ``records.partial.jsonl``
    and ``responses.partial.jsonl`` snapshot them.  A BackendError is raised as
    AbortedRun, anything else as itself.  Re-running the same spec resumes
    from the cache.  A command that appears more than once is sent once, and
    its answer fills each of its positions.  A backend passed in must carry
    spec.backend_config; the run closes it, and it reopens on its next use.
    """
    (outcome,) = _run_all([spec], backend)
    if isinstance(outcome, RunResult):
        return outcome
    raise outcome


class _Run:
    """One run from plan to finish: the cache key of each dataset position and the answers found.

    Planning clears the output directory, writes spec.json, encodes every
    command and reads the texts of its distinct keys into `answers` with one
    cache.get_many, on the calling thread.  The keys it missed wait in
    `misses`, with the tails of their request bodies, in dataset order;
    `done` is set once none of them is still to be sent.
    `failed` stops the run's queued requests and backoffs, `error` is the
    first error that stopped the run, and `outcome` is what finish() gave:
    a RunResult, or the DataError or AbortedRun that stopped the run.
    """

    def __init__(
        self, spec: ExperimentSpec, data: list[LabeledCommand], backend: ChatBackend
    ) -> None:
        self.spec = spec
        self.out_dir = clear_run_dir(spec.output_dir)
        _write_json(self.out_dir / "spec.json", spec.to_json_dict())
        encoder = RequestEncoder(spec.backend_config, transcript_prefix(spec.prompt_config))
        tails = [encoder.tail(rec.text) for rec in data]
        self.keys = [encoder.key(tail) for tail in tails]
        self.head = encoder.head
        bodies = dict(zip(self.keys, tails))  # each distinct key once, in dataset order
        self.answers = backend.cache.get_many(list(bodies))
        self.n_cache_hits = len(self.answers)
        self.n_backend_attempts = 0
        self.misses = {key: tail for key, tail in bodies.items() if key not in self.answers}
        self.pending = len(self.misses)  # misses not yet sent, failed or skipped
        self.done = threading.Event()
        if not self.pending:
            self.done.set()
        self.failed = threading.Event()
        self.error: BaseException | None = None
        self.outcome: RunResult | DataError | BackendError | None = None

    def finish(self, data: list[LabeledCommand]) -> None:
        """Write the responses and records of the answers found, then score the run.

        Without an answer for every command, the two files are the partial
        snapshots and no report.json is written.  `outcome` is the RunResult,
        or that AbortedRun or a write's DataError.
        The run lets go of its answers first: later runs may still be fetching.
        """
        texts = [self.answers.get(key) for key in self.keys]
        self.answers, self.misses = {}, {}
        done = [i for i, text in enumerate(texts) if text is not None]
        suffix = "" if len(done) == len(data) else ".partial"
        records = [_predict(data[i], texts[i], self.keys[i]) for i in done]
        try:
            _write_responses(
                self.out_dir / f"responses{suffix}.jsonl",
                [(data[i].command_id, texts[i]) for i in done],
            )
            _write_records(self.out_dir / f"records{suffix}.jsonl", [data[i] for i in done], records)
            if suffix:
                raise AbortedRun(len(done), len(data), self.error) from self.error
            report = evaluate(records, data, self.spec.failure_policy)
            _write_json(
                self.out_dir / "report.json",
                report_json_dict(self.spec.backend_config.model_name, report),
            )
            self.outcome = RunResult(
                report=report,
                records=records,
                output_dir=self.out_dir,
                n_cache_hits=self.n_cache_hits,
                n_backend_attempts=self.n_backend_attempts,
            )
        except (DataError, BackendError) as exc:
            self.outcome = exc


def _run_all(
    specs: list[ExperimentSpec], backend: ChatBackend | None
) -> list[RunResult | DataError | BackendError]:
    """Plan every run, fetch all their misses in one pool, and finish each run.

    The specs share one dataset, loaded here once, and one backend config.
    A backend passed in must carry that config, or this raises UsageError
    before it writes or sends anything; without one, a backend is built
    from the config here.  Either way the backend is closed, with its cache,
    before this returns, and opens again on its next use.

    The outcome of each spec is its RunResult, or the DataError or AbortedRun
    that stopped it.  An error that is neither, such as a full disk under
    the cache, stops every run; each run is still finished, so that the
    stopped ones leave partial snapshots, and then that error is raised.
    """
    config = specs[0].backend_config
    if backend is not None and backend.config != config:
        raise UsageError(f"the backend's {backend.config} is not the spec's {config}")
    data = load_dataset(specs[0].dataset_path)
    if backend is None:
        backend = build_backend(config, dataset=data)
    try:
        planned: list[_Run | DataError] = []
        for spec in specs:
            try:
                planned.append(_Run(spec, data, backend))
            except DataError as exc:
                planned.append(exc)
        runs = [run for run in planned if isinstance(run, _Run)]
        _fetch(backend, runs, data, config.max_in_flight)
    finally:
        backend.close()
    for run in runs:
        if run.error is not None and not isinstance(run.error, BackendError):
            raise run.error
    return [run.outcome if isinstance(run, _Run) else run for run in planned]


def _fetch(
    backend: ChatBackend, runs: list[_Run], data: list[LabeledCommand], max_in_flight: int
) -> None:
    """Send every run's misses from one pool, and finish each run once its requests are done.

    Up to max_in_flight workers pull requests in canonical order, run by run
    and in dataset order within a run, from one shared iterator; an answer
    goes into its run's `answers`, and the requests it took into the run's
    `n_backend_attempts`.  The pool is the one bound on requests in flight,
    and runs without a miss start no pool.  The calling thread finishes
    each run in order, as soon as its requests are done, while the workers
    go on with the next runs.

    A failed request sets its run's `failed`: a queued request of that run
    that starts after that sends nothing, whatever the thread timing, and a
    retry of it that is backing off gives up at once; the other runs go on.
    Any other error in a worker stops every run, and so does an error or an
    interrupt on the calling thread, which is raised.  Requests in flight
    finish and keep their answers.
    """
    n_jobs = sum(run.pending for run in runs)
    if not n_jobs:
        for run in runs:
            run.finish(data)
        return
    jobs = ((run, key, tail) for run in runs for key, tail in run.misses.items())
    lock = threading.Lock()

    def stop(stopped: list[_Run], exc: BaseException) -> None:
        with lock:
            for run in stopped:
                if run.error is None:
                    run.error = exc
                run.failed.set()

    def work() -> None:
        while True:
            with lock:
                job = next(jobs, None)
            if job is None:
                return
            run, key, tail = job
            attempts = 0
            try:
                if not run.failed.is_set():
                    result = backend.fetch(run.head + tail, key, run.failed)
                    run.answers[key], attempts = result.raw_text, result.attempt_count
            except BackendError as exc:
                stop([run], exc)
            except BaseException as exc:  # not the endpoint's: _run_all raises it
                stop(runs, exc)
            finally:
                with lock:
                    run.n_backend_attempts += attempts
                    run.pending -= 1
                    if not run.pending:
                        run.done.set()

    workers = min(max_in_flight, n_jobs)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in range(workers):
            pool.submit(work)  # work() keeps every error on its runs: no future holds one
        try:
            for run in runs:
                run.done.wait()
                run.finish(data)
        except BaseException:
            for run in runs:
                run.failed.set()
            raise


def _predict(rec: LabeledCommand, raw_text: str, key: str) -> PredictionRecord:
    outcome = parse_response(raw_text)
    return PredictionRecord(
        rec.command_id, outcome.vector, outcome.method, outcome.failure_reason, key
    )


# =============================================================================
# records.jsonl: written and read only here
# =============================================================================


def _write_records(
    path: Path, data: list[LabeledCommand], records: list[PredictionRecord]
) -> None:
    """One line per record, its keys in sorted order; data[i] is the command records[i] predicts."""
    lines = []
    for rec, record in zip(data, records, strict=True):
        predicted = None if record.vector is None else record.vector.bits()
        lines.append(
            f'{{"cache_key": {_json_str(record.cache_key)}, '
            f'"failure_reason": {_str_or_null(record.failure_reason)}, '
            f'"gold": {_json_str(rec.gold.bits())}, "id": {_json_str(record.command_id)}, '
            f'"method": {_str_or_null(record.method)}, "predicted": {_str_or_null(predicted)}}}\n'
        )
    write_text(path, "".join(lines))


def load_records(path: str | Path) -> list[PredictionRecord]:
    """Read a records.jsonl file back; raises MalformedRecord on bad lines.

    The ``gold`` column is not read: scoring takes gold from the dataset.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(path)
    records: list[PredictionRecord] = []
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not all(isinstance(row[k], str) for k in ("id", "cache_key")):
                    raise TypeError("id and cache_key must be strings")
                if not all(
                    isinstance(row[k], (str, type(None))) for k in ("method", "failure_reason")
                ):
                    raise TypeError("method and failure_reason must be strings or null")
                mask = row["predicted"]
                records.append(
                    PredictionRecord(
                        command_id=row["id"],
                        vector=None if mask is None else RequirementVector.from_bits(mask),
                        method=row["method"],
                        failure_reason=row["failure_reason"],
                        cache_key=row["cache_key"],
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise MalformedRecord(path, line_no, f"bad record line: {exc!r}") from exc
    return records


def save_run_artifacts(
    out_dir: str | Path,
    label: str,
    data: list[LabeledCommand],
    records: list[PredictionRecord],
    report: EvalReport,
) -> Path:
    """Persist a baseline's records.jsonl and report.json."""
    out = Path(out_dir)
    _write_records(out / "records.jsonl", data, records)
    _write_json(out / "report.json", report_json_dict(label, report))
    return out


# =============================================================================
# Ablation grids
# =============================================================================


@dataclass(frozen=True, slots=True)
class AblationGrid:
    """Cartesian product of explanation modes and shot counts over one base spec.

    Each cell takes its shots as a prefix of the base config's shots.
    """

    base: ExperimentSpec
    explanation_modes: tuple[ExplanationMode, ...]
    shot_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        modes = tuple(m for m in MODE_ORDER if m in set(self.explanation_modes))
        counts = tuple(sorted(set(self.shot_counts)))
        if not modes or not counts:
            raise ValueError("ablation grid must have at least one mode and one shot count")
        pool = len(self.base.prompt_config.shots)
        if counts[0] < 0 or counts[-1] > pool:
            raise ValueError(f"shot counts must be within 0..{pool} (pool size), got {counts}")
        object.__setattr__(self, "explanation_modes", modes)
        object.__setattr__(self, "shot_counts", counts)

    def cells(self) -> list[tuple[ExplanationMode, int]]:
        """Grid cells in canonical order: mode-major, shots ascending."""
        return [(m, k) for m in self.explanation_modes for k in self.shot_counts]


@dataclass(frozen=True, slots=True)
class AblationCell:
    mode: ExplanationMode
    shot_count: int
    report: EvalReport | None  # None when the cell failed
    error: str | None
    output_dir: Path


def run_ablation(grid: AblationGrid, backend: ChatBackend | None = None) -> list[AblationCell]:
    """Run every grid cell; failures are recorded per cell and the grid continues.

    The dataset is loaded once, so a missing or malformed dataset raises
    before any cell runs.  Every cell is planned first, then the misses of
    all cells go to one pool, cell by cell in grid order, and each cell is
    scored and written once its requests are done.  A failed request stops
    only its own cell's queued requests; an error that is not a DataError or
    a BackendError stops every cell and is raised.  All cells share one
    backend, and with it one response cache and one set of open connections,
    so re-running a grid replays completed cells from cache.  An injected
    backend must carry the base spec's backend config; without one, one is
    built from it.  Either way it is closed when the grid ends.  Writes
    ablation.json and ablation.md under the base output_dir.
    """
    base_out = Path(grid.base.output_dir)
    specs = [
        dataclasses.replace(
            grid.base,
            prompt_config=grid.base.prompt_config.config(mode, shot_count),
            output_dir=str(base_out / f"{mode.value}_{shot_count}shot"),
        )
        for mode, shot_count in grid.cells()
    ]
    cells: list[AblationCell] = []
    for (mode, shot_count), spec, outcome in zip(grid.cells(), specs, _run_all(specs, backend)):
        if isinstance(outcome, RunResult):
            report, error = outcome.report, None
        else:
            log.warning("cell %s/%d failed: %s", mode.value, shot_count, outcome)
            report, error = None, f"{type(outcome).__name__}: {outcome}"
        cells.append(AblationCell(mode, shot_count, report, error, Path(spec.output_dir)))
    _write_json(base_out / "ablation.json", [_cell_json(c) for c in cells])
    write_text(base_out / "ablation.md", ablation_table(cells, "md"))
    return cells


def _cell_json(cell: AblationCell) -> dict[str, Any]:
    """One ablation.json row; the percentages are None for a failed cell."""
    row = ResultRow.from_eval("", cell.report) if cell.report is not None else None
    return {
        "mode": cell.mode.value,
        "shots": cell.shot_count,
        "command_level": row.command_pct if row else None,
        "question_level": row.question_pct if row else None,
        "error": cell.error,
    }


def ablation_table(cells: list[AblationCell], fmt: str) -> str:
    """Render the (mode, shots, command, question) grid table of the ablation.json rows."""
    rows = []
    for cell in map(_cell_json, cells):
        if cell["command_level"] is not None:
            scores = [cell["command_level"], cell["question_level"]]
        else:
            scores = ["error", cell["error"] or ""]
        rows.append([cell["mode"], str(cell["shots"]), *scores])
    return render_table(["Mode", "Shots", "Command", "Question"], rows, fmt)


# =============================================================================
# Reports
# =============================================================================


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One display row: a labeled result with preformatted percentages."""

    label: str
    command_pct: str
    question_pct: str
    per_question_pct: tuple[str, ...]

    @classmethod
    def from_eval(cls, label: str, report: EvalReport) -> "ResultRow":
        """The one place where a report's accuracies become display strings."""
        command, question, *per_question = map(
            format_percent,
            (
                report.command_level_accuracy,
                report.question_level_accuracy,
                *report.per_question_accuracy,
            ),
        )
        return cls(label, command, question, tuple(per_question))


def report_json_dict(label: str, report: EvalReport) -> dict[str, Any]:
    """The report.json schema: the ResultRow's strings plus scoring metadata."""
    row = ResultRow.from_eval(label, report)
    return {
        "label": row.label,
        "failure_policy": report.failure_policy,
        "n_commands": report.n_commands,
        "n_parse_failures": report.n_parse_failures,
        "command_level": row.command_pct,
        "question_level": row.question_pct,
        "per_question": dict(zip(CATEGORY_TITLES, row.per_question_pct)),
    }


def load_result_row(run_dir: str | Path) -> ResultRow:
    """Rebuild a ResultRow from a run directory's report.json."""
    path = Path(run_dir) / "report.json"
    if not path.is_file():
        raise MissingFile(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        row = ResultRow(
            label=data["label"],
            command_pct=data["command_level"],
            question_pct=data["question_level"],
            per_question_pct=tuple(data["per_question"][t] for t in CATEGORY_TITLES),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a valid report file: {exc}") from exc
    cells = (row.label, row.command_pct, row.question_pct, *row.per_question_pct)
    if not all(isinstance(cell, str) for cell in cells):
        raise DataError(f"{path}: not a valid report file: every value must be a string")
    return row


def render_table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    """Render rows in one of the report formats; deterministic for same input."""
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue()
    if fmt == "md":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "table":
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        def fit(cells: list[str]) -> str:
            # first column left-aligned, the rest right-aligned
            parts = [cells[0].ljust(widths[0])]
            parts.extend(c.rjust(w) for c, w in zip(cells[1:], widths[1:]))
            return "  ".join(parts).rstrip()
        lines = [fit(header), fit(["-" * w for w in widths])]
        lines.extend(fit(row) for row in rows)
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")


def comparison_table(rows: list[ResultRow], fmt: str) -> str:
    """Render a method-comparison table: label, command, overall, 8 categories."""
    header = ["Method", "Command", "Overall", *CATEGORY_TITLES]
    table = [
        [row.label, row.command_pct, row.question_pct, *row.per_question_pct]
        for row in rows
    ]
    return render_table(header, table, fmt)


def emit_report(rows: list[ResultRow], fmt: str, out_path: str | Path) -> Path:
    """Write comparison_table(rows, fmt) to out_path."""
    if not rows:
        raise ValueError("emit_report needs at least one row")
    out_path = Path(out_path)
    write_text(out_path, comparison_table(rows, fmt))
    return out_path
