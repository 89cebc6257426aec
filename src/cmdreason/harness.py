"""End-to-end orchestration: dataset -> transcripts -> backend -> parse -> score.

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

Each file is written once, whole, through a temp file and os.replace.
Runs and baselines write records.jsonl and report.json through
save_run_artifacts.

ResultRow.from_eval is the one conversion from an EvalReport to display
strings: report.json, ablation.json, ablation.md and every comparison table
take their percentages from it.

Every command's parse becomes one metrics.PredictionRecord, which is what
evaluate() scores, what RunResult.records holds and what load_records reads
back; _write_records and load_records are the only code that knows the
records.jsonl format.

A run does each piece of per-command work once: the transcript prefix is
built once per prompt config, each cache key is hashed once from that shared
prefix, and cache hits are read on the calling thread before any worker
exists.  Only misses go to a thread pool, up to max_in_flight at a time, so a
fully warm run starts no pool.  Records and reports are always aggregated in
dataset order, so parallelism never changes any output byte.  Nothing
volatile (timestamps, latencies, cache-hit counts) is persisted.
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
    CompletionResult,
    HttpChatBackend,
    KeyHasher,
    MockChatBackend,
    ResponseCache,
    write_atomic,
)
from .chat import Transcript
from .dataset import (
    CATEGORY_TITLES,
    LabeledCommand,
    MalformedRecord,
    MissingFile,
    RequirementVector,
    load_dataset,
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
    build_transcript,
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


class UnwritableOutput(DataError):
    """An output file could not be written."""


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
    n_cache_hits: int
    n_backend_attempts: int


# =============================================================================
# File helpers
# =============================================================================


def _write_text(path: Path, text: str) -> None:
    try:
        write_atomic(path, text)
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, data: Any) -> None:
    _write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, rows: list[dict[str, Any]]) -> None:
    _write_text(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


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
    """Construct the backend an endpoint URL names.

    ``mock://gold`` answers from the dataset's own gold labels (an offline
    oracle for demos and smoke tests); any http(s) URL gets the real client.
    Any other endpoint is a UsageError.
    """
    if cache is None:
        cache = ResponseCache()
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

    If a request fails, the run stops: queued requests are not sent, the
    completed responses stay cached, and ``records.partial.jsonl`` and
    ``responses.partial.jsonl`` snapshot them.  A BackendError is raised as
    AbortedRun, anything else as itself.  Re-running the same spec resumes
    from the cache.
    """
    data = load_dataset(spec.dataset_path)
    own_backend = backend is None
    if own_backend:
        backend = build_backend(spec.backend_config, dataset=data)
    out_dir = Path(spec.output_dir)
    _write_json(out_dir / "spec.json", spec.to_json_dict())

    transcripts = [build_transcript(spec.prompt_config, rec.text) for rec in data]
    hasher = KeyHasher(backend.config, transcript_prefix(spec.prompt_config))
    keys = [hasher.key(t) for t in transcripts]
    results = [backend.lookup(key) for key in keys]
    misses = [i for i, result in enumerate(results) if result is None]
    if misses:
        try:
            _fetch_misses(backend, transcripts, keys, results, misses)
        except Exception as exc:
            done = [i for i, result in enumerate(results) if result is not None]
            _write_jsonl(
                out_dir / "responses.partial.jsonl",
                [_response_row(data[i], results[i]) for i in done],
            )
            _write_records(
                out_dir / "records.partial.jsonl",
                [data[i] for i in done],
                [_predict(data[i], results[i].raw_text, keys[i]) for i in done],
            )
            if isinstance(exc, BackendError):
                raise AbortedRun(len(done), len(data), exc) from exc
            raise
        finally:
            if own_backend:
                backend.close()

    records = [_predict(rec, res.raw_text, key) for rec, res, key in zip(data, results, keys)]
    report = evaluate(records, data, spec.failure_policy)
    _write_jsonl(
        out_dir / "responses.jsonl", [_response_row(rec, res) for rec, res in zip(data, results)]
    )
    save_run_artifacts(out_dir, spec.backend_config.model_name, data, records, report)
    # a finished run supersedes any partial snapshot left by an aborted one
    (out_dir / "responses.partial.jsonl").unlink(missing_ok=True)
    (out_dir / "records.partial.jsonl").unlink(missing_ok=True)
    return RunResult(
        report=report,
        records=records,
        output_dir=out_dir,
        n_cache_hits=sum(1 for r in results if r.cache_hit),
        n_backend_attempts=sum(r.attempt_count for r in results),
    )


def _fetch_misses(
    backend: ChatBackend,
    transcripts: list[Transcript],
    keys: list[str],
    results: list[CompletionResult | None],
    misses: list[int],
) -> None:
    """Fill results[i] for each i in misses from up to max_in_flight workers.

    The pool is the one bound on requests in flight.  The first failure, in
    a worker or on the calling thread, sets `failed`, and a queued request
    that starts after that sends nothing, whatever the thread timing.
    Requests in flight finish and keep their results, and the failure of
    the first failed command in dataset order is raised.
    """
    failed = threading.Event()

    def fetch(i: int) -> None:
        if failed.is_set():
            return
        try:
            results[i] = backend.fetch(transcripts[i], keys[i])
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=backend.config.max_in_flight) as pool:
        try:
            for future in [pool.submit(fetch, i) for i in misses]:
                future.result()
        except BaseException:
            failed.set()
            raise


def _response_row(rec: LabeledCommand, result: CompletionResult) -> dict[str, str]:
    return {"id": rec.command_id, "text": result.raw_text}


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
    """One line per record; data[i] is the command records[i] predicts."""
    _write_jsonl(
        path,
        [
            {
                "id": record.command_id,
                "cache_key": record.cache_key,
                "method": record.method,
                "failure_reason": record.failure_reason,
                "predicted": record.vector.bits() if record.vector is not None else None,
                "gold": rec.gold.bits(),
            }
            for rec, record in zip(data, records, strict=True)
        ],
    )


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
    """Persist records.jsonl and report.json, for runs and baselines alike."""
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

    All cells share one backend, and with it one response cache and one set of
    open connections, so re-running a grid replays completed cells from cache.
    Without an injected backend, one is built from the base spec and closed
    when the grid ends; the base dataset is loaded first for it, so a missing
    or malformed dataset raises before any cell runs.
    Writes ablation.json and ablation.md under the base output_dir.
    """
    own_backend = backend is None
    if own_backend:
        data = load_dataset(grid.base.dataset_path)
        backend = build_backend(grid.base.backend_config, dataset=data)
    base_out = Path(grid.base.output_dir)
    cells: list[AblationCell] = []
    try:
        for mode, shot_count in grid.cells():
            cell_dir = base_out / f"{mode.value}_{shot_count}shot"
            spec = dataclasses.replace(
                grid.base,
                prompt_config=grid.base.prompt_config.config(mode, shot_count),
                output_dir=str(cell_dir),
            )
            try:
                result = run_experiment(spec, backend=backend)
                cells.append(AblationCell(mode, shot_count, result.report, None, cell_dir))
            except (DataError, BackendError) as exc:
                log.warning("cell %s/%d failed: %s", mode.value, shot_count, exc)
                cells.append(
                    AblationCell(mode, shot_count, None, f"{type(exc).__name__}: {exc}", cell_dir)
                )
    finally:
        if own_backend:
            backend.close()
    _write_json(base_out / "ablation.json", [_cell_json(c) for c in cells])
    _write_text(base_out / "ablation.md", ablation_table(cells, "md"))
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
    _write_text(out_path, comparison_table(rows, fmt))
    return out_path
