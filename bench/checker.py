"""Independent checker for the harness's run artifacts.

It predicts, from the stub's own generator (``stubgen``) and without the
program's parser or metrics, what every ``records.jsonl`` line, every
``report.json`` and every ``ablation.json`` row must say, and lists each
difference it finds.  Accuracies are computed as exact fractions under the
strict failure policy and rendered with two decimals, ties to even, as the
report format specifies.
"""
from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import stubgen

CATEGORY_TITLES = (
    "Perception", "In-cabin Monitoring", "Localization", "Vehicle Control",
    "Entertainment", "Personal Data", "Network Access", "Traffic Laws",
)
MAX_ERRORS = 5


@dataclass(frozen=True, slots=True)
class Expected:
    """What one run over a dataset at one transcript length must report."""

    records: tuple[dict, ...]  # id, method, failure_reason, predicted, gold
    command_level: Fraction
    question_level: Fraction
    per_question: tuple[Fraction, ...]
    n_parse_failures: int
    method_counts: dict[str, int]  # bracket / step_fallback / failed


def percent(value: Fraction) -> str:
    hundredths = round(value * 10_000)  # exact, ties to even
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def expect(seed: int, rows: Sequence[tuple[str, str, str]], n_messages: int) -> Expected:
    """Expected records and strict-policy accuracies for rows at n_messages."""
    records = []
    correct = [0] * stubgen.N_QUESTIONS
    exact = 0
    counts = {"bracket": 0, "step_fallback": 0, "failed": 0}
    for command_id, text, gold in rows:
        answer = stubgen.planned_answer(seed, text, n_messages)
        records.append({
            "id": command_id,
            "method": answer.method,
            "failure_reason": answer.failure_reason,
            "predicted": answer.predicted,
            "gold": gold,
        })
        if answer.predicted is None:
            counts["failed"] += 1
            continue
        counts[answer.method] += 1
        hits = [p == g for p, g in zip(answer.predicted, gold)]
        exact += all(hits)
        for i, hit in enumerate(hits):
            correct[i] += hit
    n = len(rows)
    return Expected(
        records=tuple(records),
        command_level=Fraction(exact, n),
        question_level=Fraction(sum(correct), stubgen.N_QUESTIONS * n),
        per_question=tuple(Fraction(c, n) for c in correct),
        n_parse_failures=counts["failed"],
        method_counts=counts,
    )


def check_records(lines: Sequence[dict], expected: Expected) -> list[str]:
    errors = []
    if len(lines) != len(expected.records):
        errors.append(f"records: {len(lines)} lines, expected {len(expected.records)}")
    counts = {
        method: sum((line.get("method") or "failed") == method for line in lines)
        for method in expected.method_counts
    }
    if counts != expected.method_counts:
        errors.append(f"parse-method counts {counts}, expected {expected.method_counts}")
    for got, want in zip(lines, expected.records):
        for field, value in want.items():
            if got.get(field) != value:
                errors.append(
                    f"records[{want['id']}].{field} = {got.get(field)!r}, expected {value!r}"
                )
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def check_report(report: dict, expected: Expected, label: str) -> list[str]:
    want = {
        "label": label,
        "failure_policy": "strict",
        "n_commands": len(expected.records),
        "n_parse_failures": expected.n_parse_failures,
        "command_level": percent(expected.command_level),
        "question_level": percent(expected.question_level),
        "per_question": {
            t: percent(a) for t, a in zip(CATEGORY_TITLES, expected.per_question)
        },
    }
    return [
        f"report.{key} = {report.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if report.get(key) != value
    ]


def check_ablation(rows: Sequence[dict], cells: Sequence[tuple[str, int, Expected]]) -> list[str]:
    want = [
        {
            "mode": mode,
            "shots": shots,
            "command_level": percent(exp.command_level),
            "question_level": percent(exp.question_level),
            "error": None,
        }
        for mode, shots, exp in cells
    ]
    if len(rows) != len(want):
        return [f"ablation: {len(rows)} cells, expected {len(want)}"]
    return [
        f"ablation[{i}].{key} = {row.get(key)!r}, expected {value!r}"
        for i, (row, w) in enumerate(zip(rows, want))
        for key, value in w.items()
        if row.get(key) != value
    ]


def read_run(out_dir: Path) -> tuple[list[dict], dict]:
    lines = (out_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return [json.loads(line) for line in lines if line.strip()], report


def self_test(records: list[dict], report: dict, expected: Expected, label: str) -> list[str]:
    """Show that the checker rejects one altered bit and one altered percentage.

    Takes artifacts that pass and returns a list of problems with the checker
    itself (empty when it works).
    """
    problems = []
    if check_records(records, expected) or check_report(report, expected, label):
        return ["self-test needs artifacts that pass the checker"]
    target = next((i for i, r in enumerate(records) if r.get("predicted")), None)
    if target is not None:
        altered = [dict(r) for r in records]
        bits = altered[target]["predicted"]
        altered[target]["predicted"] = ("1" if bits[0] == "0" else "0") + bits[1:]
        if not check_records(altered, expected):
            problems.append("checker accepted records with one bit flipped")
    else:
        problems.append("self-test found no parsed record to alter")
    step = Fraction(1 if expected.command_level < 1 else -1, 10_000)  # 0.01 points
    bumped = dict(report, command_level=percent(expected.command_level + step))
    if not check_report(bumped, expected, label):
        problems.append("checker accepted a report with one percentage changed")
    return problems
