"""Scoring: question-level and command-level accuracy over predictions.

All accuracies are exact Fractions; rounding happens only at display time in
format_percent.  Two policies decide what a parse failure costs:

* ``strict``  - the command stays in every denominator and scores zero on all
  8 questions and on the exact-match count.  This is the headline policy: a
  model that cannot follow the output format earns nothing for that command.
* ``exclude`` - failed commands are dropped from all denominators, measuring
  accuracy only over parseable responses.  n_parse_failures still reports how
  many were dropped.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .dataset import CATEGORY_TITLES, N_QUESTIONS, LabeledCommand, RequirementVector
from .errors import DataError

FAILURE_POLICIES = ("strict", "exclude")


class IdMismatch(DataError):
    """Prediction ids and gold ids do not line up one-to-one."""


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    """One command's prediction: a vector and how it was made, or why there is none.

    Parsed responses carry the parse method and their cache key; baselines
    build ``PredictionRecord(id, vector)`` with method ``direct``.
    """

    command_id: str
    vector: RequirementVector | None
    method: str | None = "direct"  # parse method, "direct" for baselines
    failure_reason: str | None = None
    cache_key: str = ""  # cache key of the parsed response, "" for baselines

    def __post_init__(self) -> None:
        if not self.command_id:
            raise ValueError("command_id must be non-empty")
        if self.vector is not None and self.method is None:
            raise ValueError("a predicted vector needs a method")
        if (self.vector is None) == (self.failure_reason is None):
            raise ValueError("a record has exactly one of vector or failure_reason")


@dataclass(frozen=True, slots=True)
class EvalReport:
    per_question_accuracy: tuple[Fraction, ...]  # one per category
    question_level_accuracy: Fraction  # micro average over all scored answers
    command_level_accuracy: Fraction  # all-8-exact rate
    n_commands: int  # gold records evaluated
    n_parse_failures: int
    failure_policy: str


def evaluate(
    predictions: Sequence[PredictionRecord],
    gold: Sequence[LabeledCommand],
    failure_policy: str = "strict",
) -> EvalReport:
    """Score predictions against gold labels.

    Requires a one-to-one id match between predictions and gold (order does
    not matter).  Empty denominators (no gold records, or every command
    excluded) yield zero accuracies rather than an error.
    """
    if failure_policy not in FAILURE_POLICIES:
        raise ValueError(f"failure_policy must be one of {FAILURE_POLICIES}")
    by_id: dict[str, PredictionRecord] = {}
    for pred in predictions:
        if pred.command_id in by_id:
            raise IdMismatch(f"duplicate prediction for id {pred.command_id!r}")
        by_id[pred.command_id] = pred
    gold_ids = {rec.command_id for rec in gold}
    if len(gold_ids) != len(gold):
        raise IdMismatch("duplicate ids in gold records")
    missing = gold_ids - by_id.keys()
    extra = by_id.keys() - gold_ids
    if missing or extra:
        raise IdMismatch(
            "prediction ids do not match gold ids"
            + (f"; missing: {sorted(missing)}" if missing else "")
            + (f"; unexpected: {sorted(extra)}" if extra else "")
        )

    question_correct = [0] * N_QUESTIONS
    command_correct = 0
    n_failures = 0
    n_scored = 0
    for rec in gold:
        vector = by_id[rec.command_id].vector
        if vector is None:
            n_failures += 1
            if failure_policy == "strict":
                n_scored += 1  # counts in denominators, contributes nothing
            continue
        n_scored += 1
        exact = True
        for i in range(N_QUESTIONS):
            if vector[i] == rec.gold[i]:
                question_correct[i] += 1
            else:
                exact = False
        command_correct += exact

    def rate(numerator: int, denominator: int) -> Fraction:
        return Fraction(numerator, denominator) if denominator else Fraction(0)

    return EvalReport(
        per_question_accuracy=tuple(rate(c, n_scored) for c in question_correct),
        question_level_accuracy=rate(sum(question_correct), N_QUESTIONS * n_scored),
        command_level_accuracy=rate(command_correct, n_scored),
        n_commands=len(gold),
        n_parse_failures=n_failures,
        failure_policy=failure_policy,
    )


def per_question_breakdown(report: EvalReport) -> list[tuple[str, Fraction]]:
    """(category title, accuracy) rows in category order, then an Overall row."""
    rows = list(zip(CATEGORY_TITLES, report.per_question_accuracy))
    rows.append(("Overall", report.question_level_accuracy))
    return rows


def format_percent(value: Fraction) -> str:
    """Render a rate as a percentage with exactly 2 decimals, ties-to-even.

    round() on a Fraction is exact banker's rounding, so e.g. 0.38025 -> 38.02
    and 0.38035 -> 38.04 with no float noise.
    """
    hundredths = round(Fraction(value) * 10_000)
    return f"{hundredths // 100}.{hundredths % 100:02d}"
