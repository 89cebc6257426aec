from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdreason.dataset import LabeledCommand, RequirementVector
from cmdreason.metrics import (
    EvalReport,
    IdMismatch,
    PredictionRecord,
    evaluate,
    format_percent,
)
from cmdreason.rng import SplitMix64


def gold(command_id: str, bits: str) -> LabeledCommand:
    return LabeledCommand(command_id, f"command {command_id}", RequirementVector.from_bits(bits))


def pred(command_id: str, bits: str) -> PredictionRecord:
    return PredictionRecord(command_id, RequirementVector.from_bits(bits))


def fail(command_id: str) -> PredictionRecord:
    return PredictionRecord(command_id, None, None, "no_bracket_no_steps")


# =============================================================================
# Hand-counted examples
# =============================================================================

GOLD3 = [gold("a", "11111111"), gold("b", "00000000"), gold("c", "10101010")]


def test_all_exact():
    report = evaluate([pred("a", "11111111"), pred("b", "00000000"), pred("c", "10101010")], GOLD3)
    assert report.command_level_accuracy == 1
    assert report.question_level_accuracy == 1
    assert report.per_question_accuracy == (Fraction(1),) * 8
    assert report.n_parse_failures == 0


def test_partial_match_counts_by_hand():
    # b predicted with 2 wrong flags (questions 1 and 2); 22 of 24 answers right
    report = evaluate([pred("a", "11111111"), pred("b", "11000000"), pred("c", "10101010")], GOLD3)
    assert report.command_level_accuracy == Fraction(2, 3)
    assert report.question_level_accuracy == Fraction(22, 24)
    assert report.per_question_accuracy[0] == Fraction(2, 3)
    assert report.per_question_accuracy[1] == Fraction(2, 3)
    assert report.per_question_accuracy[2] == Fraction(3, 3)


def test_strict_policy_scores_failure_as_all_wrong():
    report = evaluate([pred("a", "11111111"), fail("b"), pred("c", "10101010")], GOLD3, "strict")
    assert report.n_parse_failures == 1
    assert report.n_commands == 3
    assert report.command_level_accuracy == Fraction(2, 3)
    assert report.question_level_accuracy == Fraction(16, 24)
    assert report.per_question_accuracy == (Fraction(2, 3),) * 8


def test_exclude_policy_drops_failure_from_denominators():
    report = evaluate([pred("a", "11111111"), fail("b"), pred("c", "10101010")], GOLD3, "exclude")
    assert report.n_parse_failures == 1
    assert report.n_commands == 3
    assert report.command_level_accuracy == Fraction(2, 2)
    assert report.question_level_accuracy == Fraction(16, 16)
    assert report.per_question_accuracy == (Fraction(1),) * 8


def test_all_failures_exclude_yields_zeros():
    report = evaluate([fail("a"), fail("b"), fail("c")], GOLD3, "exclude")
    assert report.command_level_accuracy == 0
    assert report.question_level_accuracy == 0
    assert report.per_question_accuracy == (Fraction(0),) * 8


def test_empty_inputs_yield_zeros():
    report = evaluate([], [])
    assert report.n_commands == 0
    assert report.command_level_accuracy == 0


def test_order_of_predictions_does_not_matter():
    preds = [pred("c", "10101010"), pred("a", "11111111"), pred("b", "00000000")]
    assert evaluate(preds, GOLD3) == evaluate(list(reversed(preds)), GOLD3)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        evaluate([], [], "lenient")


# =============================================================================
# Id hygiene
# =============================================================================


def test_missing_prediction_raises():
    with pytest.raises(IdMismatch, match="missing"):
        evaluate([pred("a", "11111111")], GOLD3)


def test_extra_prediction_raises():
    with pytest.raises(IdMismatch, match="unexpected"):
        evaluate(
            [pred("a", "11111111"), pred("b", "0" * 8), pred("c", "10101010"), pred("d", "0" * 8)],
            GOLD3,
        )


def test_duplicate_prediction_raises():
    with pytest.raises(IdMismatch, match="duplicate prediction"):
        evaluate([pred("a", "11111111"), pred("a", "00000000")], GOLD3[:1])


def test_duplicate_gold_raises():
    with pytest.raises(IdMismatch, match="duplicate ids in gold"):
        evaluate([pred("a", "11111111")], [GOLD3[0], GOLD3[0]])


# =============================================================================
# Brute-force equivalence
# =============================================================================


def naive_eval(predictions, gold_records, policy):
    """Independent oracle: plain loops, no shared code with evaluate()."""
    lookup = {p.command_id: p for p in predictions}
    scored = []
    failures = 0
    for rec in gold_records:
        p = lookup[rec.command_id]
        vector = p.vector
        if vector is None:
            failures += 1
            if policy == "strict":
                scored.append((rec, None))
        else:
            scored.append((rec, vector))
    per_q = []
    for i in range(8):
        hits = sum(1 for rec, v in scored if v is not None and v[i] == rec.gold[i])
        per_q.append(Fraction(hits, len(scored)) if scored else Fraction(0))
    exact = sum(1 for rec, v in scored if v is not None and v == rec.gold)
    total_hits = sum(
        1
        for rec, v in scored
        if v is not None
        for i in range(8)
        if v[i] == rec.gold[i]
    )
    return EvalReport(
        per_question_accuracy=tuple(per_q),
        question_level_accuracy=Fraction(total_hits, 8 * len(scored)) if scored else Fraction(0),
        command_level_accuracy=Fraction(exact, len(scored)) if scored else Fraction(0),
        n_commands=len(gold_records),
        n_parse_failures=failures,
        failure_policy=policy,
    )


def random_instance(rng: SplitMix64):
    n = 1 + rng.randrange(6)
    gold_records = []
    predictions = []
    for i in range(n):
        bits = "".join("1" if rng.next_bit() else "0" for _ in range(8))
        gold_records.append(gold(f"g{i}", bits))
        if rng.randrange(5) == 0:
            predictions.append(fail(f"g{i}"))
        elif rng.next_bit():
            predictions.append(pred(f"g{i}", bits))  # exact copy
        else:
            other = "".join("1" if rng.next_bit() else "0" for _ in range(8))
            predictions.append(pred(f"g{i}", other))
    return predictions, gold_records


def test_matches_brute_force_on_random_instances():
    rng = SplitMix64(2024)
    for _ in range(300):
        predictions, gold_records = random_instance(rng)
        for policy in ("strict", "exclude"):
            assert evaluate(predictions, gold_records, policy) == naive_eval(
                predictions, gold_records, policy
            )


# =============================================================================
# Formatting
# =============================================================================


@pytest.mark.parametrize(
    "value,rendered",
    [
        (Fraction(0), "0.00"),
        (Fraction(1), "100.00"),
        (Fraction(1, 2), "50.00"),
        (Fraction(8902, 10000), "89.02"),
        (Fraction(3803, 10000), "38.03"),
        (Fraction(1, 256), "0.39"),  # 0.390625
        (Fraction(1, 800), "0.12"),  # 0.125 -> ties to even
        (Fraction(3, 800), "0.38"),  # 0.375 -> ties to even
        (Fraction(1, 3), "33.33"),
        (Fraction(2, 3), "66.67"),
    ],
)
def test_format_percent_rounds_half_even(value, rendered):
    assert format_percent(value) == rendered


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
def test_format_percent_matches_decimal_oracle(value):
    # independent route: exact Decimal division, then quantize half-even
    exact = Decimal(value.numerator * 100) / Decimal(value.denominator)
    expected = str(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))
    assert format_percent(value) == expected
