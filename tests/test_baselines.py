from __future__ import annotations

import pytest

from cmdreason.baselines import (
    MalformedRule,
    Rule,
    RuleSet,
    example_rules,
    load_rules,
    random_classify,
    rule_classify,
)
from cmdreason.dataset import MissingFile, RequirementVector
from cmdreason.rng import SplitMix64


def vec(bits: str) -> RequirementVector:
    return RequirementVector.from_bits(bits)


# =============================================================================
# Keyword rules
# =============================================================================


def test_single_rule_match():
    ruleset = RuleSet((Rule("call", vec("01001110")),))
    assert rule_classify(ruleset, "Call my friend Carol.") == vec("01001110")


def test_masks_of_all_matching_rules_are_ored():
    ruleset = RuleSet((Rule("u-turn", vec("10110000")), Rule("illegal", vec("00000001"))))
    assert rule_classify(ruleset, "Make an illegal U-turn here.") == vec("10110001")


def test_match_is_case_insensitive_both_ways():
    ruleset = RuleSet((Rule("CALL", vec("01000000")),))
    assert rule_classify(ruleset, "call carol") == vec("01000000")
    assert rule_classify(ruleset, "CALL CAROL") == vec("01000000")


def test_no_match_returns_default():
    ruleset = RuleSet((Rule("call", vec("01001110")),), default=vec("00010000"))
    assert rule_classify(ruleset, "Open the trunk.") == vec("00010000")


def test_match_ors_into_default():
    ruleset = RuleSet((Rule("honk", vec("00010001")),), default=vec("10000000"))
    assert rule_classify(ruleset, "Honk now.") == vec("10010001")


def test_rule_rejects_empty_pattern():
    with pytest.raises(ValueError):
        Rule("", vec("00000000"))


# =============================================================================
# Rules file
# =============================================================================


def test_load_rules_file(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("# comment\ndefault\t00000001\ncall\t01001110\n\nhonk\t00010001\n")
    ruleset = load_rules(p)
    assert ruleset.default == vec("00000001")
    assert [r.pattern for r in ruleset.rules] == ["call", "honk"]


def test_load_rules_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_rules(tmp_path / "nope.tsv")


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("call\t0100111", "8 chars"),
        ("call 01001110", "expected 2"),
        ("call\t01001110\textra", "expected 2"),
        ("\t01001110", "rule pattern must be non-empty"),
        ("c\udcffll\t01001110", "not UTF-8 text"),  # written as the byte 0xff
    ],
)
def test_load_rules_rejects_bad_lines(tmp_path, line, fragment):
    p = tmp_path / "r.tsv"
    p.write_text(line + "\n", encoding="utf-8", errors="surrogateescape")
    with pytest.raises(MalformedRule, match=fragment) as err:
        load_rules(p)
    assert str(err.value) == f"{p}:1: {err.value.reason}"


def test_load_rules_rejects_second_default(tmp_path):
    p = tmp_path / "r.tsv"
    p.write_text("default\t00000000\ndefault\t11111111\n")
    with pytest.raises(MalformedRule, match="duplicate default"):
        load_rules(p)


# =============================================================================
# Random baseline
# =============================================================================


def test_random_classify_matches_raw_bit_stream(toy_data):
    # oracle: flags must be the stream's top bits consumed left to right
    rng = SplitMix64(99)
    expected = [
        [bool(rng.next_u64() >> 63) for _ in range(8)] for _ in range(len(toy_data))
    ]
    got = random_classify(99, toy_data)
    assert [list(v) for v in got] == expected


def test_random_classify_is_deterministic(toy_data):
    assert random_classify(5, toy_data) == random_classify(5, toy_data)
    assert random_classify(5, toy_data) != random_classify(6, toy_data)


def test_random_classify_one_vector_per_command(toy_data):
    assert len(random_classify(0, toy_data)) == len(toy_data)


# =============================================================================
# Shipped example rules
# =============================================================================


def test_example_rules_beat_random_on_toy_dataset(toy_data):
    ruleset = example_rules()

    def question_hits(predictions):
        return sum(
            sum(p == g for p, g in zip(pred, rec.gold))
            for pred, rec in zip(predictions, toy_data)
        )

    rule_hits = question_hits([rule_classify(ruleset, rec.text) for rec in toy_data])
    random_hits = [
        question_hits(random_classify(seed, toy_data)) for seed in range(20)
    ]
    assert rule_hits > max(random_hits)
