from __future__ import annotations

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_shot
from cmdreason.dataset import N_QUESTIONS, RequirementVector
from cmdreason.metrics import PredictionRecord
from cmdreason.parser import (
    METHOD_BRACKET,
    METHOD_STEP_FALLBACK,
    ParseOutcome,
    _find_bracket_vector,
    parse_response,
)
from cmdreason.prompt import ExplanationMode, render_shot


def bits_of(outcome: ParseOutcome) -> str:
    assert outcome.vector is not None, outcome.failure_reason
    return outcome.vector.bits()


# =============================================================================
# Stage 1: bracket groups
# =============================================================================


def test_plain_bracket_vector():
    outcome = parse_response("Output is [0 1 0 0 1 1 1 0].")
    assert bits_of(outcome) == "01001110"
    assert outcome.method == METHOD_BRACKET


def test_comma_separated_tokens():
    assert bits_of(parse_response("[1,0,1,1,0,0,0,1]")) == "10110001"


def test_mixed_separators_and_padding():
    assert bits_of(parse_response("[ 1 ,0,  1\t1 0 0 0, 1 ]")) == "10110001"


def test_last_qualifying_group_wins():
    text = "Earlier draft: [1 1 1 1 1 1 1 1]\nFinal answer: [0 0 0 0 0 0 0 1]"
    assert bits_of(parse_response(text)) == "00000001"


def test_non_qualifying_groups_are_ignored():
    text = "Output is [A1 A2 A3 A4 A5 A6 A7 A8]. So: [0 1 0 0 1 1 1 0]"
    assert bits_of(parse_response(text)) == "01001110"


def test_seven_token_group_does_not_qualify():
    text = "[0 1 0 0 1 1 1]\nStep lines absent."
    assert parse_response(text).vector is None


def test_nine_token_group_does_not_qualify():
    assert parse_response("[0 1 0 0 1 1 1 0 0]").vector is None


def test_bracket_with_other_digits_does_not_qualify():
    assert parse_response("[0 1 2 0 1 1 1 0]").vector is None


def test_bracket_beats_step_lines_when_both_present():
    text = "\n".join(
        [f"Step {k}: No, nothing." for k in range(1, 9)] + ["Output is [1 1 1 1 1 1 1 1]."]
    )
    outcome = parse_response(text)
    assert outcome.method == METHOD_BRACKET
    assert bits_of(outcome) == "11111111"


def test_multiline_bracket_group():
    assert bits_of(parse_response("[0 1 0 0\n1 1 1 0]")) == "01001110"


# =============================================================================
# Stage 2: step fallback
# =============================================================================


def _step_lines(answers: list[str]) -> str:
    return "\n".join(f"Step {k}: {a}" for k, a in enumerate(answers, start=1))


def test_step_fallback_reads_yes_no():
    text = _step_lines(
        ["No, a.", "Yes, b.", "No, c.", "No, d.", "Yes, e.", "Yes, f.", "Yes, g.", "No, h."]
    )
    outcome = parse_response(text)
    assert outcome.method == METHOD_STEP_FALLBACK
    assert bits_of(outcome) == "01001110"


def test_step_fallback_is_case_insensitive():
    text = "\n".join(f"STEP {k}: YES." for k in range(1, 9))
    assert bits_of(parse_response(text)) == "11111111"


def test_step_fallback_reads_a_long_s_yes_as_yes():
    # the case-insensitive match lets "ſ" (U+017F, long s) stand for "s", so
    # "YEſ" is a spelling of yes and must read as Yes, like the other seven
    text = _step_lines(["Yes."] * 2 + ["YEſ."] + ["Yes."] * 5)
    outcome = parse_response(text)
    assert outcome.method == METHOD_STEP_FALLBACK
    assert bits_of(outcome) == "11111111"


def test_step_fallback_tolerates_list_markup():
    text = "\n".join(f"- Step {k}: \"No\" for this one." for k in range(1, 9))
    assert bits_of(parse_response(text)) == "00000000"


def test_step_lines_interleaved_with_prose():
    lines = ["Let me think about each requirement."]
    for k in range(1, 9):
        lines.append(f"Step {k}: Yes, needed.")
        lines.append("(more thoughts here)")
    assert bits_of(parse_response("\n".join(lines))) == "11111111"


def test_step_numbers_outside_range_are_ignored():
    text = _step_lines(["Yes."] * 8) + "\nStep 9: Yes, bogus.\nStep 0: No."
    assert bits_of(parse_response(text)) == "11111111"


# =============================================================================
# Failure taxonomy
# =============================================================================


def test_failure_no_bracket_no_steps():
    outcome = parse_response("I cannot help with that request.")
    assert outcome.failure_reason == "no_bracket_no_steps"


def test_failure_empty_text():
    assert parse_response("").failure_reason == "no_bracket_no_steps"


def test_failure_missing_step():
    text = "\n".join(f"Step {k}: Yes." for k in (1, 2, 3, 5, 6, 7, 8))
    assert parse_response(text).failure_reason == "missing_step(4)"


def test_failure_duplicate_step():
    text = _step_lines(["Yes."] * 8) + "\nStep 3: No, on second thought."
    assert parse_response(text).failure_reason == "duplicate_step"


def test_failure_ambiguous_step():
    answers = ["Yes."] * 8
    answers[5] = "It depends on the situation."
    assert parse_response(_step_lines(answers)).failure_reason == "ambiguous_step(6)"


def test_failures_are_reported_in_ascending_step_order():
    # step 2 is both missing and step 5 ambiguous; missing_step(2) wins
    lines = [f"Step {k}: Yes." for k in (1, 3, 4, 6, 7, 8)]
    lines.append("Step 5: Unclear.")
    assert parse_response("\n".join(lines)).failure_reason == "missing_step(2)"


# =============================================================================
# Properties
# =============================================================================


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
@example("Step " + "1" * 5000 + ": yes")  # a step number past int()'s digit limit
def test_parse_never_raises(text):
    # every outcome is a record's parse fields: PredictionRecord checks them
    outcome = parse_response(text)
    record = PredictionRecord("c1", *outcome)
    assert record.method in (METHOD_BRACKET, METHOD_STEP_FALLBACK, None)
    assert (record.method is None) == (outcome.vector is None)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=8, max_size=8), st.sampled_from(ExplanationMode))
def test_rendered_shots_always_parse_back_to_gold(flags, mode):
    # round-trip oracle: whatever we teach the model to emit, we can read back
    bits = "".join("1" if f else "0" for f in flags)
    _, assistant_text = render_shot(make_shot("Do the thing.", bits), mode)
    outcome = parse_response(assistant_text)
    assert outcome.vector is not None
    assert outcome.vector.bits() == bits


# =============================================================================
# Differential checks against the token-splitting parser
# =============================================================================

# The parser as first written: every bracket group split into tokens, and
# each step line matched, then its remainder searched for a Yes/No.  The
# answer is compared case-folded, as the IGNORECASE match reads it, so that
# "yeſ" (a long s) is a Yes.
_ORACLE_GROUP_RE = re.compile(r"\[([^\[\]]*)\]")
_ORACLE_TOKEN_SEP_RE = re.compile(r"[\s,]+")
_ORACLE_STEP_LINE_RE = re.compile(r"""^[\s"'*\-]*step\s*(\d+)\s*:(.*)$""", re.IGNORECASE)
_ORACLE_ANSWER_RE = re.compile(r"""^[\s"'*\-:.,()\[\]]*(yes|no)\b""", re.IGNORECASE)


def oracle_bracket_vector(text: str) -> RequirementVector | None:
    last = None
    for match in _ORACLE_GROUP_RE.finditer(text):
        tokens = [t for t in _ORACLE_TOKEN_SEP_RE.split(match.group(1).strip()) if t]
        if len(tokens) == N_QUESTIONS and all(t in ("0", "1") for t in tokens):
            last = RequirementVector(t == "1" for t in tokens)
    return last


def oracle_steps(text: str) -> tuple[str | None, str | None]:
    """(bits, None) or (None, failure reason) of the step fallback."""
    answers: dict[int, list[bool | None]] = {}
    for line in text.splitlines():
        match = _ORACLE_STEP_LINE_RE.match(line)
        if not match or not 1 <= int(match.group(1)) <= N_QUESTIONS:
            continue
        word = _ORACLE_ANSWER_RE.match(match.group(2))
        answers.setdefault(int(match.group(1)), []).append(
            word.group(1).casefold() == "yes" if word else None
        )
    if not answers:
        return None, "no_bracket_no_steps"
    flags = []
    for k in range(1, N_QUESTIONS + 1):
        found = answers.get(k)
        if found is None:
            return None, f"missing_step({k})"
        if len(found) > 1:
            return None, "duplicate_step"
        if found[0] is None:
            return None, f"ambiguous_step({k})"
        flags.append(found[0])
    return "".join("1" if f else "0" for f in flags), None


# separators: ASCII, tab, NBSP, the line and paragraph separators, and the
# line boundaries of str.splitlines that a regex's multiline mode ignores
_SEPARATORS = (" ", ",", ", ", "\t", "\xa0", "\u2028", "\u2029", "\n", "\r", "\r\n",
               "\x0b", "\x0c", "\x1c", "\x85", "\u3000", " ,\t")
_TOKENS = ("0", "1", "0", "1", "01", "2", "10", "A1", "\u0661", "")


def _bracket_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(0, 4)):
        n = rng.choice((7, 8, 8, 8, 9))
        tokens = [rng.choice(_TOKENS) if rng.random() < 0.15 else rng.choice("01")
                  for _ in range(n)]
        inner = rng.choice(_SEPARATORS) * rng.randint(0, 1)
        for token in tokens:
            inner += token + rng.choice(_SEPARATORS)
        if rng.random() < 0.5:
            inner = inner[: -1 or None]
        group = f"[{inner}]"
        shape = rng.randrange(6)
        if shape == 1:
            group = f"[{group}]"  # nested
        elif shape == 2:
            group = group + group  # adjacent
        elif shape == 3:
            group = f"[ 1 {group} 0 ]"
        elif shape == 4:
            group = group[: rng.randrange(len(group))]  # cut short
        parts.append(group)
        parts.append(rng.choice(("", " ", "\n", "Output: ", "] [", "[", "]", "x")))
    return "".join(parts)


def _step_text(rng: random.Random) -> str:
    lines = []
    # mostly steps 1 to 8 once each, some dropped, repeated or out of range
    steps = [k for k in range(1, 9) if rng.random() < 0.97]
    steps += rng.choices((1, 5, 8, 0, 9, 12), k=rng.choice((0, 0, 0, 1, 2)))
    rng.shuffle(steps)
    for k in steps:
        prefix = rng.choice(("", "- ", "  * ", '"', "'", "\t", "\xa0"))
        step = rng.choice(("Step", "step", "STEP", "ſtep", "Step "))
        number = rng.choice((str(k), f" {k}", f"{k} ", "\u0663" if k == 3 else str(k)))
        answer = rng.choice(("Yes", "No", "yes.", "NO,", "(Yes)", "[no]", "- yes", "No", "Yes",
                             "Maybe", "yesterday", "", " : No", "yeſ", "Yes\u2028No"))
        if rng.random() < 0.8:
            answer = rng.choice(("Yes", "No"))
        colon = rng.choice((":", ":", ":", ":", " :", ""))
        lines.append(f"{prefix}{step}{number}{colon} {answer} because.")
        if rng.random() < 0.2:
            lines.append(rng.choice(("Explanation:", "", "  ", "Output is fine.")))
    line_break = rng.choice(("\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
                             "\u2028", "\u2029"))
    return line_break.join(lines)


def test_parser_agrees_with_the_token_splitting_oracle_on_a_seeded_corpus():
    rng = random.Random(20231114)
    seen = set()
    for _ in range(4000):
        kind = rng.randrange(3)
        text = (_bracket_text(rng), _step_text(rng), _step_text(rng) + _bracket_text(rng))[kind]
        expected_vector = oracle_bracket_vector(text)
        assert _find_bracket_vector(text) == expected_vector, repr(text)
        outcome = parse_response(text)
        if expected_vector is not None:
            assert (outcome.method, outcome.vector) == (METHOD_BRACKET, expected_vector)
            seen.add(METHOD_BRACKET)
            continue
        bits, reason = oracle_steps(text)
        got = (outcome.vector.bits() if outcome.vector is not None else None,
               outcome.failure_reason)
        assert got == (bits, reason), repr(text)
        seen.add(reason.partition("(")[0] if reason else METHOD_STEP_FALLBACK)
    # the corpus reached every parse method and every failure reason
    assert seen == {METHOD_BRACKET, METHOD_STEP_FALLBACK, "no_bracket_no_steps",
                    "missing_step", "duplicate_step", "ambiguous_step"}


@pytest.mark.parametrize(
    "text",
    [
        "[0\xa01\xa00\xa00\xa01\xa01\xa01\xa00]",
        "[0\u20281\u20280\u20280\u20281\u20281\u20281\u20280]",
        "[[0 1 0 0 1 1 1 0]]",
        "[0 1 0 0 1 1 1 0][1 1 1 1 1 1 1 1]",
        "[0 1 0 0 1 1 1 0 [1 1 1 1 1 1 1 1]",
        "[01 1 0 0 1 1 1 0]",
        "[0 1 0 0 1 1 1 2]",
        "[,,0,1,0,0,1,1,1,0,,]",
        "[0 1 0 0 1 1 1]",
        "[0 1 0 0 1 1 1 0 1]",
        "Step 1: Yes\x85Step 2: Yes\rStep 3: Yes\x0bStep 4: Yes\u2028Step 5: Yes"
        "\x1cStep 6: Yes\x0cStep 7: Yes\u2029Step 8: No",
        "Step\n1: Yes",
        "Step 1:\nYes",
    ],
)
def test_parser_agrees_with_the_oracle_on_edge_cases(text):
    outcome = parse_response(text)
    expected_vector = oracle_bracket_vector(text)
    assert _find_bracket_vector(text) == expected_vector
    if expected_vector is None:
        bits, reason = oracle_steps(text)
        got = outcome.vector.bits() if outcome.vector is not None else None
        assert (got, outcome.failure_reason) == (bits, reason)
