from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_shot, prompt_configs, sent_in_a_run
from cmdreason.dataset import MissingFile, RequirementVector
from cmdreason.errors import UsageError
from cmdreason.prompt import (
    ANSWER_LINE_PREFIX,
    OUTPUT_PATTERN,
    ExplanationMode,
    PromptConfig,
    ShotExample,
    TemplateError,
    build_system_prompt,
    default_template,
    load_template,
    render_shot,
    transcript_prefix,
)


@pytest.fixture()
def config(template) -> PromptConfig:
    return template.config(ExplanationMode.STEPWISE, 2)


# =============================================================================
# ShotExample validation
# =============================================================================


def test_shot_requires_eight_rationales():
    with pytest.raises(ValueError):
        ShotExample("Do it.", RequirementVector.from_bits("10000000"), ("Yes, x.",) * 7)


def test_shot_rationale_must_open_with_yes_or_no():
    with pytest.raises(ValueError, match="must start with Yes or No"):
        make_bad = ("Maybe, who knows.",) + ("No, nothing.",) * 7
        ShotExample("Do it.", RequirementVector.from_bits("10000000"), make_bad)


def test_shot_rationale_must_agree_with_gold():
    rationales = ("No, nothing.",) * 8  # but gold says question 1 is Yes
    with pytest.raises(ValueError, match="gold says"):
        ShotExample("Do it.", RequirementVector.from_bits("10000000"), rationales)


@pytest.mark.parametrize("command", ["", " \t"])
def test_shot_command_must_be_non_empty(command):
    with pytest.raises(ValueError, match="shot command must be non-empty"):
        ShotExample(command, RequirementVector.from_bits("00000000"), ("No, nothing.",) * 8)


def test_shot_accepts_consistent_rationales():
    shot = make_shot("Do it.", "10110001")
    assert shot.gold.bits() == "10110001"


# =============================================================================
# System prompt per mode
# =============================================================================


def test_stepwise_lists_all_eight_steps(template):
    text = build_system_prompt(template.config(ExplanationMode.STEPWISE, 0))
    for k, question in enumerate(template.question_texts, start=1):
        assert f"Step {k}: {question}" in text


def test_none_mode_has_no_step_marker_and_no_questions(template):
    text = build_system_prompt(template.config(ExplanationMode.NONE, 0))
    assert "Step" not in text
    for question in template.question_texts:
        assert question not in text
    assert text.startswith(template.preamble)
    assert text.endswith(template.format_instruction)


def test_paragraph_equals_stepwise_with_markers_deleted(template):
    # independent oracle: deleting the "Step k: " markers from the stepwise
    # rendering must yield the paragraph rendering, up to whitespace
    stepwise = build_system_prompt(template.config(ExplanationMode.STEPWISE, 0))
    paragraph = build_system_prompt(template.config(ExplanationMode.PARAGRAPH, 0))
    unmarked = re.sub(r"Step [1-8]: ", "", stepwise)
    normalize = lambda s: " ".join(s.split())
    assert normalize(unmarked) == normalize(paragraph)
    assert "Step" not in paragraph


def test_output_pattern_appears_exactly_once_in_every_mode(template):
    for mode in ExplanationMode:
        text = build_system_prompt(template.config(mode, 0))
        assert text.count(OUTPUT_PATTERN) == 1


def test_config_rejects_format_instruction_without_pattern(template):
    with pytest.raises(ValueError, match="exactly once"):
        PromptConfig(
            mode=ExplanationMode.NONE,
            shots=(),
            question_texts=template.question_texts,
            preamble=template.preamble,
            format_instruction="Reply with ones and zeros.",
        )


# =============================================================================
# Shot rendering
# =============================================================================


def test_render_shot_stepwise_marks_each_rationale():
    shot = make_shot("Open the sunroof.", "01000000")
    shot_user, shot_assistant = render_shot(shot, ExplanationMode.STEPWISE)
    assert shot_user == "Open the sunroof."
    lines = shot_assistant.splitlines()
    assert lines[0] == "Explanation:"
    for k in range(1, 9):
        assert lines[k].startswith(f"Step {k}: ")
    assert lines[-1] == f"{ANSWER_LINE_PREFIX} [0 1 0 0 0 0 0 0]"


def test_render_shot_paragraph_has_no_step_markers():
    shot = make_shot("Open the sunroof.", "01000000")
    _, shot_assistant = render_shot(shot, ExplanationMode.PARAGRAPH)
    assert "Step" not in shot_assistant
    assert shot_assistant.endswith("[0 1 0 0 0 0 0 0]")


def test_answer_line_ends_with_bracket_vector():
    shot = make_shot("Do it.", "01001110")
    for mode in ExplanationMode:
        _, shot_assistant = render_shot(shot, mode)
        assert shot_assistant.endswith("[0 1 0 0 1 1 1 0]")


# =============================================================================
# Transcripts
# =============================================================================


def test_message_count_law(template):
    for shots in range(0, 5):
        config = template.config(ExplanationMode.STEPWISE, shots)
        assert len(transcript_prefix(config)) == 1 + 2 * shots


def test_transcript_role_pattern(config, tmp_path):
    roles = [m["role"] for m in sent_in_a_run(config, ["Honk twice."], tmp_path)[0]]
    assert roles[0] == "system"
    assert roles[-1] == "user"
    assert roles[1:-1] == ["user", "assistant"] * len(config.shots)


def test_final_message_is_command_verbatim(config, tmp_path):
    command = "  Honk twice, please. "
    (transcript,) = sent_in_a_run(config, [command], tmp_path)
    assert transcript == transcript_prefix(config) + [{"role": "user", "content": command}]


@settings(max_examples=50, deadline=None)
@given(
    # what a dataset can hold: no tab, line break or lone surrogate (category Cs)
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"), min_size=1
    ).filter(str.strip),
    st.integers(0, 4),
)
def test_message_count_law_property(command, shots):
    config = default_template().config(ExplanationMode.PARAGRAPH, shots)
    with tempfile.TemporaryDirectory() as directory:
        (transcript,) = sent_in_a_run(config, [command], Path(directory))
    assert len(transcript) == 2 + 2 * shots
    assert transcript[-1]["content"] == command


# =============================================================================
# PromptConfig serialization
# =============================================================================


def test_config_json_round_trip(template):
    config = template.config(ExplanationMode.PARAGRAPH, 3)
    assert PromptConfig.from_json_dict(config.to_json_dict()) == config


@settings(max_examples=1000, deadline=None)
@given(prompt_configs())
def test_config_json_gives_the_config_back(config):
    data = json.loads(json.dumps(config.to_json_dict()))
    assert PromptConfig.from_json_dict(data) == config
    assert PromptConfig.from_json_dict(data).to_json_dict() == data


@pytest.mark.parametrize(
    "change, message",
    [
        ({"question_texts": [f"Is {k} needed?" for k in range(7)]}, "expected 8 question texts"),
        ({"question_texts": [f"Is {k} needed?" for k in range(7)] + [" "]},
         "question texts must be non-empty"),
        ({"preamble": " \n"}, "preamble must be non-empty"),
    ],
    ids=["seven-questions", "empty-question", "empty-preamble"],
)
def test_config_json_refuses_a_config_that_breaks_a_rule(template, change, message):
    data = {**template.config(ExplanationMode.NONE, 0).to_json_dict(), **change}
    with pytest.raises(ValueError, match=message):
        PromptConfig.from_json_dict(data)


# =============================================================================
# Template files
# =============================================================================


def test_default_template_shape(template):
    assert len(template.question_texts) == 8
    assert len(template.shots) == 4
    assert "First decide whether the external perception system is required" in (
        template.question_texts[0]
    )
    assert template.shots[0].command == "Call my friend Carol."
    assert template.shots[0].gold.bits() == "01001110"


def test_template_config_rejects_too_many_shots(template):
    with pytest.raises(UsageError):
        template.config(ExplanationMode.NONE, len(template.shots) + 1)


@pytest.mark.parametrize("shot_count", [True, 2.0, "2", None])
def test_template_config_rejects_a_shot_count_that_is_not_an_int(template, shot_count):
    with pytest.raises(UsageError, match="cannot take"):
        template.config(ExplanationMode.STEPWISE, shot_count)


@pytest.mark.parametrize("mode", ["stepwise", "stpewise", None])
def test_template_config_rejects_a_mode_that_is_not_an_explanation_mode(template, mode):
    # "stepwise" equals ExplanationMode.STEPWISE, but would render without its Step k: lines
    with pytest.raises(ValueError, match="mode must be an ExplanationMode"):
        template.config(mode, 2)


def _template_text(**overrides) -> str:
    sections = {"preamble": "Follow the steps."}
    for k in range(1, 9):
        sections[f"q{k}"] = f"Is requirement {k} needed?"
    sections["format_instruction"] = (
        "Output is [A1 A2 A3 A4 A5 A6 A7 A8]. Replace A1-A8 with 1 for 'Yes' and 0 for 'No'."
    )
    sections.update(overrides)
    return "\n".join(f"[{name}]\n{text}\n" for name, text in sections.items() if text is not None)


_SHOT_LINES = ["[shot]", "command: Wave hello.", "gold: 00000000"] + [
    f"r{k}: No, not needed." for k in range(1, 9)
]


@pytest.mark.parametrize(
    "text, message",
    [
        (_template_text(q3=" "), r":11: section \[q3\] is empty"),
        ("\n".join([_template_text(), *_SHOT_LINES, "r9: No, not needed."]),
         r":42: expected 'key: value' with key in command/gold/r1/.*/r8, got 'r9: No, not needed.'"),
        ("\n".join([_template_text(), *_SHOT_LINES, "command: Wave again."]),
         r":42: duplicate key 'command'"),
    ],
    ids=["empty-prose-section", "unknown-shot-key", "duplicate-shot-key"],
)
def test_template_refuses_a_malformed_section(tmp_path, text, message):
    p = tmp_path / "t.txt"
    p.write_text(text + "\n")
    with pytest.raises(TemplateError, match=re.escape(str(p)) + message):
        load_template(p)


def test_minimal_template_loads(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(_template_text())
    template = load_template(p)
    assert template.shots == ()
    assert template.question_texts[4] == "Is requirement 5 needed?"


def test_template_missing_section_lists_it(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(_template_text(q5=None))
    with pytest.raises(TemplateError, match="missing sections: q5"):
        load_template(p)


def test_template_unknown_section_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(_template_text() + "[q9]\nBogus.\n")
    with pytest.raises(TemplateError, match=r"unknown section \[q9\]"):
        load_template(p)


def test_template_duplicate_section_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(_template_text() + "[q1]\nAgain.\n")
    with pytest.raises(TemplateError, match="duplicate section"):
        load_template(p)


def test_template_text_before_first_header_rejected(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("stray text\n" + _template_text())
    with pytest.raises(TemplateError, match="before first section"):
        load_template(p)


def test_template_without_output_pattern_is_template_error(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(_template_text(format_instruction="Answer with eight bits."))
    with pytest.raises(TemplateError, match=re.escape(f"{p}: format instruction must contain")):
        load_template(p)


def test_loaded_template_is_a_stepwise_config_of_every_shot(template):
    assert isinstance(template, PromptConfig)
    assert template.mode is ExplanationMode.STEPWISE
    assert template.config(ExplanationMode.STEPWISE, len(template.shots)) == template


def test_template_shot_block_parses(tmp_path):
    shot_lines = ["[shot]", "command: Wave hello.", "gold: 00000000"]
    shot_lines += [f"r{k}: No, not needed." for k in range(1, 9)]
    p = tmp_path / "t.txt"
    p.write_text(_template_text() + "\n".join(shot_lines) + "\n")
    template = load_template(p)
    assert len(template.shots) == 1
    assert template.shots[0].command == "Wave hello."


def test_template_shot_missing_key_rejected(tmp_path):
    shot_lines = ["[shot]", "command: Wave hello.", "gold: 00000000"]
    shot_lines += [f"r{k}: No, not needed." for k in range(1, 8)]  # r8 missing
    p = tmp_path / "t.txt"
    p.write_text(_template_text() + "\n".join(shot_lines) + "\n")
    with pytest.raises(TemplateError, match="missing r8"):
        load_template(p)


def test_template_shot_inconsistent_rationale_rejected(tmp_path):
    shot_lines = ["[shot]", "command: Wave hello.", "gold: 10000000"]
    shot_lines += [f"r{k}: No, not needed." for k in range(1, 9)]
    p = tmp_path / "t.txt"
    p.write_text(_template_text() + "\n".join(shot_lines) + "\n")
    with pytest.raises(TemplateError, match="gold says"):
        load_template(p)


def test_template_that_is_not_utf8_is_template_error(tmp_path):
    p = tmp_path / "t.txt"
    # the q3 text, on line 11, holds the byte 0xff
    p.write_text(_template_text(q3="Is \udcff needed?"), encoding="utf-8", errors="surrogateescape")
    with pytest.raises(TemplateError, match=re.escape(f"{p}:11: not UTF-8 text: invalid start byte 0xff")):
        load_template(p)


def test_template_missing_file(tmp_path):
    with pytest.raises(MissingFile, match="no such file"):
        load_template(tmp_path / "nope.txt")


@pytest.mark.parametrize("c", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
def test_template_prose_keeps_line_separators_a_file_line_does_not_end_at(tmp_path, c):
    # str.splitlines() would split on each of these, but reading a file by lines does not
    p = tmp_path / "t.txt"
    p.write_text(_template_text(preamble=f"Follow{c}the steps.", q2=f"Is{c}it needed?"),
                 encoding="utf-8")
    template = load_template(p)
    assert template.preamble == f"Follow{c}the steps."
    assert template.question_texts[1] == f"Is{c}it needed?"


def test_template_header_after_a_line_separator_is_prose(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(_template_text(preamble="intro\u2028[q1]\nIs requirement 1 needed?", q1=None),
                 encoding="utf-8")
    with pytest.raises(TemplateError, match="missing sections: q1$"):
        load_template(p)
