from __future__ import annotations

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_shot, sent_in_a_run
from cmdreason.chat import ChatMessage
from cmdreason.dataset import RequirementVector
from cmdreason.errors import UsageError
from cmdreason.prompt import (
    ANSWER_LINE_PREFIX,
    MODE_ORDER,
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
    for mode in MODE_ORDER:
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
    for mode in MODE_ORDER:
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
    roles = [m.role for m in sent_in_a_run(config, ["Honk twice."], tmp_path)[0]]
    assert roles[0] == "system"
    assert roles[-1] == "user"
    assert roles[1:-1] == ["user", "assistant"] * len(config.shots)


def test_final_message_is_command_verbatim(config, tmp_path):
    command = "  Honk twice, please. "
    (transcript,) = sent_in_a_run(config, [command], tmp_path)
    assert transcript == transcript_prefix(config) + (ChatMessage("user", command),)


@settings(max_examples=50, deadline=None)
@given(
    st.text(st.characters(blacklist_characters="\t\n\r"), min_size=1).filter(str.strip),
    st.integers(0, 4),
)
def test_message_count_law_property(command, shots):
    config = default_template().config(ExplanationMode.PARAGRAPH, shots)
    with tempfile.TemporaryDirectory() as directory:
        (transcript,) = sent_in_a_run(config, [command], Path(directory))
    assert len(transcript) == 2 + 2 * shots
    assert transcript[-1].content == command


# =============================================================================
# PromptConfig serialization
# =============================================================================


def test_config_json_round_trip(template):
    config = template.config(ExplanationMode.PARAGRAPH, 3)
    assert PromptConfig.from_json_dict(config.to_json_dict()) == config


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


def _template_text(**overrides) -> str:
    sections = {"preamble": "Follow the steps."}
    for k in range(1, 9):
        sections[f"q{k}"] = f"Is requirement {k} needed?"
    sections["format_instruction"] = (
        "Output is [A1 A2 A3 A4 A5 A6 A7 A8]. Replace A1-A8 with 1 for 'Yes' and 0 for 'No'."
    )
    sections.update(overrides)
    return "\n".join(f"[{name}]\n{text}\n" for name, text in sections.items() if text is not None)


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


def test_template_missing_file(tmp_path):
    with pytest.raises(TemplateError, match="no such file"):
        load_template(tmp_path / "nope.txt")
