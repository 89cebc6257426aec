"""Prompt construction: conditioning text, worked examples, the transcript prefix.

The system message always opens with a preamble and closes with the output
format instruction.  What sits between depends on the explanation mode:

* ``none``      - nothing; the model is asked only for the bracket vector.
* ``paragraph`` - the 8 question texts joined into one flowing block.
* ``stepwise``  - the 8 question texts as explicit ``Step k:`` lines.

Worked examples (shots) are appended as alternating user/assistant message
pairs whose assistant side rehearses the exact answer-line format the parser
expects, ending with ``Therefore, the output should be : [b1 ... b8]``.
"""
from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any

from .dataset import N_QUESTIONS, RequirementVector, read_lines
from .errors import DataError, UsageError

# This exact token pattern must appear in every system message; the shots and
# the real responses replace A1..A8 with 0/1.
OUTPUT_PATTERN = "[A1 A2 A3 A4 A5 A6 A7 A8]"

ANSWER_LINE_PREFIX = "Therefore, the output should be :"


class ExplanationMode(str, Enum):
    """How the system message explains the questions; the members' order is the grids' order."""

    NONE = "none"
    PARAGRAPH = "paragraph"
    STEPWISE = "stepwise"


class TemplateError(DataError):
    """A template file is missing sections or otherwise malformed."""


@dataclass(frozen=True, slots=True)
class ShotExample:
    """One worked example: a command, its gold vector, one rationale per step."""

    command: str
    gold: RequirementVector
    step_rationales: tuple[str, ...]  # exactly 8; rationale k opens Yes/No per gold[k]

    def __post_init__(self) -> None:
        if not self.command.strip():
            raise ValueError("shot command must be non-empty")
        if len(self.step_rationales) != N_QUESTIONS:
            raise ValueError(
                f"expected {N_QUESTIONS} rationales, got {len(self.step_rationales)}"
            )
        for k, (rationale, flag) in enumerate(zip(self.step_rationales, self.gold), start=1):
            word = rationale.strip().split(None, 1)[0].rstrip(",.;:!").lower() if rationale.strip() else ""
            if word not in ("yes", "no"):
                raise ValueError(f"rationale {k} must start with Yes or No: {rationale!r}")
            if (word == "yes") != flag:
                raise ValueError(
                    f"rationale {k} starts with {word!r} but gold says {flag}"
                )


@dataclass(frozen=True, slots=True)
class PromptConfig:
    """Everything needed to turn one command into a transcript."""

    mode: ExplanationMode
    shots: tuple[ShotExample, ...]
    question_texts: tuple[str, ...]  # exactly 8, non-empty
    preamble: str
    format_instruction: str  # must contain OUTPUT_PATTERN exactly once

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ExplanationMode):  # rendering tells modes apart by `is`
            raise ValueError(f"mode must be an ExplanationMode, got {self.mode!r}")
        if len(self.question_texts) != N_QUESTIONS:
            raise ValueError(f"expected {N_QUESTIONS} question texts")
        if any(not q.strip() for q in self.question_texts):
            raise ValueError("question texts must be non-empty")
        if not self.preamble.strip():
            raise ValueError("preamble must be non-empty")
        if self.format_instruction.count(OUTPUT_PATTERN) != 1:
            raise ValueError(
                f"format instruction must contain {OUTPUT_PATTERN!r} exactly once"
            )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode.value,
            "preamble": self.preamble,
            "question_texts": list(self.question_texts),
            "format_instruction": self.format_instruction,
            "shots": [
                {
                    "command": s.command,
                    "gold": s.gold.bits(),
                    "rationales": list(s.step_rationales),
                }
                for s in self.shots
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "PromptConfig":
        return cls(
            mode=ExplanationMode(data["mode"]),
            shots=tuple(
                ShotExample(
                    s["command"],
                    RequirementVector.from_bits(s["gold"]),
                    tuple(s["rationales"]),
                )
                for s in data["shots"]
            ),
            question_texts=tuple(data["question_texts"]),
            preamble=data["preamble"],
            format_instruction=data["format_instruction"],
        )

    def config(self, mode: ExplanationMode, shot_count: int) -> "PromptConfig":
        """This config's prose in the given mode, with the first shot_count of its shots."""
        if isinstance(shot_count, bool) or not isinstance(shot_count, int) or not (
            0 <= shot_count <= len(self.shots)
        ):
            raise UsageError(
                f"template provides {len(self.shots)} shots, cannot take {shot_count!r}"
            )
        return dataclasses.replace(self, mode=mode, shots=self.shots[:shot_count])


# =============================================================================
# Rendering
# =============================================================================


def build_system_prompt(config: PromptConfig) -> str:
    """Render the system message for the configured explanation mode."""
    parts = [config.preamble]
    if config.mode is ExplanationMode.STEPWISE:
        parts.extend(
            f"Step {k}: {q}" for k, q in enumerate(config.question_texts, start=1)
        )
    elif config.mode is ExplanationMode.PARAGRAPH:
        parts.append(" ".join(config.question_texts))
    parts.append(config.format_instruction)
    return "\n\n".join(parts)


def render_shot(shot: ShotExample, mode: ExplanationMode) -> tuple[str, str]:
    """Return the (user, assistant) message contents for one worked example.

    The assistant side ends with the exact answer line, and carries
    ``Step k:`` markers on its rationales only in stepwise mode.
    """
    lines = ["Explanation:"]
    for k, rationale in enumerate(shot.step_rationales, start=1):
        if mode is ExplanationMode.STEPWISE:
            lines.append(f"Step {k}: {rationale}")
        else:
            lines.append(rationale)
    lines.append(f"{ANSWER_LINE_PREFIX} {shot.gold.bracket()}")
    return shot.command, "\n".join(lines)


def transcript_prefix(config: PromptConfig) -> list[dict[str, str]]:
    """The messages before the command: the system message, then a user/assistant pair per shot.

    That is 1 + 2 * len(config.shots) {"role", "content"} dicts.  A request
    of the config sends them, then the command as the final user message.
    """
    messages = [{"role": "system", "content": build_system_prompt(config)}]
    for shot in config.shots:
        shot_user, shot_assistant = render_shot(shot, config.mode)
        messages.append({"role": "user", "content": shot_user})
        messages.append({"role": "assistant", "content": shot_assistant})
    return messages


# =============================================================================
# Template files
# =============================================================================

_PROSE_SECTIONS = ("preamble",) + tuple(f"q{k}" for k in range(1, 9)) + ("format_instruction",)
_SECTION_RE = re.compile(r"^\[([a-z0-9_]+)\]\s*$")
_SHOT_KEYS = ("command", "gold") + tuple(f"r{k}" for k in range(1, 9))


def _parse_shot(path: Path, start_line: int, lines: list[str]) -> ShotExample:
    fields: dict[str, str] = {}
    for offset, line in enumerate(lines):
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in _SHOT_KEYS:
            raise TemplateError(
                f"{path}:{start_line + offset}: expected 'key: value' with key in "
                f"{'/'.join(_SHOT_KEYS)}, got {line!r}"
            )
        if key in fields:
            raise TemplateError(f"{path}:{start_line + offset}: duplicate key {key!r}")
        fields[key] = value.strip()
    missing = [k for k in _SHOT_KEYS if k not in fields]
    if missing:
        raise TemplateError(f"{path}:{start_line}: shot is missing {', '.join(missing)}")
    try:
        return ShotExample(
            command=fields["command"],
            gold=RequirementVector.from_bits(fields["gold"]),
            step_rationales=tuple(fields[f"r{k}"] for k in range(1, 9)),
        )
    except ValueError as exc:
        raise TemplateError(f"{path}:{start_line}: {exc}") from exc


def load_template(path: str | Path) -> PromptConfig:
    """Parse a template file into a stepwise PromptConfig holding all its shots.

    The file is a series of ``[section]`` headers.  Prose sections (preamble,
    q1..q8, format_instruction) take free text up to the next header; each
    ``[shot]`` section takes ``key: value`` lines (command, gold, r1..r8).
    Lines before the first header must be blank or ``#`` comments.  A missing file is
    MissingFile; one that is not UTF-8 or breaks a PromptConfig rule, TemplateError.
    """
    path = Path(path)
    prose: dict[str, str] = {}
    shots: list[ShotExample] = []
    current: str | None = None
    body: list[str] = []
    body_start = 0

    def close_section() -> None:
        if current is None:
            return
        if current == "shot":
            shots.append(_parse_shot(path, body_start, body))
        else:
            text = "\n".join(body).strip()
            if not text:
                raise TemplateError(f"{path}:{body_start}: section [{current}] is empty")
            prose[current] = text

    lines = read_lines(path, lambda p, line_no, reason: TemplateError(f"{p}:{line_no}: {reason}"))
    for line_no, line in enumerate(lines, start=1):
        header = _SECTION_RE.match(line)
        if header:
            close_section()
            name = header.group(1)
            if name != "shot" and name not in _PROSE_SECTIONS:
                raise TemplateError(f"{path}:{line_no}: unknown section [{name}]")
            if name in prose:
                raise TemplateError(f"{path}:{line_no}: duplicate section [{name}]")
            current = name
            body = []
            body_start = line_no + 1
        elif current is None:
            if line.strip() and not line.lstrip().startswith("#"):
                raise TemplateError(f"{path}:{line_no}: text before first section header")
        else:
            body.append(line)
    close_section()

    missing = [s for s in _PROSE_SECTIONS if s not in prose]
    if missing:
        raise TemplateError(f"{path}: missing sections: {', '.join(missing)}")
    try:
        return PromptConfig(
            mode=ExplanationMode.STEPWISE,
            shots=tuple(shots),
            question_texts=tuple(prose[f"q{k}"] for k in range(1, 9)),
            preamble=prose["preamble"],
            format_instruction=prose["format_instruction"],
        )
    except ValueError as exc:
        raise TemplateError(f"{path}: {exc}") from exc


def default_template_path() -> Path:
    """Path of the template shipped with the package."""
    return Path(resources.files("cmdreason").joinpath("data/default_template.txt"))


def default_template() -> PromptConfig:
    return load_template(default_template_path())
