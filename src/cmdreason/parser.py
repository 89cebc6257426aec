"""Parse model responses into requirement vectors.

Stage 1 (``bracket``): scan the whole response for bracket groups.  A group
qualifies if, after splitting its interior on whitespace/commas, it holds
exactly 8 tokens that are all ``0`` or ``1``; one regex matches exactly the
qualifying groups.  The LAST qualifying group wins, because models that
restate the format instruction or think out loud tend to put the real answer
at the end.

Stage 2 (``step_fallback``): if no bracket group qualifies, look for lines of
the form ``Step k: ...`` (case-insensitive, tolerating leading quote/list
markup) and read a Yes/No off the front of each remainder.  All 8 steps must
appear exactly once with a readable Yes/No.

Anything else is a parse failure with one of four reasons:
``no_bracket_no_steps``, ``missing_step(k)``, ``duplicate_step``,
``ambiguous_step(k)`` - checked per step in ascending k.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .dataset import N_QUESTIONS, VECTORS_BY_BITS, RequirementVector

METHOD_BRACKET = "bracket"
METHOD_STEP_FALLBACK = "step_fallback"

# "[", then 8 tokens of 0 or 1 with whitespace/commas between and around them, then "]"
_BRACKET_RE = re.compile(
    r"\[[\s,]*([01])" + r"[\s,]+([01])" * (N_QUESTIONS - 1) + r"[\s,]*\]"
)
# A step line: leading markup (whitespace, quotes, list markers), "Step k:",
# then the Yes/No, which may be wrapped in light punctuation but must be the
# first word; group 2 is None when it is not there.
_STEP_LINE_RE = re.compile(
    r"""[\s"'*\-]*step\s*(\d+)\s*:[\s"'*\-:.,()\[\]]*(?:(yes|no)\b)?""", re.IGNORECASE
)


class ParseOutcome(NamedTuple):
    """A PredictionRecord's parse fields: a vector and its method, or a failure reason."""

    vector: RequirementVector | None
    method: str | None  # METHOD_BRACKET or METHOD_STEP_FALLBACK
    failure_reason: str | None


def _find_bracket_vector(text: str) -> RequirementVector | None:
    groups = _BRACKET_RE.findall(text)
    return VECTORS_BY_BITS["".join(groups[-1])] if groups else None


def _step_fallback(text: str) -> ParseOutcome:
    # answers[k] collects every Step-k line's answer: "1" for Yes, "0" for
    # No, None for a line with neither.  The regex admits only spellings of
    # yes and no, so the first letter tells them apart.
    answers: dict[int, list[str | None]] = {}
    for line in text.splitlines():
        match = _STEP_LINE_RE.match(line)
        if not match:
            continue
        try:
            k = int(match.group(1))
        except ValueError:  # more digits than int() converts: out of range too
            continue
        if not 1 <= k <= N_QUESTIONS:
            continue
        word = match.group(2)
        answers.setdefault(k, []).append(("1" if word[0] in "yY" else "0") if word else None)
    if not answers:
        return ParseOutcome(None, None, "no_bracket_no_steps")
    bits: list[str] = []
    for k in range(1, N_QUESTIONS + 1):
        found = answers.get(k)
        if found is None:
            return ParseOutcome(None, None, f"missing_step({k})")
        if len(found) > 1:
            return ParseOutcome(None, None, "duplicate_step")
        if found[0] is None:
            return ParseOutcome(None, None, f"ambiguous_step({k})")
        bits.append(found[0])
    return ParseOutcome(VECTORS_BY_BITS["".join(bits)], METHOD_STEP_FALLBACK, None)


def parse_response(text: str) -> ParseOutcome:
    """Parse a raw model response; never raises on bad input."""
    vector = _find_bracket_vector(text)
    if vector is not None:
        return ParseOutcome(vector, METHOD_BRACKET, None)
    return _step_fallback(text)
