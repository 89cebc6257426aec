"""Non-LLM reference classifiers: seeded coin flips and keyword rules.

Rules file format (TSV, ``#`` comments and blank lines ignored):

    pattern<TAB>mask

where ``mask`` is 8 characters of 0/1.  Every rule whose pattern occurs
case-insensitively in the command ORs its mask into the result.  A line whose
pattern field is the literal word ``default`` sets the starting vector
instead (all zeros if absent).
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .dataset import N_QUESTIONS, LabeledCommand, RequirementVector, read_masked_tsv
from .errors import DataError
from .rng import SplitMix64

ALL_NO = RequirementVector((False,) * N_QUESTIONS)


class MalformedRule(DataError):
    """A rules file line violates the pattern/mask format."""

    def __init__(self, path: str | Path, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


@dataclass(frozen=True, slots=True)
class Rule:
    pattern: str  # non-empty; matched case-insensitively as a substring
    sets: RequirementVector  # flags forced to Yes on a match

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("rule pattern must be non-empty")


@dataclass(frozen=True, slots=True)
class RuleSet:
    rules: tuple[Rule, ...]
    default: RequirementVector = field(default=ALL_NO)


def rule_classify(ruleset: RuleSet, command: str) -> RequirementVector:
    """OR the masks of all matching rules into the default vector."""
    flags = list(ruleset.default.flags)
    lowered = command.lower()
    for rule in ruleset.rules:
        if rule.pattern.lower() in lowered:
            flags = [a or b for a, b in zip(flags, rule.sets.flags)]
    return RequirementVector(tuple(flags))


def random_classify(seed: int, commands: Sequence[LabeledCommand]) -> list[RequirementVector]:
    """One fair coin flip per question per command, in dataset order.

    Flips are consumed strictly left to right from a single SplitMix64 stream,
    so a given (seed, dataset length) always yields the same predictions.
    """
    rng = SplitMix64(seed)
    return [
        RequirementVector(tuple(rng.next_bit() for _ in range(N_QUESTIONS)))
        for _ in commands
    ]


def load_rules(path: str | Path) -> RuleSet:
    """Load a TSV rules file; raise MalformedRule on the first bad line."""
    path = Path(path)
    rules: list[Rule] = []
    default = ALL_NO
    saw_default = False
    for line_no, (pattern,), mask in read_masked_tsv(path, 2, MalformedRule):
        if pattern == "default":
            if saw_default:
                raise MalformedRule(path, line_no, "duplicate default line")
            default = mask
            saw_default = True
        elif pattern:
            rules.append(Rule(pattern, mask))
        else:
            raise MalformedRule(path, line_no, "empty pattern")
    return RuleSet(tuple(rules), default)


def example_rules_path() -> Path:
    """Path of the keyword rules shipped with the package."""
    return Path(resources.files("cmdreason").joinpath("data/example_rules.tsv"))


def example_rules() -> RuleSet:
    return load_rules(example_rules_path())
