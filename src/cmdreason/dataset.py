"""Labeled command datasets: the 8 requirement categories, TSV IO, sampling.

File format (one record per line, UTF-8):

    id<TAB>text<TAB>labels

where ``labels`` is exactly 8 characters of ``0``/``1`` in category order
(perception, in-cabin monitoring, localization, vehicle control,
entertainment, personal data, network access, traffic laws).  Lines that are
blank or start with ``#`` are ignored on load.  read_masked_tsv reads this
layout for datasets and for keyword-rule files alike.
"""
from __future__ import annotations

import logging
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DataError
from .rng import SplitMix64

log = logging.getLogger(__name__)

N_QUESTIONS = 8

# Category order is load-bearing: it fixes label-string positions, prompt
# question order, and report column order.
CATEGORIES = (
    "perception",
    "in_cabin_monitoring",
    "localization",
    "vehicle_control",
    "entertainment",
    "personal_data",
    "network_access",
    "traffic_laws",
)

CATEGORY_TITLES = (
    "Perception",
    "In-cabin Monitoring",
    "Localization",
    "Vehicle Control",
    "Entertainment",
    "Personal Data",
    "Network Access",
    "Traffic Laws",
)


class MissingFile(DataError):
    """An input path does not exist."""

    def __init__(self, path: str | Path) -> None:
        super().__init__(f"no such file: {path}")
        self.path = str(path)


class MalformedRecord(DataError):
    """A dataset line violates the id/text/labels format."""

    def __init__(self, path: str | Path, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptyDataset(DataError):
    """An operation that needs at least one record got none."""


class InfeasibleSample(DataError):
    """Stratified sampling could not reach the tolerance within budget."""

    def __init__(self, n: int, tolerance: float, best_deviation: float) -> None:
        super().__init__(
            f"no size-{n} sample within tolerance {tolerance}; "
            f"best max per-question deviation reached was {best_deviation:.4f}"
        )
        self.n = n
        self.tolerance = tolerance
        self.best_deviation = best_deviation


@dataclass(frozen=True, slots=True)
class RequirementVector:
    """Answers to the 8 binary requirement questions, in category order."""

    flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.flags, tuple):
            object.__setattr__(self, "flags", tuple(self.flags))
        if len(self.flags) != N_QUESTIONS:
            raise ValueError(f"expected {N_QUESTIONS} flags, got {len(self.flags)}")
        for f in self.flags:
            if not isinstance(f, bool):
                raise ValueError(f"flags must be bool, got {f!r}")

    @classmethod
    def from_bits(cls, bits: str) -> "RequirementVector":
        """Build from an 8-character 0/1 string such as ``01001110``."""
        if len(bits) != N_QUESTIONS or any(c not in "01" for c in bits):
            raise ValueError(f"labels must be {N_QUESTIONS} chars of 0/1, got {bits!r}")
        return cls(tuple(c == "1" for c in bits))

    def bits(self) -> str:
        return "".join("1" if f else "0" for f in self.flags)

    def bracket(self) -> str:
        """Render as the answer-line form, e.g. ``[0 1 0 0 1 1 1 0]``."""
        return "[" + " ".join("1" if f else "0" for f in self.flags) + "]"

    def __iter__(self):
        return iter(self.flags)

    def __len__(self) -> int:
        return N_QUESTIONS

    def __getitem__(self, i: int) -> bool:
        return self.flags[i]


@dataclass(frozen=True, slots=True)
class LabeledCommand:
    """One natural-language vehicle command with its gold requirement vector."""

    command_id: str
    text: str
    gold: RequirementVector

    def __post_init__(self) -> None:
        if not self.command_id:
            raise ValueError("command_id must be non-empty")
        if not self.text.strip():
            raise ValueError("text must be non-empty after trimming")


@dataclass(frozen=True, slots=True)
class LabelDistribution:
    """Per-question positive rates over a dataset."""

    counts: tuple[int, ...]  # positives per question
    n: int  # records counted

    @property
    def positive_rate(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n) for c in self.counts)


# =============================================================================
# File IO
# =============================================================================


def read_masked_tsv(
    path: Path, n_fields: int, error: Callable[[Path, int, str], DataError]
) -> Iterator[tuple[int, list[str], RequirementVector]]:
    """Yield (line number, leading fields, mask) for each record of a TSV file.

    A record line has n_fields tab-separated fields, the last of them an
    8-character 0/1 mask; blank lines and ``#`` lines are skipped.  A missing
    file raises MissingFile, a bad line error(path, line_no, reason).
    """
    if not path.is_file():
        raise MissingFile(path)
    with path.open(encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != n_fields:
                raise error(
                    path, line_no, f"expected {n_fields} tab-separated fields, got {len(fields)}"
                )
            try:
                mask = RequirementVector.from_bits(fields[-1])
            except ValueError as exc:
                raise error(path, line_no, str(exc)) from exc
            yield line_no, fields[:-1], mask


def load_dataset(path: str | Path) -> list[LabeledCommand]:
    """Load a TSV dataset file; raise MalformedRecord on the first bad line."""
    path = Path(path)
    records: list[LabeledCommand] = []
    seen: set[str] = set()
    for line_no, (command_id, text), gold in read_masked_tsv(path, 3, MalformedRecord):
        if not command_id:
            raise MalformedRecord(path, line_no, "empty id")
        if command_id in seen:
            raise MalformedRecord(path, line_no, f"duplicate id {command_id!r}")
        if not text.strip():
            raise MalformedRecord(path, line_no, "empty command text")
        seen.add(command_id)
        records.append(LabeledCommand(command_id, text, gold))
    log.debug("loaded %d records from %s", len(records), path)
    return records


def save_dataset(records: Sequence[LabeledCommand], path: str | Path) -> None:
    """Write records in the same TSV format load_dataset reads."""
    path = Path(path)
    lines = []
    for rec in records:
        # tabs/newlines inside fields would corrupt the line format
        if "\t" in rec.command_id or "\n" in rec.command_id:
            raise ValueError(f"id {rec.command_id!r} contains a tab or newline")
        if "\t" in rec.text or "\n" in rec.text:
            raise ValueError(f"text for {rec.command_id!r} contains a tab or newline")
        lines.append(f"{rec.command_id}\t{rec.text}\t{rec.gold.bits()}")
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# =============================================================================
# Statistics and sampling
# =============================================================================


def distribution(records: Sequence[LabeledCommand]) -> LabelDistribution:
    """Count positives per question; raise EmptyDataset on an empty input."""
    if not records:
        raise EmptyDataset("cannot compute a distribution over zero records")
    counts = [0] * N_QUESTIONS
    for rec in records:
        for i, flag in enumerate(rec.gold.flags):
            counts[i] += flag
    return LabelDistribution(tuple(counts), len(records))


def _max_deviation(
    sample_counts: Sequence[int], n: int, full: LabelDistribution
) -> Fraction:
    return max(
        abs(Fraction(sample_counts[i], n) - Fraction(full.counts[i], full.n))
        for i in range(N_QUESTIONS)
    )


def stratified_sample(
    records: Sequence[LabeledCommand],
    n: int,
    seed: int,
    tolerance: float = 0.05,
    max_iterations: int = 10_000,
) -> list[LabeledCommand]:
    """Select n records whose per-question positive rates track the full set.

    Starts from a seeded uniform subset, then performs up to max_iterations
    randomized single-record swaps, keeping a swap only if it strictly reduces
    the maximum per-question rate deviation.  Deterministic for a given
    (records, n, seed, tolerance, max_iterations).  Returns the chosen records
    in their original dataset order.  Raises InfeasibleSample, with the best
    deviation achieved, if the tolerance is never reached.
    """
    if not 1 <= n <= len(records):
        raise ValueError(f"n must be in 1..{len(records)}, got {n}")
    full = distribution(records)
    tol = Fraction(tolerance)
    rng = SplitMix64(seed)

    # Seeded partial Fisher-Yates: the first n slots become the subset.
    indices = list(range(len(records)))
    for i in range(n):
        j = i + rng.randrange(len(indices) - i)
        indices[i], indices[j] = indices[j], indices[i]
    selected = indices[:n]
    rest = indices[n:]

    counts = [0] * N_QUESTIONS
    for idx in selected:
        for i, flag in enumerate(records[idx].gold.flags):
            counts[i] += flag
    best = _max_deviation(counts, n, full)

    for _ in range(max_iterations):
        if best <= tol:
            break
        if not rest:  # n == len(records): nothing to swap with
            break
        si = rng.randrange(n)
        ri = rng.randrange(len(rest))
        trial = list(counts)
        for i in range(N_QUESTIONS):
            trial[i] += records[rest[ri]].gold.flags[i] - records[selected[si]].gold.flags[i]
        dev = _max_deviation(trial, n, full)
        if dev < best:  # only strictly improving swaps are kept
            selected[si], rest[ri] = rest[ri], selected[si]
            counts = trial
            best = dev

    if best > tol:
        raise InfeasibleSample(n, tolerance, float(best))
    return [records[idx] for idx in sorted(selected)]
