"""Labeled command datasets: the 8 requirement categories, TSV IO, sampling.

File format (one record per line, UTF-8):

    id<TAB>text<TAB>labels

where ``labels`` is exactly 8 characters of ``0``/``1`` in category order
(perception, in-cabin monitoring, localization, vehicle control,
entertainment, personal data, network access, traffic laws).  Lines that are
blank or start with ``#`` are ignored on load.  read_masked_tsv reads this
layout for datasets and for keyword-rule files alike.  A labels string loads
as a RequirementVector: a tuple of 8 bools, equal to the plain tuple of them.
"""
from __future__ import annotations

import io
import logging
import math
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DataError
from .rng import SplitMix64

log = logging.getLogger(__name__)

N_QUESTIONS = 8
SAMPLE_MAX_SWAPS = 10_000  # swaps stratified_sample tries before giving up

# Category order is load-bearing: it fixes label-string positions, prompt
# question order, and report column order.
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


class UnwritableOutput(DataError):
    """An output file could not be written."""


class MissingFile(DataError):
    """An input path does not exist."""

    def __init__(self, path: str | Path) -> None:
        super().__init__(f"no such file: {path}")
        self.path = str(path)


class MalformedRecord(DataError):
    """A line of an input file (a dataset or rules TSV, records.jsonl) breaks its format."""

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


class RequirementVector(tuple):
    """Answers to the 8 binary requirement questions, in category order: a tuple of 8 bools.

    There are only 256 of them, built once at import into VECTORS_BY_BITS:
    from_bits() returns the table's vector and bits() reads its string back,
    so reading an answer builds nothing.  RequirementVector(flags) still
    checks its flags and builds a new, equal vector.
    """

    __slots__ = ()

    def __new__(cls, flags: Iterable[bool]) -> "RequirementVector":
        self = super().__new__(cls, flags)
        if len(self) != N_QUESTIONS:
            raise ValueError(f"expected {N_QUESTIONS} flags, got {len(self)}")
        for f in self:
            if not isinstance(f, bool):
                raise ValueError(f"flags must be bool, got {f!r}")
        return self

    @classmethod
    def from_bits(cls, bits: str) -> "RequirementVector":
        """The vector of an 8-character 0/1 string such as ``01001110``, from the table."""
        try:
            return VECTORS_BY_BITS[bits]
        except (KeyError, TypeError):  # TypeError: an unhashable input
            raise ValueError(f"labels must be {N_QUESTIONS} chars of 0/1, got {bits!r}") from None

    def bits(self) -> str:
        return _BITS_OF_VECTOR[self]

    def bracket(self) -> str:
        """Render as the answer-line form, e.g. ``[0 1 0 0 1 1 1 0]``."""
        return "[" + " ".join(self.bits()) + "]"


# Every vector by its bit string, and back.
VECTORS_BY_BITS: dict[str, RequirementVector] = {
    bits: RequirementVector(c == "1" for c in bits)
    for bits in (f"{n:0{N_QUESTIONS}b}" for n in range(2**N_QUESTIONS))
}
_BITS_OF_VECTOR: dict[RequirementVector, str] = {v: b for b, v in VECTORS_BY_BITS.items()}


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


# =============================================================================
# File IO
# =============================================================================


def read_text(path: Path, error: Callable[[Path, int, str], DataError]) -> str:
    """The file's text; MissingFile if there is none, error(path, line_no, reason) if not UTF-8.

    A path that exists but is not a regular file, such as a directory, is a DataError.
    """
    if not path.is_file():
        raise MissingFile(path) if not path.exists() else DataError(f"not a file: {path}")
    try:
        data = path.read_bytes()
    except OSError as exc:  # EACCES, EIO: a data error, as write_text's OSError is
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # line_no counts lines as open() splits them
        head = data[:exc.start + 1].decode("utf-8", "replace")  # the text through the bad byte
        line_no = len(io.StringIO(head, newline=None).readlines())
        raise error(path, line_no, f"not UTF-8 text: {exc.reason} {data[exc.start]:#04x}") from None


def read_lines(path: Path, error: Callable[[Path, int, str], DataError]) -> Iterator[str]:
    r"""read_text's lines without their ends; a line ends at \n, \r\n or a lone \r, as in open()."""
    return (line.rstrip("\n") for line in io.StringIO(read_text(path, error), newline=None))


def read_masked_tsv(
    path: Path, n_fields: int, error: Callable[[Path, int, str], DataError]
) -> Iterator[tuple[int, list[str], RequirementVector]]:
    """Yield (line number, leading fields, mask) for each record of a TSV file.

    A record line has n_fields tab-separated fields, the last of them an
    8-character 0/1 mask; blank lines and ``#`` lines are skipped.  A missing
    file raises MissingFile, a bad line (one that is not UTF-8 included)
    error(path, line_no, reason).
    """
    for line_no, line in enumerate(read_lines(path, error), start=1):
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
        if command_id in seen:
            raise MalformedRecord(path, line_no, f"duplicate id {command_id!r}")
        try:
            records.append(LabeledCommand(command_id, text, gold))
        except ValueError as exc:
            raise MalformedRecord(path, line_no, str(exc)) from exc
        seen.add(command_id)
    log.debug("loaded %d records from %s", len(records), path)
    return records


def save_dataset(records: Sequence[LabeledCommand], path: str | Path) -> None:
    """Write records, through write_text, in the same TSV format load_dataset reads."""
    path = Path(path)
    lines: dict[str, str] = {}  # by id
    for rec in records:
        # a tab or a line break ("\r" too, for load_dataset) inside a field would split its line
        if any(c in rec.command_id for c in "\t\n\r"):
            raise ValueError(f"id {rec.command_id!r} contains a tab or line break")
        if any(c in rec.text for c in "\t\n\r"):
            raise ValueError(f"text for {rec.command_id!r} contains a tab or line break")
        try:  # a lone surrogate has no UTF-8 encoding, so the file could not hold it
            (rec.command_id + rec.text).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"id or text of {rec.command_id!r} holds a lone surrogate") from None
        # load_dataset skips a line that starts with "#", and refuses an id it has read before
        if rec.command_id.startswith("#") or rec.command_id in lines:
            raise ValueError(f"id {rec.command_id!r} starts with '#' or is not unique")
        lines[rec.command_id] = f"{rec.command_id}\t{rec.text}\t{rec.gold.bits()}"
    write_text(path, "".join(line + "\n" for line in lines.values()))


def write_text(path: Path, text: str) -> None:
    """Replace path's content with text, all at once; an OSError is raised as UnwritableOutput.

    The text goes to a temp file beside path, which os.replace then moves
    over it.  A crash or failed write mid-way leaves the old file whole and
    no temp file behind, and concurrent writers of one path each leave a
    whole file.
    """
    tmp = path.with_name(f".tmp-{os.urandom(8).hex()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc}") from exc


# =============================================================================
# Statistics and sampling
# =============================================================================


def distribution(records: Sequence[LabeledCommand]) -> tuple[Fraction, ...]:
    """Each question's positive rate; raise EmptyDataset on an empty input."""
    if not records:
        raise EmptyDataset("cannot compute a distribution over zero records")
    return tuple(Fraction(sum(flags), len(records)) for flags in zip(*(r.gold for r in records)))


def _max_deviation(counts: Sequence[int], n: int, full: tuple[Fraction, ...]) -> Fraction:
    return max(abs(Fraction(c, n) - rate) for c, rate in zip(counts, full))


def stratified_sample(
    records: Sequence[LabeledCommand],
    n: int,
    seed: int,
    tolerance: float = 0.05,
) -> list[LabeledCommand]:
    """Select n records whose per-question positive rates track the full set.

    Starts from a seeded uniform subset, then performs up to SAMPLE_MAX_SWAPS
    randomized single-record swaps, keeping a swap only if it strictly reduces
    the maximum per-question rate deviation.  Deterministic for a given
    (records, n, seed, tolerance).  Returns the chosen records
    in their original dataset order.  Raises InfeasibleSample, with the best
    deviation achieved, if the tolerance is never reached, and ValueError
    unless the tolerance is finite and >= 0.
    """
    if not 1 <= n <= len(records):
        raise ValueError(f"n must be in 1..{len(records)}, got {n}")
    if not 0 <= tolerance < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
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

    counts = tuple(map(sum, zip(*(records[idx].gold for idx in selected))))
    best = _max_deviation(counts, n, full)

    for _ in range(SAMPLE_MAX_SWAPS):
        if best <= tol:
            break
        if not rest:  # n == len(records): nothing to swap with
            break
        si = rng.randrange(n)
        ri = rng.randrange(len(rest))
        incoming, outgoing = records[rest[ri]].gold, records[selected[si]].gold
        trial = tuple(c + a - b for c, a, b in zip(counts, incoming, outgoing))
        dev = _max_deviation(trial, n, full)
        if dev < best:  # only strictly improving swaps are kept
            selected[si], rest[ri] = rest[ri], selected[si]
            counts = trial
            best = dev

    if best > tol:
        raise InfeasibleSample(n, tolerance, float(best))
    return [records[idx] for idx in sorted(selected)]
