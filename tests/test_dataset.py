from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmdreason.dataset import (
    CATEGORY_TITLES,
    EmptyDataset,
    InfeasibleSample,
    LabeledCommand,
    MalformedRecord,
    MissingFile,
    RequirementVector,
    distribution,
    load_dataset,
    save_dataset,
    stratified_sample,
)

bits_strategy = st.text(alphabet="01", min_size=8, max_size=8)


# =============================================================================
# RequirementVector
# =============================================================================


def test_vector_rejects_wrong_length():
    with pytest.raises(ValueError):
        RequirementVector((True,) * 7)


def test_vector_rejects_non_bool():
    with pytest.raises(ValueError):
        RequirementVector((1, 0, 1, 0, 1, 0, 1, 0))


def test_vector_accepts_list_and_freezes_to_tuple():
    vec = RequirementVector([True] + [False] * 7)
    assert vec == (True,) + (False,) * 7


def test_vector_is_a_tuple_of_its_flags():
    vec = RequirementVector.from_bits("01001110")
    assert isinstance(vec, tuple)
    assert vec == (False, True, False, False, True, True, True, False)
    assert hash(vec) == hash(tuple(vec))


@pytest.mark.parametrize(
    "copy_of", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_vector_pickle_and_deepcopy_keep_the_type(copy_of):
    vec = RequirementVector.from_bits("01001110")
    twin = copy_of(vec)
    assert type(twin) is RequirementVector
    assert twin == vec
    assert twin.bits() == "01001110"


@pytest.mark.parametrize("flags", [(True,) * 7, (1, 0, 1, 0, 1, 0, 1, 0)], ids=["7-flags", "ints"])
def test_vector_checks_a_generator_too(flags):
    with pytest.raises(ValueError):
        RequirementVector(f for f in flags)


@given(bits_strategy)
def test_bits_round_trip(bits):
    assert RequirementVector.from_bits(bits).bits() == bits


def test_from_bits_rejects_bad_strings():
    for bad in ("0100111", "010011101", "0100112a", "01 01 01", list("01001110"), b"01001110"):
        with pytest.raises(ValueError):
            RequirementVector.from_bits(bad)


def test_all_256_vectors_round_trip_through_bits_and_bracket():
    for n in range(256):
        bits = f"{n:08b}"
        vec = RequirementVector.from_bits(bits)
        assert vec == tuple(c == "1" for c in bits)
        assert vec.bits() == bits
        assert vec.bracket() == "[" + " ".join(bits) + "]"
        # one vector per string: from_bits hands out the table's, every time
        assert RequirementVector.from_bits(vec.bits()) is vec
        # a vector built from its flags is equal to the table's and reads the same
        built = RequirementVector(tuple(vec))
        assert built == vec and built.bits() == bits and built.bracket() == vec.bracket()


@pytest.mark.parametrize(
    "bad",
    ["0100111", "010011101", "01201110", "\uff10\uff11\uff10\uff10\uff11\uff11\uff11\uff10",
     b"01001110", 1, None, ["0"] * 8],
)
def test_from_bits_error_message_names_the_input(bad):
    # a list is unhashable: it must still be a ValueError, not a TypeError
    with pytest.raises(ValueError) as err:
        RequirementVector.from_bits(bad)
    assert type(err.value) is ValueError
    assert str(err.value) == f"labels must be 8 chars of 0/1, got {bad!r}"


def test_bracket_rendering():
    assert RequirementVector.from_bits("01001110").bracket() == "[0 1 0 0 1 1 1 0]"


def test_category_count_matches_vector_width():
    assert len(CATEGORY_TITLES) == len(RequirementVector.from_bits("00000000"))


# =============================================================================
# Load / save
# =============================================================================


def test_load_toy_dataset(toy_path):
    data = load_dataset(toy_path)
    assert len(data) == 24
    assert data[0].command_id == "c01"
    assert data[0].text == "Call my friend Carol."
    assert data[0].gold.bits() == "01001110"


def test_load_skips_comments_and_blank_lines(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("# header\n\nx1\tDo a thing.\t10000000\n\n# trailing\n")
    data = load_dataset(p)
    assert [rec.command_id for rec in data] == ["x1"]


def test_load_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        load_dataset(tmp_path / "nope.tsv")


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("x1\tonly two fields", "expected 3"),
        ("x1\ta\tb\tc", "expected 3"),
        ("\tDo a thing.\t10000000", "command_id must be non-empty"),
        ("x1\t   \t10000000", "text must be non-empty after trimming"),
        ("x1\tDo a thing.\t1000000", "8 chars"),
        ("x1\tDo a thing.\t1000000x", "8 chars"),
        ("x1\tDo a \udcff thing.\t10000000", "not UTF-8 text"),  # written as the byte 0xff
    ],
)
def test_load_rejects_malformed_lines(tmp_path, line, fragment):
    p = tmp_path / "d.tsv"
    p.write_text(line + "\n", encoding="utf-8", errors="surrogateescape")
    with pytest.raises(MalformedRecord) as err:
        load_dataset(p)
    assert str(err.value) == f"{p}:1: {err.value.reason}"
    assert fragment in err.value.reason
    assert err.value.line_no == 1


def test_load_rejects_duplicate_ids(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text("x1\tFirst.\t10000000\nx1\tSecond.\t01000000\n")
    with pytest.raises(MalformedRecord) as err:
        load_dataset(p)
    assert err.value.line_no == 2


def test_save_load_round_trip(toy_data, tmp_path):
    p = tmp_path / "copy.tsv"
    save_dataset(toy_data, p)
    assert load_dataset(p) == toy_data


def test_save_round_trip_is_byte_stable(toy_data, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_dataset(toy_data, a)
    save_dataset(load_dataset(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_save_rejects_tabs_in_text(tmp_path):
    rec = LabeledCommand("x1", "has\ttab", RequirementVector.from_bits("10000000"))
    with pytest.raises(ValueError):
        save_dataset([rec], tmp_path / "d.tsv")


@pytest.mark.parametrize("breaker", ["\t", "\n", "\r", "\r\n"])
@pytest.mark.parametrize("field", ["id", "text"])
def test_save_rejects_a_field_that_load_would_split(tmp_path, field, breaker):
    # load_dataset opens files with universal newlines, so a lone "\r" ends a line too
    command_id, text = ("x" + breaker + "1", "Open.") if field == "id" else ("x1", f"Open{breaker}it.")
    records = [LabeledCommand(command_id, text, RequirementVector.from_bits("10000000"))]
    with pytest.raises(ValueError):
        save_dataset(records, tmp_path / "d.tsv")
    assert not (tmp_path / "d.tsv").exists()


def test_line_separators_that_load_does_not_split_on_round_trip(tmp_path):
    # str.splitlines() would split on each of these, but reading a file by lines does not
    texts = [f"Open{c}it." for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]
    records = [
        LabeledCommand(f"x{i}", text, RequirementVector.from_bits("10000000"))
        for i, text in enumerate(texts)
    ]
    save_dataset(records, tmp_path / "d.tsv")
    assert load_dataset(tmp_path / "d.tsv") == records


@pytest.mark.parametrize("field", ["id", "text"])
def test_save_rejects_a_lone_surrogate_and_names_its_record(tmp_path, field):
    command_id, text = ("x\ud800", "Open.") if field == "id" else ("x1", "Open \udfff.")
    records = [
        LabeledCommand("x0", "Close.", RequirementVector.from_bits("00000000")),
        LabeledCommand(command_id, text, RequirementVector.from_bits("10000000")),
    ]
    with pytest.raises(ValueError, match="lone surrogate") as err:
        save_dataset(records, tmp_path / "d.tsv")
    assert type(err.value) is ValueError
    assert repr(command_id) in str(err.value)
    assert not (tmp_path / "d.tsv").exists()


@pytest.mark.parametrize("text", ["", "   ", "\t\n"])
def test_labeled_command_rejects_blank_text(text):
    with pytest.raises(ValueError, match="text must be non-empty"):
        LabeledCommand("x1", text, RequirementVector.from_bits("10000000"))


@pytest.mark.parametrize("ids", [["#c1", "c2"], ["c1", "c1"]], ids=["comment", "twice"])
def test_save_rejects_an_id_that_load_would_skip_or_refuse(tmp_path, ids):
    records = [LabeledCommand(i, "Open it.", RequirementVector.from_bits("10000000")) for i in ids]
    with pytest.raises(ValueError, match="starts with '#' or is not unique"):
        save_dataset(records, tmp_path / "d.tsv")
    assert not (tmp_path / "d.tsv").exists()


# ids and texts drawn often from the characters that the TSV format gives a meaning to
tsv_characters = st.sampled_from("#c1 \t\n\r\x0b\x85\u2028é🚗") | st.characters()
field_strategy = st.text(tsv_characters, min_size=1)
rows_strategy = st.lists(
    st.tuples(field_strategy, field_strategy.filter(str.strip), bits_strategy), max_size=4
)


@settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(rows_strategy)
def test_save_then_load_gives_the_records_back_or_save_refuses(tmp_path, rows):
    records = [
        LabeledCommand(command_id, text, RequirementVector.from_bits(bits))
        for command_id, text, bits in rows
    ]
    try:
        save_dataset(records, tmp_path / "d.tsv")
    except ValueError:
        return
    assert load_dataset(tmp_path / "d.tsv") == records


# =============================================================================
# Distribution
# =============================================================================


def test_distribution_hand_counted_on_toy(toy_data):
    # counted by hand off the toy file, column by column
    counts = (11, 12, 6, 12, 5, 6, 8, 6)
    assert distribution(toy_data) == tuple(Fraction(c, 24) for c in counts)
    assert distribution(toy_data)[1] == Fraction(1, 2)


def test_distribution_rejects_empty():
    with pytest.raises(EmptyDataset):
        distribution([])


# =============================================================================
# Stratified sampling
# =============================================================================


def _synthetic(n: int, rates: list[float], seed: int = 123) -> list[LabeledCommand]:
    """n records whose column positive counts are exactly round(rate * n)."""
    from cmdreason.rng import SplitMix64

    rng = SplitMix64(seed)
    columns = []
    for rate in rates:
        ones = round(rate * n)
        column = [True] * ones + [False] * (n - ones)
        for i in range(n - 1, 0, -1):  # seeded shuffle
            j = rng.randrange(i + 1)
            column[i], column[j] = column[j], column[i]
        columns.append(column)
    return [
        LabeledCommand(
            f"s{i:04d}", f"synthetic command {i}", RequirementVector(tuple(col[i] for col in columns))
        )
        for i in range(n)
    ]


def test_sample_recount_oracle():
    data = _synthetic(400, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
    sample = stratified_sample(data, 100, seed=5, tolerance=0.05)
    assert len(sample) == 100
    full = distribution(data)
    sub = distribution(sample)
    for i in range(8):  # recount from scratch, compare as exact fractions
        deviation = abs(sub[i] - full[i])
        assert deviation <= Fraction(1, 20)


def test_sample_is_deterministic_per_seed():
    data = _synthetic(200, [0.25] * 8)
    ids_a = [r.command_id for r in stratified_sample(data, 50, seed=9)]
    ids_b = [r.command_id for r in stratified_sample(data, 50, seed=9)]
    ids_c = [r.command_id for r in stratified_sample(data, 50, seed=10)]
    assert ids_a == ids_b
    assert ids_a != ids_c


def test_sample_preserves_dataset_order_and_membership(toy_data):
    sample = stratified_sample(toy_data, 12, seed=3)
    positions = [toy_data.index(rec) for rec in sample]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def test_sample_full_size_returns_everything(toy_data):
    assert stratified_sample(toy_data, len(toy_data), seed=0) == toy_data


def test_sample_rejects_bad_n(toy_data):
    for n in (0, 25):
        with pytest.raises(ValueError):
            stratified_sample(toy_data, n, seed=0)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -0.1])
def test_sample_rejects_a_tolerance_not_finite_and_non_negative(toy_data, tolerance):
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        stratified_sample(toy_data, 5, seed=0, tolerance=tolerance)


def test_sample_infeasible_reports_best_deviation():
    # all-positive first column: any 1-of-4 sample is off by at least 1/4 - ...
    # gold rates: col 0 is 2/4; a single record can only hit 0 or 1.
    data = [
        LabeledCommand("a", "a", RequirementVector.from_bits("10000000")),
        LabeledCommand("b", "b", RequirementVector.from_bits("10000000")),
        LabeledCommand("c", "c", RequirementVector.from_bits("00000000")),
        LabeledCommand("d", "d", RequirementVector.from_bits("00000000")),
    ]
    with pytest.raises(InfeasibleSample) as err:
        stratified_sample(data, 1, seed=0, tolerance=0.05)
    # best achievable |rate - 1/2| with one record is exactly 1/2
    assert err.value.best_deviation == pytest.approx(0.5)
    assert err.value.tolerance == 0.05


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=2**32))
def test_sample_size_and_uniqueness_property(n, seed):
    from conftest import toy_dataset_path

    data = load_dataset(toy_dataset_path())
    try:
        sample = stratified_sample(data, n, seed=seed, tolerance=0.2)
    except InfeasibleSample:
        return
    assert len(sample) == n
    assert len({rec.command_id for rec in sample}) == n
