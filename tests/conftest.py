from __future__ import annotations

from importlib import resources

import pytest

from cmdreason.dataset import LabeledCommand, RequirementVector, load_dataset
from cmdreason.prompt import PromptConfig, ShotExample, default_template


def toy_dataset_path() -> str:
    return str(resources.files("cmdreason").joinpath("data/toy_dataset.tsv"))


@pytest.fixture()
def toy_path() -> str:
    return toy_dataset_path()


@pytest.fixture()
def toy_data(toy_path) -> list[LabeledCommand]:
    return load_dataset(toy_path)


@pytest.fixture()
def template() -> PromptConfig:
    return default_template()


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch, tmp_path):
    # never let a test touch the repo-level default cache directory
    monkeypatch.setenv("CMDREASON_CACHE_DIR", str(tmp_path / "autocache"))


def make_shot(command: str, bits: str) -> ShotExample:
    """Shot with placeholder rationales consistent with the gold bits."""
    gold = RequirementVector.from_bits(bits)
    rationales = tuple(
        "Yes, this is required here." if flag else "No, this is not needed here."
        for flag in gold
    )
    return ShotExample(command, gold, rationales)
