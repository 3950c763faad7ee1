"""Seeded test fixtures; the random instances come from the `check` suites."""

import random

import pytest

from intervalgames.checks import random_cover, random_target  # noqa: F401
from intervalgames.covers import GridCover


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


def refuse_grid_members(monkeypatch) -> None:
    """Make every grid cover raise instead of building its member tuple."""

    def refuse(self):
        raise AssertionError(f"{self!r} built its member tuple")

    monkeypatch.setattr(GridCover, "members", property(refuse))
