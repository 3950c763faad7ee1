"""Seeded test fixtures; the random instances come from the `check` suites."""

import random

import pytest

from intervalgames.checks import random_cover, random_target  # noqa: F401


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
