"""Shared fixtures: reference scenarios and hypothesis profiles."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from irsmimo import checks

settings.register_profile(
    "default", max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile(
    "thorough", max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def golden_scenario():
    """The 5x5-antenna, 15x15-element, 5 mm wavelength reference setup."""
    return checks.golden_scenario()


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
