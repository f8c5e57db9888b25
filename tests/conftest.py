"""Shared fixtures: the reference frames of :mod:`gtmod.fixtures`."""

import pytest

from gtmod import fixtures


@pytest.fixture
def frame_n3():
    return fixtures.frame_n3()
