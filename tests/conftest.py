import numpy as np
import pytest

from teachsim import core


@pytest.fixture
def philox_builds(monkeypatch):
    """A list that gains one entry per Philox generator built while the
    test runs. The process's generator is reset first, as in a process
    that has not drawn yet, and put back after the test."""
    built = []
    real = np.random.Philox

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "_generator", None)
    monkeypatch.setattr(core, "_stands_at", None)
    monkeypatch.setattr(np.random, "Philox", counted)
    return built


@pytest.fixture
def draws(monkeypatch):
    """A list that gains the drawing source once per draw any
    RandomSource makes from the generator while the test runs."""
    made = []
    real = core.RandomSource._draw

    def counted(self, shape):
        made.append(self)
        return real(self, shape)

    monkeypatch.setattr(core.RandomSource, "_draw", counted)
    return made
