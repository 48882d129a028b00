import numpy as np
import pytest


@pytest.fixture
def philox_builds(monkeypatch):
    """A list that gains one entry per Philox generator built while the
    test runs."""
    built = []
    real = np.random.Philox

    def counted(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    return built
