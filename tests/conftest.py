from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from matorus.grid import GridSpec, HermitianField, ScalarField, from_function, identity_metric


@pytest.fixture
def grid8():
    return GridSpec(2, 8)


@pytest.fixture
def grid16():
    return GridSpec(2, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sample(grid: GridSpec, fn) -> ScalarField:
    """Sample fn(coords dict) onto the grid as a ScalarField."""
    return from_function(grid, fn)


def conformal_metric(grid: GridSpec, h: ScalarField) -> HermitianField:
    return identity_metric(grid).scaled(ScalarField(grid, np.exp(h.values))).as_metric()


def count_weight_solves(monkeypatch) -> list:
    """Patch the conformal-weight solve under both names it is called by
    (``geometry`` and ``solver``); the returned list grows by one per call."""
    from matorus import geometry, solver

    calls = []
    original = geometry.gauduchon_weight

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "gauduchon_weight", counted)
    monkeypatch.setattr(solver, "gauduchon_weight", counted)
    return calls


TRANSFORMS = ("fftn", "ifftn", "fft", "ifft", "rfftn", "irfftn")


@pytest.fixture
def count_transforms(monkeypatch) -> Counter:
    """Replace ``grid._sfft`` by its six transform entry points, each
    counted; the returned Counter maps a function name to its calls."""
    from matorus import grid

    counts = Counter()
    real = grid._sfft

    def counted(name):
        fn = getattr(real, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        grid, "_sfft", SimpleNamespace(**{name: counted(name) for name in TRANSFORMS})
    )
    return counts
