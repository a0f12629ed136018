import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from matorus import grid as _grid
from matorus.geometry import antisymmetric_pairs
from matorus.grid import GridSpec, HermitianField, ScalarField, identity_metric


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
    return ScalarField(grid, np.broadcast_to(fn(grid.coordinates()), grid.shape).copy())


def d_holo(f, j: int) -> np.ndarray:
    """d_j f by the Wirtinger symbol sigma_j of ``grid._holo_symbols``, for
    ``f`` with a ``grid`` and (real or complex) ``values``."""
    return _grid._ifftn(_grid._holo_symbols(f.grid)[j] * _grid._fftn(f.values))


def d_antiholo(f, j: int) -> np.ndarray:
    """d_jbar f by the symbol -conj(sigma_j)."""
    return _grid._ifftn(-np.conj(_grid._holo_symbols(f.grid)[j]) * _grid._fftn(f.values))


def real_derivatives(f: ScalarField) -> list:
    """The 2n real-axis derivatives of f in axis order, from the Wirtinger
    ones: d/dx^j = d_j + d_jbar and d/dy^j = i (d_j - d_jbar)."""
    out = []
    for j in range(f.grid.complex_dim):
        dh, da = d_holo(f, j), d_antiholo(f, j)
        out += [dh + da, 1j * (dh - da)]
    return [ScalarField(f.grid, d.real) for d in out]


def torsion(g: HermitianField) -> np.ndarray:
    """The torsion T^k_ij = g^{kl-bar} (d_i g_{jl-bar} - d_j g_{il-bar}) of
    the Chern connection, shape grid + (k, i, j), from the pair entries of
    ``antisymmetric_pairs`` and the complex g^-1 of ``grid.inverse``."""
    g = g.as_metric()
    n = g.grid.complex_dim
    # d_i g_{jl-bar} - d_j g_{il-bar}, shape grid + (i, j, l)
    antisym = np.zeros(g.grid.shape + (n, n, n), dtype=np.complex128)
    for i, j, l, d in antisymmetric_pairs(g):
        antisym[..., i, j, l] = d
        np.negative(d, out=antisym[..., j, i, l])
    return np.einsum("...lk,...ijl->...kij", _grid.inverse(g), antisym)


def conformal_metric(grid: GridSpec, h: ScalarField) -> HermitianField:
    return identity_metric(grid).scaled(np.exp(h.values)).as_metric()


def count_weight_solves(monkeypatch) -> list:
    """Patch the conformal-weight solve under every name a loaded
    ``matorus`` module holds it by; the returned list grows by one per
    call."""
    from matorus import geometry

    calls = []
    original = geometry.gauduchon_weight

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "matorus" or name.startswith("matorus.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def count_matvecs(monkeypatch) -> list:
    """Wrap the operator (``matvec``) that ``solve_constrained`` hands to
    ``linsolve._gmres``; the returned list grows by one per operator
    application."""
    calls = []

    def wrap(matvec):
        def counted(x):
            calls.append(1)
            return matvec(x)

        return counted

    wrap_gmres_operator(monkeypatch, wrap)
    return calls


def wrap_gmres_operator(monkeypatch, wrap):
    """Patch ``linsolve._gmres`` to run on ``wrap(matvec)`` in place of
    the operator ``matvec`` it is handed."""
    from matorus import linsolve

    real = linsolve._gmres
    monkeypatch.setattr(linsolve, "_gmres", lambda matvec, *args: real(wrap(matvec), *args))


@pytest.fixture
def count_transforms(monkeypatch) -> Counter:
    """Replace ``grid._pocketfft`` by its three kernels, each call counted
    under the name of the transform it makes: ``c2c`` forward as
    ``fftn``, ``c2c`` inverse as ``ifftn``, ``r2c`` as ``rfftn`` and
    ``c2r`` as ``irfftn``; the returned Counter maps a name to its calls."""
    from matorus import grid

    counts = Counter()
    real = grid._pocketfft

    def c2c(a, axes, forward, *args):
        counts["fftn" if forward else "ifftn"] += 1
        return real.c2c(a, axes, forward, *args)

    def r2c(*args):
        counts["rfftn"] += 1
        return real.r2c(*args)

    def c2r(*args):
        counts["irfftn"] += 1
        return real.c2r(*args)

    monkeypatch.setattr(grid, "_pocketfft", SimpleNamespace(c2c=c2c, r2c=r2c, c2r=c2r))
    return counts


def peak_field_units(fn, grid: GridSpec) -> float:
    """Peak memory traced while fn() runs, in complex scalar fields of the
    grid (npoints * 16 bytes). fn runs once untraced first, so the cached
    symbols of the grid are not counted."""
    import tracemalloc

    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (grid.npoints * 16)
