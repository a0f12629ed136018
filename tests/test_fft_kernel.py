"""The transforms of ``matorus.grid`` call SciPy's compiled pocketfft
kernel directly; they must equal ``scipy.fft``'s n-d transforms bit for
bit, which stay the reference here, and a kernel file that is not there
must fail the import with the place looked in and the SciPy version.
"""

import importlib.machinery
import importlib.util
import os
from importlib.metadata import version

import numpy as np
import pytest
import scipy.fft as sfft

from matorus import grid

# The grids of the benchmark workloads and of the n=3 solves.
SHAPES = {"n2-N8": (8,) * 4, "n2-N12": (12,) * 4, "n2-N24": (24,) * 4, "n3-N8": (8,) * 6}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_wrappers_equal_scipy_fft_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    real = rng.standard_normal(shape)
    cplx = real + 1j * rng.standard_normal(shape)
    for x in (real, cplx):
        assert _same_bits(grid._fftn(x), sfft.fftn(x))
        assert _same_bits(grid._ifftn(x), sfft.ifftn(x))
    assert _same_bits(grid._rfftn(real), sfft.rfftn(real))
    half = sfft.rfftn(real) * (1.0 + 0.5j)
    assert _same_bits(grid._irfftn(half, shape), sfft.irfftn(half, s=shape))


def test_wrappers_equal_scipy_fft_on_strided_read_only_input():
    # The wrappers take any array: here a matrix entry, a view with the
    # matrix axes' strides, of a read-only array.
    rng = np.random.default_rng(7)
    mats = rng.standard_normal((8,) * 4 + (2, 2)) + 1j * rng.standard_normal((8,) * 4 + (2, 2))
    mats.setflags(write=False)
    entry = mats[..., 0, 1]
    assert _same_bits(grid._fftn(entry), sfft.fftn(entry))
    assert _same_bits(grid._ifftn(entry), sfft.ifftn(entry))
    # geometry.antisymmetric_pairs runs its transforms in place.
    x = entry.copy()
    assert grid._fftn(x, x) is x
    assert _same_bits(x, sfft.fftn(entry))
    x = entry.copy()
    assert grid._ifftn(x, x) is x
    assert _same_bits(x, sfft.ifftn(entry))


def test_missing_kernel_file_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".not-a-suffix.so"])
    with pytest.raises(ImportError) as exc:
        grid._load_pocketfft()
    [root] = importlib.util.find_spec("scipy").submodule_search_locations
    message = str(exc.value)
    assert os.path.join(root, "fft", "_pocketfft") in message
    assert f"scipy {version('scipy')}" in message
