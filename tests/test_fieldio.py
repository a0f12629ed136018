import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorus import fieldio
from matorus.errors import FieldFormatError
from matorus.fieldio import MAGIC, deserialize, serialize
from matorus.grid import GridSpec, HermitianField, ScalarField

from random_fields import random_metric


def test_scalar_real_round_trip(grid8, rng, tmp_path):
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    path = tmp_path / "f.field"
    serialize(f, path)
    back = deserialize(path)
    assert back.grid == grid8
    assert back.is_real
    assert np.array_equal(back.values, f.values)


def test_scalar_complex_round_trip(grid8, rng, tmp_path):
    vals = rng.standard_normal(grid8.shape) + 1j * rng.standard_normal(grid8.shape)
    f = ScalarField(grid8, vals)
    path = tmp_path / "f.field"
    serialize(f, path)
    back = deserialize(path, grid8)
    assert not back.is_real
    assert np.array_equal(back.values, f.values)


def test_hermitian_round_trip(grid8, rng, tmp_path):
    g = random_metric(grid8, rng)
    path = tmp_path / "g.field"
    serialize(g, path)
    back = deserialize(path)
    assert isinstance(back, HermitianField)
    assert np.array_equal(back.values, g.values)


def test_hermitian_round_trip_n3(rng, tmp_path):
    grid = GridSpec(3, 8)
    g = random_metric(grid, rng, amplitude=0.2)
    path = tmp_path / "g3.field"
    serialize(g, path)
    back = deserialize(path)
    assert np.array_equal(back.values, g.values)


def test_truncated_file_reports_shapes(grid8, rng, tmp_path):
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    path = tmp_path / "f.field"
    serialize(f, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(FieldFormatError) as exc:
        deserialize(path)
    assert exc.value.expected is not None
    assert exc.value.found is not None
    assert exc.value.expected["payload_bytes"] != exc.value.found["payload_bytes"]


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.field"
    path.write_bytes(b"NOTAMAGICVAL" + b"\x00" * 32)
    with pytest.raises(FieldFormatError) as exc:
        deserialize(path)
    assert exc.value.expected == {"magic": MAGIC.decode()}


def test_version_mismatch(grid8, rng, tmp_path):
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    path = tmp_path / "f.field"
    serialize(f, path)
    raw = bytearray(path.read_bytes())
    raw[12] = 9  # bump the version byte
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError) as exc:
        deserialize(path)
    assert exc.value.found == {"version": 9}


def test_grid_mismatch_on_provided_grid(grid8, rng, tmp_path):
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    path = tmp_path / "f.field"
    serialize(f, path)
    with pytest.raises(FieldFormatError) as exc:
        deserialize(path, GridSpec(2, 16))
    assert exc.value.expected == {"n": 2, "N": 16}
    assert exc.value.found["N"] == 8


def test_short_header(tmp_path):
    path = tmp_path / "tiny.field"
    path.write_bytes(b"MATORUS")
    with pytest.raises(FieldFormatError):
        deserialize(path)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(["real", "complex", "hermitian"]))
def test_round_trip_is_bit_exact(tmp_path_factory, seed, kind):
    # A Hermitian field is stored as its planes and written as its
    # matrices: the file it is read from and the file it writes agree
    # byte for byte.
    grid = GridSpec(2, 8)
    r = np.random.default_rng(seed)
    if kind == "hermitian":
        shape = grid.shape + (2, 2)
        m = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        f = HermitianField(grid, m + np.conj(np.swapaxes(m, -1, -2)))
    else:
        vals = r.standard_normal(grid.shape)
        if kind == "complex":
            vals = vals + 1j * r.standard_normal(grid.shape)
        f = ScalarField(grid, vals)
    path = tmp_path_factory.mktemp("fio") / "f.field"
    serialize(f, path)
    back = deserialize(path)
    assert back.values.tobytes() == f.values.tobytes()
    serialize(back, path.with_name("back.field"))
    assert path.with_name("back.field").read_bytes() == path.read_bytes()


def test_failed_write_keeps_previous_file(grid8, rng, tmp_path, monkeypatch):
    path = tmp_path / "f.field"
    serialize(ScalarField(grid8, rng.standard_normal(grid8.shape)), path)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(fieldio.os, "replace", fail)
    with pytest.raises(OSError):
        serialize(ScalarField(grid8, np.zeros(grid8.shape)), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["f.field"]
