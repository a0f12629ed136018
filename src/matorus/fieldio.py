"""Portable binary field files.

Layout (all little-endian):

    bytes  0..11   magic  b"MATORUSFIELD"
    bytes 12..15   u32 format version (currently 1)
    bytes 16..27   u32 n, u32 N, u32 kind
    bytes 28..     raw IEEE-754 doubles

kind 0 = scalar-real, 1 = scalar-complex, 2 = hermitian. Payload doubles
are in row-major grid order (axes x1, y1, x2, y2, ...); for hermitian
fields the n x n matrix entries are innermost, row-major; complex values
are interleaved real, imag. Round-trips are bit-exact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FieldFormatError, GridMismatchError
from .grid import GridSpec, HermitianField, ScalarField

MAGIC = b"MATORUSFIELD"
VERSION = 1

KIND_SCALAR_REAL = 0
KIND_SCALAR_COMPLEX = 1
KIND_HERMITIAN = 2

_HEADER = struct.Struct("<12sIIII")


def _kind_of(fld) -> int:
    if isinstance(fld, HermitianField):
        return KIND_HERMITIAN
    if isinstance(fld, ScalarField):
        return KIND_SCALAR_REAL if fld.is_real else KIND_SCALAR_COMPLEX
    raise FieldFormatError(f"cannot serialize object of type {type(fld).__name__}")


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it
    into place: readers see the old file or the new one, never a part."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def serialize(fld, path) -> None:
    """Write a ScalarField or HermitianField to a field file."""
    kind = _kind_of(fld)
    grid = fld.grid
    header = _HEADER.pack(MAGIC, VERSION, grid.complex_dim, grid.points_per_axis, kind)
    dtype = "<f8" if kind == KIND_SCALAR_REAL else "<c16"
    payload = np.ascontiguousarray(fld.values, dtype=dtype).tobytes()
    _write_atomic(path, header + payload)


def deserialize(path, grid: GridSpec | None = None):
    """Read a field file; validates against ``grid`` when one is given.

    Returns a ScalarField or HermitianField on a fresh GridSpec of the
    header's dimensions, or on the provided grid if its dimensions match.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FieldFormatError(
            f"file too short for header: {len(raw)} bytes",
            expected={"header_bytes": _HEADER.size},
            found={"total_bytes": len(raw)},
        )
    magic, version, n, N, kind = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldFormatError(
            "bad magic",
            expected={"magic": MAGIC.decode()},
            found={"magic": magic.decode("latin1")},
        )
    if version != VERSION:
        raise FieldFormatError(
            f"unsupported format version {version}",
            expected={"version": VERSION},
            found={"version": version},
        )
    header = {"n": n, "N": N, "kind": kind}
    if grid is not None:
        if (n, N) != (grid.complex_dim, grid.points_per_axis):
            raise FieldFormatError(
                "field does not match the provided grid",
                expected={"n": grid.complex_dim, "N": grid.points_per_axis},
                found=header,
            )
    else:
        try:
            grid = GridSpec(n, N)
        except GridMismatchError as exc:
            raise FieldFormatError(
                f"header describes an invalid grid: {exc}", found=header
            ) from exc
    npts = grid.npoints
    if kind == KIND_SCALAR_REAL:
        count, dtype, shape = npts, "<f8", grid.shape
    elif kind == KIND_SCALAR_COMPLEX:
        count, dtype, shape = npts, "<c16", grid.shape
    elif kind == KIND_HERMITIAN:
        count, dtype, shape = npts * n * n, "<c16", grid.shape + (n, n)
    else:
        raise FieldFormatError(
            f"unknown field kind {kind}",
            expected={"kind": [KIND_SCALAR_REAL, KIND_SCALAR_COMPLEX, KIND_HERMITIAN]},
            found=header,
        )
    payload = raw[_HEADER.size:]
    expected_bytes = count * np.dtype(dtype).itemsize
    if len(payload) != expected_bytes:
        raise FieldFormatError(
            "payload size does not match header shape",
            expected={**header, "payload_bytes": expected_bytes},
            found={**header, "payload_bytes": len(payload)},
        )
    values = np.frombuffer(payload, dtype=dtype).reshape(shape)
    if kind == KIND_HERMITIAN:
        return HermitianField(grid, values)
    return ScalarField(grid, values.copy())
