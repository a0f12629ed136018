"""Problem setup: metrics and right-hand sides from config specs, plus
seeded random analytic data generators for fuzzing and sweeps."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .expressions import sample_expression
from .fieldio import deserialize
from .grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    constant_field,
    ddbar,
    identity_metric,
    min_eigenvalue,
)


def spec_string(spec: dict, key: str, where: str) -> str:
    """``spec[key]``, an expression or a path, which must be a string."""
    value = spec[key]
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a string, got {type(value).__name__}")
    return value


def field_from_spec(spec: dict, key: str, where: str, grid: GridSpec):
    """The field stored in the file named by ``spec[key]``."""
    path = spec_string(spec, key, where)
    try:
        return deserialize(path, grid)
    except (OSError, ValueError) as exc:  # ValueError: a null byte in the path
        raise ConfigError(f"cannot read {where}.{key} {path!r}: {exc}") from exc


def metric_from_spec(grid: GridSpec, spec) -> HermitianField:
    """Build a metric from a config spec.

    Kinds: {"kind": "flat"}; {"kind": "conformal", "h": expr};
    {"kind": "kaehler_perturbation", "f": expr}; {"kind": "explicit",
    "path": field-file}.
    """
    if spec is None:
        return identity_metric(grid)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("metric spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if kind == "flat":
        return identity_metric(grid)
    if kind == "conformal":
        if "h" not in spec:
            raise ConfigError("conformal metric spec needs an 'h' expression")
        h = sample_expression(spec_string(spec, "h", "metric"), grid)
        n = grid.complex_dim
        vals = np.zeros(grid.shape + (n, n), dtype=np.complex128)
        # An overflow to inf is rejected by the field check below, as grid_mismatch.
        with np.errstate(over="ignore"):
            vals[..., range(n), range(n)] = np.exp(h.values)[..., None]
        return HermitianField(grid, vals, metric=True)
    if kind == "kaehler_perturbation":
        if "f" not in spec:
            raise ConfigError("kaehler_perturbation metric spec needs an 'f' expression")
        f = sample_expression(spec_string(spec, "f", "metric"), grid)
        return (identity_metric(grid) + ddbar(f)).as_metric()
    if kind == "explicit":
        if "path" not in spec:
            raise ConfigError("explicit metric spec needs a 'path'")
        fld = field_from_spec(spec, "path", "metric", grid)
        if not isinstance(fld, HermitianField):
            raise ConfigError(f"{spec['path']} does not contain a matrix field")
        return fld.as_metric()
    raise ConfigError(f"unknown metric kind {kind!r}")


def rhs_from_spec(grid: GridSpec, spec) -> ScalarField:
    """Right-hand side F from {"expression": ...} or {"path": ...}; zero
    when spec is None."""
    if spec is None:
        return constant_field(grid, 0.0)
    if not isinstance(spec, dict):
        raise ConfigError("rhs spec must be an object")
    if "expression" in spec:
        fld = sample_expression(spec_string(spec, "expression", "rhs"), grid)
    elif "path" in spec:
        fld = field_from_spec(spec, "path", "rhs", grid)
        if not isinstance(fld, ScalarField) or not fld.is_real:
            raise ConfigError(f"{spec['path']} does not contain a real scalar field")
    else:
        raise ConfigError("rhs spec needs an 'expression' or a 'path'")
    return fld


def random_trig_field(
    grid: GridSpec,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    bandwidth: int = 2,
    n_modes: int = 6,
) -> ScalarField:
    """Random band-limited trigonometric polynomial with sup-norm amplitude."""
    coords = grid.coordinates()
    names = sorted(coords)
    vals = np.zeros(grid.shape)
    for _ in range(n_modes):
        while True:
            freqs = rng.integers(-bandwidth, bandwidth + 1, size=len(names))
            if np.any(freqs != 0):
                break
        phase = 2.0 * np.pi * sum(f * coords[c] for f, c in zip(freqs, names))
        vals = vals + rng.normal() * np.cos(phase + rng.uniform(0, 2 * np.pi))
    sup = np.max(np.abs(vals))
    if sup == 0.0:
        return constant_field(grid, 0.0)
    return ScalarField(grid, amplitude * vals / sup)


def random_metric(
    grid: GridSpec,
    rng: np.random.Generator,
    amplitude: float = 0.3,
    bandwidth: int = 1,
    n_modes: int = 4,
    min_eig: float = 0.3,
) -> HermitianField:
    """Random analytic Hermitian metric: identity plus band-limited
    Hermitian-matrix modes, rescaled until safely positive."""
    n = grid.complex_dim
    coords = grid.coordinates()
    names = sorted(coords)
    pert = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for _ in range(n_modes):
        while True:
            freqs = rng.integers(-bandwidth, bandwidth + 1, size=len(names))
            if np.any(freqs != 0):
                break
        phase = 2.0 * np.pi * sum(f * coords[c] for f, c in zip(freqs, names))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = 0.5 * (m + m.conj().T)
        mode = np.broadcast_to(np.cos(phase + rng.uniform(0, 2 * np.pi)), grid.shape)
        pert = pert + mode[..., None, None] * m
    sup = np.max(np.abs(pert))
    if sup > 0:
        pert *= amplitude / sup
    eye = np.eye(n, dtype=np.complex128)
    vals = eye + pert
    while True:
        h = HermitianField(grid, vals)
        emin, _ = min_eigenvalue(h)
        if emin >= min_eig:
            return h.as_metric()
        vals = eye + 0.7 * (vals - eye)
