"""Problem setup from config specs: a metric, and the specs of one key
(``rhs``, ``psi``, ``phi``) whose real scalar fields are expressions or
field files."""

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


# The keys each metric kind takes, all of them required.
_METRIC_KEYS = {
    "flat": ("kind",),
    "conformal": ("kind", "h"),
    "kaehler_perturbation": ("kind", "f"),
    "explicit": ("kind", "path"),
}


def _reject_unknown_keys(spec: dict, allowed: tuple, where: str) -> None:
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}; one of {allowed}")


def metric_from_spec(grid: GridSpec, spec) -> HermitianField:
    """Build a metric from a config spec.

    Kinds: {"kind": "flat"}; {"kind": "conformal", "h": expr};
    {"kind": "kaehler_perturbation", "f": expr}; {"kind": "explicit",
    "path": field-file}. Any other key is a ConfigError.
    """
    if spec is None:
        return identity_metric(grid)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("metric spec must be an object with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _METRIC_KEYS:
        raise ConfigError(f"unknown metric kind {kind!r}")
    _reject_unknown_keys(spec, _METRIC_KEYS[kind], f"{kind} metric spec")
    for key in _METRIC_KEYS[kind]:
        if key not in spec:
            raise ConfigError(f"{kind} metric spec needs a {key!r}")
    if kind == "flat":
        return identity_metric(grid)
    if kind == "conformal":
        h = sample_expression(spec_string(spec, "h", "metric"), grid)
        # An overflow to inf is rejected by the field check below, as grid_mismatch.
        with np.errstate(over="ignore"):
            e = np.exp(h.values)
        n = grid.complex_dim
        return HermitianField(grid, (e,) * n + (np.zeros(grid.shape),) * (n * n - n), metric=True)
    if kind == "kaehler_perturbation":
        f = sample_expression(spec_string(spec, "f", "metric"), grid)
        return (identity_metric(grid) + ddbar(f)).as_metric()
    # kind == "explicit"
    fld = field_from_spec(spec, "path", "metric", grid)
    if not isinstance(fld, HermitianField):
        raise ConfigError(f"{spec['path']} does not contain a matrix field")
    return fld.as_metric()


def spec_key(spec, keys: tuple, where: str) -> str:
    """The one key of ``spec``, an object that holds exactly one of ``keys``
    and no other key."""
    if isinstance(spec, dict):
        _reject_unknown_keys(spec, keys, f"{where} spec")
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"{where} spec must be an object with exactly one of {keys}")
    return next(iter(spec))


def real_scalar_from_spec(grid: GridSpec, spec: dict, key: str, where: str) -> ScalarField:
    """The real scalar field of ``spec[key]``: an expression under a key
    that ends in ``expression``, else the field file the key names."""
    if key.endswith("expression"):
        return sample_expression(spec_string(spec, key, where), grid)
    fld = field_from_spec(spec, key, where, grid)
    if not isinstance(fld, ScalarField):
        raise ConfigError(f"{where}.{key} {spec[key]!r} does not hold a real scalar field")
    return fld


def rhs_from_spec(grid: GridSpec, spec) -> ScalarField:
    """Right-hand side F from {"expression": ...} or {"path": ...}; zero
    when spec is None."""
    if spec is None:
        return constant_field(grid, 0.0)
    return real_scalar_from_spec(grid, spec, spec_key(spec, ("expression", "path"), "rhs"), "rhs")
