"""Fuzzed CLI configs for every task that reads a metric: each run either
succeeds or fails with a typed error, no run leaves a temporary file, and a
failed run leaves no summary."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matorus.cli import main
from matorus.fieldio import serialize
from matorus.grid import GridSpec, identity_metric

from random_fields import random_trig_field

# Field files on the base grid, named by these markers in a config:
# a real scalar field and a metric.
FIELD, METRIC = object(), object()

# Each spec starts from one of its variants, so that every branch of the
# spec readers (expression or file, scalar or matrix) is the start of
# some runs.
BASE = {
    "grid": st.just({"complex_dim": 2, "points_per_axis": 8}),
    "metric": st.sampled_from([
        {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"},
        {"kind": "kaehler_perturbation", "f": "0.01*cos(2*pi*x1)"},
        {"kind": "explicit", "path": METRIC},
    ]),
    "rhs": st.sampled_from([{"expression": "0.4*cos(2*pi*x1)"}, {"path": FIELD}]),
    "solver": st.just({"newton_tol": 1e-10, "max_newton_iters": 30}),
    "seed": st.just(3),
}

# Each task's own keys; every other task rejects them (tests/test_cli.py).
OWN = {
    "solve": {},
    "sweep": {"scales": st.just([1.0])},
    "gauduchon": {},
    "report": {"phi": st.just({"path": FIELD}), "b": st.just(0.0)},
    "prescribe-ricci": {
        "psi": st.sampled_from([
            {"h_expression": "0.1*cos(2*pi*x1)"}, {"h_path": FIELD}, {"path": METRIC},
        ]),
    },
}

PATHS = (
    ("task",),
    ("grid",),
    ("grid", "complex_dim"),
    ("grid", "points_per_axis"),
    ("grid", "diff_scheme"),
    ("metric",),
    ("metric", "kind"),
    ("metric", "h"),
    ("metric", "f"),
    ("metric", "path"),
    ("rhs",),
    ("rhs", "expression"),
    ("rhs", "path"),
    ("solver",),
    ("solver", "newton_tol"),
    ("solver", "max_newton_iters"),
    ("seed",),
    ("output_dir",),
)

OWN_PATHS = {
    "solve": (),
    "sweep": (("scales",),),
    "gauduchon": (),
    "report": (("phi",), ("phi", "path"), ("b",)),
    "prescribe-ricci": (("psi",), ("psi", "h_expression"), ("psi", "h_path"), ("psi", "path")),
}

DELETE = object()
VALUES = (
    DELETE, None, True, "x", "", math.nan, math.inf, -math.inf, 0, -1, 8.5, 12.0,
    [], {}, [1.0], {"kind": "flat"}, {"a": 1}, FIELD, METRIC, "exp(1000)*cos(2*pi*x1)",
)
# A path that holds an expression draws expressions, so that a mutated
# config reaches the expression sampler: one that overflows on the grid,
# one that samples finite, one that divides by zero on the grid, a
# constant that does not fit a double, one that does not parse and a
# coordinate outside a call.
EXPRESSION_PATHS = {
    ("metric", "h"), ("metric", "f"), ("rhs", "expression"), ("psi", "h_expression"),
}
EXPRESSIONS = (
    "exp(1000)*cos(2*pi*x1)", "0.3*sin(2*pi*y1)", "cos(2*pi*x1)/0", "1" + "0" * 400,
    "cos(2*pi*", "x1",
)


def _mutation(path):
    return st.tuples(st.just(path), st.sampled_from(
        EXPRESSIONS if path in EXPRESSION_PATHS else VALUES
    ))


def _with_files(value, files: dict):
    """``value`` with each field-file marker replaced by its path."""
    if isinstance(value, dict):
        return {k: _with_files(v, files) for k, v in value.items()}
    return files[value] if value is FIELD or value is METRIC else value


def _mutate(config: dict, path: tuple, value) -> None:
    node = config
    for key in path[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        return
    if value is DELETE:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = copy.deepcopy(value)


def _case(task):
    config = st.fixed_dictionaries({**BASE, **OWN[task]})
    paths = st.sampled_from(PATHS + OWN_PATHS[task])
    mutations = st.lists(paths.flatmap(_mutation), min_size=1, max_size=3)
    return st.tuples(st.just(task), config, mutations)


# Most runs end in a config check; at 300 examples every task still
# writes a summary in a few of them. The explicit example puts an
# expression that overflows on the grid where the right-hand side is read.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.sampled_from(sorted(OWN)).flatmap(_case))
@example(case=(
    "solve",
    {"grid": {"complex_dim": 2, "points_per_axis": 8}, "metric": {"kind": "flat"},
     "rhs": {"expression": "0.4*cos(2*pi*x1)"}},
    [(("rhs", "expression"), "exp(1000)*cos(2*pi*x1)")],
))
def test_fuzzed_config_succeeds_or_fails_typed(case):
    task, config, mutations = case
    with tempfile.TemporaryDirectory() as tmp:
        # A mutation may name a field file under any path, or point the
        # config at a different grid.
        files = {FIELD: str(Path(tmp, "phi.field")), METRIC: str(Path(tmp, "g.field"))}
        grid = GridSpec(2, 8)
        serialize(random_trig_field(grid, np.random.default_rng(5), amplitude=0.01), files[FIELD])
        serialize(identity_metric(grid), files[METRIC])
        config = _with_files(config, files)
        for path, value in mutations:
            _mutate(config, path, _with_files(value, files))
        cfg = Path(tmp, "config.json")
        cfg.write_text(json.dumps(config))
        out = Path(tmp, "out")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = main([task, "--config", str(cfg), "--out", str(out)])
        assert rc in (0, 1)
        assert not list(Path(tmp).rglob("*.tmp-*"))
        if rc == 0:
            assert (out / "summary.json").is_file()
            return
        err = json.loads(stdout.getvalue().splitlines()[-1])["error"]
        assert err["type"] != "internal", (config, err)
        assert not (out / "summary.json").exists()
