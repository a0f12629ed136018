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
from hypothesis import given, settings
from hypothesis import strategies as st

from matorus.cli import main
from matorus.fieldio import serialize
from matorus.grid import GridSpec

from random_fields import random_trig_field

BASE = {
    "grid": {"complex_dim": 2, "points_per_axis": 8},
    "metric": {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"},
    "rhs": {"expression": "0.4*cos(2*pi*x1)"},
    "solver": {"newton_tol": 1e-10, "max_newton_iters": 30},
    "scales": [1.0],
    "psi": {"h_expression": "0.1*cos(2*pi*x1)"},
    "phi": {"path": "phi.field"},
    "b": 0.0,
    "seed": 3,
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
    ("rhs",),
    ("rhs", "expression"),
    ("solver",),
    ("solver", "newton_tol"),
    ("solver", "max_newton_iters"),
    ("scales",),
    ("psi",),
    ("psi", "h_expression"),
    ("phi",),
    ("phi", "path"),
    ("b",),
    ("seed",),
    ("output_dir",),
)

DELETE = object()
VALUES = (
    DELETE, None, True, "x", "", math.nan, math.inf, -math.inf, 0, -1, 8.5, 12.0,
    [], {}, [1.0], {"kind": "flat"}, {"a": 1},
)


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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    task=st.sampled_from(["solve", "sweep", "gauduchon", "report", "prescribe-ricci"]),
    mutations=st.lists(
        st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)), min_size=1, max_size=3
    ),
)
def test_fuzzed_config_succeeds_or_fails_typed(task, mutations):
    config = copy.deepcopy(BASE)
    with tempfile.TemporaryDirectory() as tmp:
        # The report task reads phi from a file; a mutation may replace the
        # path or point the config at a different grid.
        phi = Path(tmp, "phi.field")
        serialize(random_trig_field(GridSpec(2, 8), np.random.default_rng(5), amplitude=0.01), phi)
        config["phi"]["path"] = str(phi)
        for path, value in mutations:
            _mutate(config, path, value)
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
