"""Fuzzed CLI configs: every run either succeeds or fails with a typed
error, and a failed run leaves neither a summary nor a temporary file."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from matorus.cli import main

BASE = {
    "grid": {"complex_dim": 2, "points_per_axis": 8},
    "metric": {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"},
    "rhs": {"expression": "0.4*cos(2*pi*x1)"},
    "solver": {"newton_tol": 1e-10, "max_newton_iters": 30},
    "scales": [1.0],
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


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    task=st.sampled_from(["solve", "sweep"]),
    mutations=st.lists(
        st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)), min_size=1, max_size=3
    ),
)
def test_fuzzed_config_succeeds_or_fails_typed(task, mutations):
    config = copy.deepcopy(BASE)
    for path, value in mutations:
        _mutate(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
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
