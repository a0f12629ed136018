"""CLI runs in a child process: inputs at the edge of double precision end
in a typed error, and the artifacts do not depend on the BLAS thread count.

A child process is used because the test process turns RuntimeWarning
into an error, and because the BLAS thread count is fixed when numpy
loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

GRID = {"complex_dim": 2, "points_per_axis": 8}


def run_child(tmp_path, task, cfg, blas_threads="1"):
    """(exit status, last stdout line as JSON or None, output directory,
    stderr)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / f"{task}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "matorus.cli", task, "--config", str(path), "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), out, proc.stderr


def _conformal(h, rhs="0.1*cos(2*pi*x1)"):
    return {"grid": GRID, "metric": {"kind": "conformal", "h": h}, "rhs": {"expression": rhs}}


# (task, config, error type): a volume form det g that underflows or
# overflows, and a right-hand side whose Newton forcing term overflows.
EXTREMES = {
    "det-underflow-solve": ("solve", _conformal("-400 + 0*cos(2*pi*x1)"), "not_positive"),
    "det-overflow-solve": ("solve", _conformal("700*cos(2*pi*x1)"), "not_positive"),
    "det-overflow-gauduchon": ("gauduchon", _conformal("400*cos(2*pi*x1)"), "not_positive"),
    "det-underflow-gauduchon": ("gauduchon", _conformal("-400*cos(2*pi*x1)"), "not_positive"),
    "huge-rhs-solve": (
        "solve",
        {"grid": GRID, "metric": {"kind": "flat"}, "rhs": {"expression": "1e300*cos(2*pi*x1)"}},
        "continuation_stalled",
    ),
}


@pytest.mark.parametrize("case", sorted(EXTREMES))
def test_extreme_finite_input_is_a_typed_error(tmp_path, case):
    task, cfg, code = EXTREMES[case]
    rc, line, out, _ = run_child(tmp_path, task, cfg)
    assert rc == 1
    assert line["error"]["type"] == code
    assert not (out / "summary.json").exists()
    if code == "not_positive":
        # Every case has its extreme det g at the origin.
        assert "det g" in line["error"]["message"]
        assert line["error"]["worst_point"] == [0, 0, 0, 0]


def test_non_finite_expression_is_an_expression_error(tmp_path):
    # exp(1000) overflows on every grid point; numpy's overflow warning is
    # not printed, the expression is named in the error instead.
    rhs = "exp(1000)*cos(2*pi*x1)"
    cfg = {"grid": GRID, "metric": {"kind": "flat"}, "rhs": {"expression": rhs}}
    rc, line, out, stderr = run_child(tmp_path, "solve", cfg)
    assert rc == 1
    assert line["error"]["type"] == "expression_error"
    assert rhs in line["error"]["message"]
    assert "RuntimeWarning" not in stderr
    assert not (out / "summary.json").exists()


def test_sweep_records_an_overflowing_scale_as_a_failed_entry(tmp_path):
    # A sweep records each scale that fails and ends normally.
    cfg = {
        "grid": GRID, "metric": {"kind": "flat"}, "rhs": {"expression": "cos(2*pi*x1)"},
        "scales": [1e300],
    }
    rc, _, out, _ = run_child(tmp_path, "sweep", cfg)
    assert rc == 0
    [entry] = json.loads((out / "summary.json").read_text())["entries"]
    assert entry["error"].startswith("continuation_stalled:")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At N=24 the Krylov vectors are long enough for a BLAS ddot to split
    # its sum across threads.
    cfg = {
        "grid": {"complex_dim": 2, "points_per_axis": 24},
        "metric": {"kind": "conformal", "h": "0.2*cos(2*pi*x2 + 2*pi*8/12)"},
        "rhs": {"expression": "0.4*cos(2*pi*x1 + 2*pi*6/12) + 0.3*sin(2*pi*y2 + 2*pi*9/12)"},
        "seed": 1,
    }
    artifacts = []
    for threads in ("1", "2"):
        rc, _, out, _ = run_child(tmp_path / threads, "solve", cfg, blas_threads=threads)
        assert rc == 0
        artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(artifacts[0]) == ["phi.field", "summary.json"]
    assert artifacts[0] == artifacts[1]
