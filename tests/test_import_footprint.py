"""The CLI tasks load no SciPy module at all. ``matorus.grid`` loads
SciPy's compiled pocketfft kernel from its file, since ``import
scipy.fft`` loads ``scipy.special`` and ``numpy.f2py``, and the Krylov
loop is ``linsolve._gmres``, on numpy alone. Importing ``scipy.fft`` or
``scipy.sparse.linalg`` would add tens of MB and a quarter of a second
to every process.

The test process has loaded other modules already, so the tasks run in a
child process that reports its ``sys.modules``, once after the import of
``matorus.cli`` and once after the tasks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import sys

from matorus.cli import main

imported = sorted(sys.modules)

grid = {"complex_dim": 2, "points_per_axis": 8}
metric = {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"}
rhs = {"expression": "0.4*cos(2*pi*x1) + 0.3*sin(2*pi*y2)"}
tasks = {
    "solve": {"grid": grid, "metric": metric, "rhs": rhs},
    "sweep": {"grid": grid, "metric": metric, "rhs": rhs, "scales": [0.5, 1.0]},
    "gauduchon": {
        "grid": grid,
        "metric": {"kind": "kaehler_perturbation", "f": "0.01*cos(2*pi*x1)"},
    },
}
codes = {}
for task, cfg in tasks.items():
    with open(task + ".json", "w") as f:
        json.dump(cfg, f)
    codes[task] = main([task, "--config", task + ".json", "--out", task])
print(json.dumps({"codes": codes, "imported": imported, "modules": sorted(sys.modules)}))
"""


def test_cli_tasks_load_no_scipy_module(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == {"solve": 0, "sweep": 0, "gauduchon": 0}
    for when in ("imported", "modules"):
        assert [m for m in out[when] if m == "scipy" or m.startswith("scipy.")] == []
