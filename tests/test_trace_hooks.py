"""The benchmark tracer (perfbench/tracer.py) finds
``linsolve.solve_constrained``, the span it counts the operator layer
by. The Krylov loop, ``linsolve._gmres``, is not hooked yet: the tracer
looks for a ``spla`` (scipy.sparse.linalg) binding, which no module has
any more, and reports it missing, so ``linsolve.matvecs`` reads 0. The
transforms are not hooked either: the tracer proxies a ``grid._sfft``
(``scipy.fft``) binding, which ``grid`` no longer has since it calls the
pocketfft kernel directly, so ``grid.fft.*`` reads 0.

The tracer rebinds module attributes, so it runs in a child process and
nothing leaks into the other tests; ``-B`` keeps the child from writing
bytecode under perfbench/ or tests/.
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

import numpy as np

sys.path[:0] = sys.argv[1:3]
import matorus.cli  # noqa: F401  (install() expects the package loaded)
import tracer
from matorus import solver
from matorus.grid import GridSpec
from random_fields import random_metric, random_trig_field

t = tracer.Tracer()
tracer.install(t)
grid = GridSpec(2, 8)
rng = np.random.default_rng(1)
g = random_metric(grid, rng)
solver.newton_solve(g, random_trig_field(grid, rng, amplitude=0.2))
print(json.dumps({"missing": t.missing, "spans": sorted({s[2] for s in t.spans})}))
"""


def test_tracer_hooks_see_the_operator_layer(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "tests")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    # None exists in the package any more; the tracer reports them missing.
    assert set(out["missing"]) <= {
        "grid.fft",
        "geometry.spla",
        "linsolve.spla",
        "estimates.ThreadPoolExecutor",
    }
    assert "linsolve.solve_constrained" in set(out["spans"])
