"""The three benchmark workloads and the configs they generate from a seed.

Every workload fixes the amplitudes and frequencies of its metric and
right-hand-side modes; the seed draws only the phases. A phase is a whole
number of grid steps (2*pi*k/N), and the metric and right-hand-side modes
use disjoint coordinates, so every seed gives a cyclic grid translate of
the same discrete problem: the same work and, up to rounding, the same
constant ``b``. That is why one recorded ``b`` per workload (and per sweep
scale) checks every seed.

All workloads are n=2 and take a few seconds a task, so that one run
fits several tasks and reports their median. Why each was chosen
(numbers on the 2-core reference box are in README.md):

- solve-n2: continuation-bound. The default solver config takes 10
  continuation steps and 30 Newton steps; iteration-count changes show
  here. N=12 is a transform length that is not a power of two.
- gauduchon-n2: metric diagnostics and the weight kernel solve on the
  largest grid (N=24), with no Newton or complex-Hessian call: the bypass
  workload for solver and linsolve changes, forward-FFT heavy where the
  solves are inverse-FFT heavy, and the highest peak memory.
- sweep-n2: five solves that share one metric, so the conformal weight
  is solved five times for one metric. They run one after another
  (MA_THREADS=1): on two threads the sweep is slower than on one, and it
  took 2-3x as long whenever the host took CPU time away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Tolerance on b against the value recorded for the workload.
B_TOL = 1e-8
# Tolerance on the conformal-weight residual.
GAUDUCHON_TOL = 1e-8

RHS_TERMS = (("0.4", "cos", "x1"), ("0.3", "sin", "y2"))


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    n: int
    N: int
    h_terms: tuple
    solver: dict = field(default_factory=dict)
    scales: tuple = ()
    # Recorded b: a float for solve, {scale: b} for sweep, None otherwise.
    b: object = None

    def _expression(self, terms, rng) -> str:
        return " + ".join(
            f"{amp}*{fn}(2*pi*{coord} + 2*pi*{rng.randrange(self.N)}/{self.N})"
            for amp, fn, coord in terms
        )

    def config(self, seed: int) -> dict:
        """The CLI config for a seed; the same seed gives the same config."""
        rng = random.Random(f"{self.name}/{seed}")
        cfg = {
            "task": self.task,
            "grid": {"complex_dim": self.n, "points_per_axis": self.N},
            "metric": {"kind": "conformal", "h": self._expression(self.h_terms, rng)},
            "rhs": {"expression": self._expression(RHS_TERMS, rng)},
            "seed": seed,
        }
        if self.solver:
            cfg["solver"] = dict(self.solver)
        if self.scales:
            cfg["scales"] = list(self.scales)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-n2",
            task="solve",
            n=2,
            N=12,
            h_terms=(("0.2", "cos", "x2"),),
            b=-0.06276904556345161,
        ),
        Workload(
            name="gauduchon-n2",
            task="gauduchon",
            n=2,
            N=24,
            h_terms=(("0.2", "cos", "x2"), ("0.1", "sin", "y1")),
        ),
        Workload(
            name="sweep-n2",
            task="sweep",
            n=2,
            N=8,
            h_terms=(("0.2", "cos", "x2"),),
            scales=(0.25, 0.5, 1.0, 1.5, 2.0),
            b={
                0.25: -0.003954240646462871,
                0.5: -0.01579173622711917,
                1.0: -0.06276904569340472,
                1.5: -0.13978231830270327,
                2.0: -0.24505240676818218,
            },
        ),
    )
}
