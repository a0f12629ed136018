"""Measured quantities behind the uniform estimates: trace bounds,
oscillation, exponential-moment constants, level-set measures, and trial
exponent fits, evaluated on converged solves and parameter sweeps.

All expectations use the probability measure with weights
det(g) / sum(det(g)) (the normalized volume form of the background).
R_alpha is computed in the translation-invariant, numerically nonnegative
form

    R_alpha = -(1/alpha) * log E[ exp(-alpha (phi - inf phi)) ] >= 0,

non-increasing in alpha. The fitted constants are C(A) =
sup( tr_g g' * exp(-A (phi - inf phi)) ) over a fixed grid of trial
exponents; the reference exponent for the logarithmic quantity Q is the
largest trial exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContinuationStalled, MatorusError
from .grid import HermitianField, ScalarField, complex_hessian, measure_weights
from .geometry import trace_pair
from .solver import (
    SolverConfig,
    SolveResult,
    _constraint_weights,
    continuity_solve,
    newton_finish,
)

TRIAL_EXPONENTS = (0.5, 1.0, 2.0, 4.0)
ALPHA_GRID = (0.5, 1.0, 2.0, 4.0)
REFERENCE_EXPONENT = 4.0


@dataclass(frozen=True)
class EstimateReport:
    sup_tr: float
    osc_phi: float
    R_alpha: dict
    C1: float
    levelset_measure: float
    fitted_A_C: list
    L1_phi: float
    Q_max: float

    def as_json_dict(self) -> dict:
        return {
            "sup_tr": self.sup_tr,
            "osc_phi": self.osc_phi,
            "R_alpha": [[a, r] for a, r in sorted(self.R_alpha.items())],
            "C1": self.C1,
            "levelset_measure": self.levelset_measure,
            "fitted_A_C": [list(p) for p in self.fitted_A_C],
            "L1_phi": self.L1_phi,
            "Q_max": self.Q_max,
        }


def exp_moment_constant(phi: np.ndarray, weights: np.ndarray, alpha: float) -> float:
    """R_alpha = -inf phi - (1/alpha) log E[exp(-alpha phi)], >= 0."""
    shifted = phi - phi.min()
    moment = float((weights * np.exp(-alpha * shifted)).sum())
    return float(-np.log(moment) / alpha) + 0.0


def levelset_measure(phi: np.ndarray, weights: np.ndarray, c1: float) -> float:
    """Measure of {phi <= inf phi + C1 + 1}."""
    return float(weights[phi <= phi.min() + c1 + 1.0].sum())


def report(g: HermitianField, result: SolveResult) -> EstimateReport:
    """Estimate report for a converged solve on background g."""
    g = g.as_metric()
    w = measure_weights(g)
    phi = result.phi.values
    gprime = HermitianField(g.grid, g.values + complex_hessian(phi, g.grid))
    tr, _ = trace_pair(g, gprime)
    shifted = phi - phi.min()

    r_alpha = {a: exp_moment_constant(phi, w, a) for a in ALPHA_GRID}
    c1 = r_alpha[1.0]
    fitted = [
        (a, float(np.max(tr.values * np.exp(-a * shifted)))) for a in TRIAL_EXPONENTS
    ]
    q_max = float(np.max(np.log(tr.values) - REFERENCE_EXPONENT * phi))
    return EstimateReport(
        sup_tr=float(tr.values.max()),
        osc_phi=float(phi.max() - phi.min()),
        R_alpha=r_alpha,
        C1=c1,
        levelset_measure=levelset_measure(phi, w, c1),
        fitted_A_C=fitted,
        L1_phi=float((w * np.abs(phi)).sum()),
        Q_max=q_max,
    )


@dataclass(frozen=True)
class SweepEntry:
    """One scale of a sweep. ``start`` is the solved scale its Newton
    finish started from, None for a cold continuation. ``rejected`` lists
    the (t, error code) of every failed attempt, of a failed solve too,
    with (1.0, code) first after a failed warm start."""

    scale: float
    report: EstimateReport | None = None
    result: SolveResult | None = None
    error: str | None = None
    start: float | None = None
    rejected: list = field(default_factory=list)


def sweep(
    g: HermitianField,
    F: ScalarField,
    scales,
    config: SolverConfig | None = None,
) -> list:
    """Solve for each scaled right-hand side s * F and report, one scale
    after another in the order given.

    Each scale starts from the nearest scale s' solved before it (the
    first of them on a tie): if |s - s'| < |s|, ``solver.newton_finish``
    runs Newton on s * F from (phi, b) of s', and falls back to the cold
    continuation with (1.0, error code) first in ``rejected`` if that
    fails. Otherwise, and always for s = 0, ``continuity_solve`` runs
    from t = 0.

    The conformal weight of g is solved once for all scales; its failure
    concerns the metric, not a scale, and is raised. Solver failures are
    recorded per entry without aborting the sweep. ``MA_THREADS`` sets only
    the FFT workers inside each solve.
    """
    config = config or SolverConfig()
    g = g.as_metric()
    w = _constraint_weights(g)
    solved = []

    def one(s: float) -> SweepEntry:
        Fs = ScalarField(F.grid, s * F.values)
        near = min(solved, key=lambda e: abs(s - e.scale), default=None)
        start = near.scale if near is not None and abs(s - near.scale) < abs(s) else None
        try:
            if start is None:
                res = continuity_solve(g, Fs, config, constraint_weights=w)
            else:
                res = newton_finish(g, Fs, config, lambda: (near.result.phi, near.result.b), w)
            entry = SweepEntry(
                scale=s, report=report(g, res), result=res, start=start, rejected=res.rejected
            )
        except MatorusError as exc:
            return SweepEntry(
                scale=s, error=f"{exc.code}: {exc}", start=start,
                rejected=exc.rejected if isinstance(exc, ContinuationStalled) else [],
            )
        solved.append(entry)
        return entry

    return [one(s) for s in scales]


SWEEP_CSV_COLUMNS = [
    "s",
    "alpha",
    "R_alpha",
    "A",
    "C_A",
    "sup_tr",
    "osc_phi",
    "C1",
    "levelset_measure",
    "L1_phi",
    "Q_max",
    "b",
    "error",
]


def sweep_csv_rows(entries) -> list:
    """Long-format rows, one per (s, alpha, A); deterministic ordering.

    Error entries produce a single row with only the s and error columns.
    """
    rows = []
    for e in entries:
        if e.error is not None:
            rows.append({"s": repr(e.scale), "error": e.error})
            continue
        rep = e.report
        for alpha in sorted(rep.R_alpha):
            for a, c in sorted(rep.fitted_A_C):
                rows.append(
                    {
                        "s": repr(e.scale),
                        "alpha": repr(alpha),
                        "R_alpha": repr(rep.R_alpha[alpha]),
                        "A": repr(a),
                        "C_A": repr(c),
                        "sup_tr": repr(rep.sup_tr),
                        "osc_phi": repr(rep.osc_phi),
                        "C1": repr(rep.C1),
                        "levelset_measure": repr(rep.levelset_measure),
                        "L1_phi": repr(rep.L1_phi),
                        "Q_max": repr(rep.Q_max),
                        "b": repr(e.result.b),
                        "error": "",
                    }
                )
    return rows

