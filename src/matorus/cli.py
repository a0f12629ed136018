"""Batch command-line frontend.

Usage:

    matorus <task> --config path.json [--seed N] [--out dir]

Tasks: solve, sweep, gauduchon, verify-identities, prescribe-ricci,
report. The JSON config carries the grid, the metric and right-hand-side
specs, solver settings, and task-specific keys; see the README for the
schema. Artifacts (field files, summary.json, CSVs) are written
atomically into the output directory; identical config and seed produce
bit-identical outputs. Timestamps appear only on the stderr log. On
failure a machine-readable error object is printed to stdout and the
exit status is nonzero; no partial summary.json is ever left behind.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .chern import prescribe_ricci
from .errors import ConfigError, MatorusError
from .estimates import report as estimate_report
from .estimates import sweep, sweep_csv_rows, SWEEP_CSV_COLUMNS
from .expressions import sample_expression
from .fieldio import _write_atomic, serialize
from .geometry import defects, gauduchon_metric, gauduchon_residual, ricci_form
from .grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    complex_hessian,
    constant_field,
    min_eigenvalue,
)
from .jets import run_identity_fuzz
from .problems import field_from_spec, metric_from_spec, rhs_from_spec, spec_string
from .solver import SolveResult, SolverConfig, nested_solve

log = logging.getLogger("matorus")

TASKS = ("solve", "sweep", "gauduchon", "verify-identities", "prescribe-ricci", "report")


@dataclass(frozen=True)
class RunConfig:
    task: str
    grid: GridSpec
    metric_spec: object
    rhs_spec: object
    solver: SolverConfig
    seed: int
    output_dir: str
    extras: dict = field(default_factory=dict)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _require_int(value, name: str):
    # JSON integers only; type() also turns away bool, a subclass of int
    _require(type(value) is int, f"config field {name!r} must be an integer")
    return value


def _is_finite_number(value) -> bool:
    # JSON numbers only (type() turns away bool); a huge integer overflows
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def load_config(path: str, task: str, seed_override=None, out_override=None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), "config root must be a JSON object")
    if "task" in raw and raw["task"] != task:
        raise ConfigError(
            f"config file declares task {raw['task']!r} but the {task!r} subcommand was invoked"
        )
    gspec = raw.get("grid")
    _require(isinstance(gspec, dict), "config field 'grid' must be an object")
    grid = GridSpec(
        complex_dim=_require_int(gspec.get("complex_dim", 2), "grid.complex_dim"),
        points_per_axis=_require_int(gspec.get("points_per_axis", 16), "grid.points_per_axis"),
        diff_scheme=gspec.get("diff_scheme", "fourier_collocation"),
    )
    _require(
        grid.npoints * grid.complex_dim**2 * 16 <= _physical_memory(),
        f"grid n={grid.complex_dim} N={grid.points_per_axis} is too large: one metric array "
        f"({grid.npoints} points of {grid.complex_dim}x{grid.complex_dim} complex entries) "
        "exceeds physical memory",
    )
    solver_raw = raw.get("solver", {})
    _require(isinstance(solver_raw, dict), "config field 'solver' must be an object")
    try:
        solver = SolverConfig(**solver_raw)
    except TypeError as exc:
        raise ConfigError(f"bad solver config: {exc}") from exc
    seed = _require_int(raw.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override
    out = out_override or raw.get("output_dir", "out")
    _require(isinstance(out, str) and out, "config field 'output_dir' must be a nonempty string")
    known = {"task", "grid", "metric", "rhs", "solver", "seed", "output_dir"}
    extras = {k: v for k, v in raw.items() if k not in known}
    return RunConfig(
        task=task,
        grid=grid,
        metric_spec=raw.get("metric"),
        rhs_spec=raw.get("rhs"),
        solver=solver,
        seed=seed,
        output_dir=out,
        extras=extras,
    )


def _write_json(path: str, obj) -> None:
    _write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in columns))
    _write_atomic(path, ("\n".join(lines) + "\n").encode())


def _solve_summary(result: SolveResult) -> dict:
    return {
        "b": result.b,
        "sup_residual": result.residual_history[-1],
        "residual_history": result.residual_history,
        "t_trace": [[t, it, r] for t, it, r in result.t_trace],
        "min_eigen_gprime": result.min_eigen_gprime,
        "rejected_steps": [[t, code] for t, code in result.rejected],
    }


def _coarse_summary(result: SolveResult) -> list:
    """The coarse solves under a nested solve, finest first."""
    out = []
    coarse = result.coarse
    while coarse is not None:
        out.append({
            "points_per_axis": coarse.phi.grid.points_per_axis,
            "b": coarse.b,
            "t_trace": [[t, it, r] for t, it, r in coarse.t_trace],
        })
        coarse = coarse.coarse
    return out


def _task_solve(cfg: RunConfig, out: str) -> dict:
    g = metric_from_spec(cfg.grid, cfg.metric_spec)
    F = rhs_from_spec(cfg.grid, cfg.rhs_spec)
    result = nested_solve(g, F, cfg.solver)
    serialize(result.phi, os.path.join(out, "phi.field"))
    rep = estimate_report(g, result)
    coarse = _coarse_summary(result)
    summary = {"task": "solve", **_solve_summary(result), "report": rep.as_json_dict(),
               "coarse": coarse, "b_gap": abs(result.b - coarse[0]["b"]) if coarse else None,
               "phi_file": "phi.field"}
    return summary


def _task_sweep(cfg: RunConfig, out: str) -> dict:
    scales = cfg.extras.get("scales")
    _require(
        isinstance(scales, list) and scales and all(_is_finite_number(s) for s in scales),
        "sweep task needs a nonempty 'scales' list of finite numbers",
    )
    g = metric_from_spec(cfg.grid, cfg.metric_spec)
    F = rhs_from_spec(cfg.grid, cfg.rhs_spec)
    entries = sweep(g, F, [float(s) for s in scales], cfg.solver)
    _write_csv(os.path.join(out, "sweep.csv"), SWEEP_CSV_COLUMNS, sweep_csv_rows(entries))
    statuses = [
        {
            "s": e.scale,
            "status": "ok" if e.error is None else "error",
            "error": e.error,
            "start": e.start,
            "rejected_steps": [[t, code] for t, code in e.rejected],
        }
        for e in entries
    ]
    return {"task": "sweep", "entries": statuses, "csv_file": "sweep.csv"}


def _task_gauduchon(cfg: RunConfig, out: str) -> dict:
    g = metric_from_spec(cfg.grid, cfg.metric_spec)
    g_g, u, v = gauduchon_metric(g)
    serialize(u, os.path.join(out, "u.field"))
    serialize(v, os.path.join(out, "v.field"))
    d = defects(g)
    return {
        "task": "gauduchon",
        "residual": gauduchon_residual(g, v),
        "v_min": float(v.values.min()),
        "input_defects": {
            "kaehler": d.kaehler_defect,
            "balanced": d.balanced_defect,
            "gauduchon": d.gauduchon_defect,
        },
        "output_gauduchon_defect": gauduchon_residual(g_g, constant_field(cfg.grid, 1.0)),
        "u_file": "u.field",
        "v_file": "v.field",
    }


def _task_verify(cfg: RunConfig, out: str) -> dict:
    fuzz = run_identity_fuzz(cfg.seed)
    for i, failure in enumerate(fuzz["failures"]):
        _write_json(os.path.join(out, f"identity_failure_{i:03d}.json"), failure)
    return {
        "task": "verify-identities",
        "seed": fuzz["seed"],
        "counts": fuzz["counts"],
        "failures": len(fuzz["failures"]),
    }


def _task_prescribe(cfg: RunConfig, out: str) -> dict:
    g = metric_from_spec(cfg.grid, cfg.metric_spec)
    psi_spec = cfg.extras.get("psi")
    _require(isinstance(psi_spec, dict), "prescribe-ricci task needs a 'psi' object")
    h = None
    if "h_expression" in psi_spec:
        h = sample_expression(spec_string(psi_spec, "h_expression", "psi"), cfg.grid)
    elif "h_path" in psi_spec:
        fld = field_from_spec(psi_spec, "h_path", "psi", cfg.grid)
        _require(
            isinstance(fld, ScalarField) and fld.is_real,
            "'psi.h_path' must hold a real scalar field",
        )
        h = fld
    if h is not None:
        ric = ricci_form(g)
        psi = HermitianField(
            cfg.grid, ric.values - complex_hessian(h.values, cfg.grid) / (2.0 * np.pi)
        )
    elif "path" in psi_spec:
        fld = field_from_spec(psi_spec, "path", "psi", cfg.grid)
        _require(isinstance(fld, HermitianField), "'psi.path' must hold a matrix field")
        psi = fld
    else:
        raise ConfigError("'psi' needs an 'h_expression', an 'h_path', or a 'path'")
    res = prescribe_ricci(g, psi, cfg.solver)
    serialize(res.f, os.path.join(out, "f.field"))
    serialize(res.solve.phi, os.path.join(out, "phi.field"))
    return {
        "task": "prescribe-ricci",
        "constraint_value": res.constraint_value,
        "asd_residual": res.asd_residual,
        "a_l2_norm": res.a_l2_norm,
        "final_ricci_error": res.final_ricci_error,
        **{f"solve_{k}": v for k, v in _solve_summary(res.solve).items()},
        "f_file": "f.field",
        "phi_file": "phi.field",
    }


def _task_report(cfg: RunConfig, out: str) -> dict:
    phi_spec = cfg.extras.get("phi")
    _require(
        isinstance(phi_spec, dict) and "path" in phi_spec,
        "report task needs a 'phi' object with a 'path'",
    )
    b = cfg.extras.get("b", 0.0)
    _require(_is_finite_number(b), "report task field 'b' must be a finite number")
    g = metric_from_spec(cfg.grid, cfg.metric_spec)
    phi = field_from_spec(phi_spec, "path", "phi", cfg.grid)
    _require(
        isinstance(phi, ScalarField) and phi.is_real,
        "'phi.path' must hold a real scalar field",
    )
    shift = float(phi.values.max())
    gprime = HermitianField(cfg.grid, g.values + complex_hessian(phi.values, cfg.grid))
    result = SolveResult(
        phi=ScalarField(cfg.grid, phi.values - shift),
        b=float(b),
        t_trace=[],
        min_eigen_gprime=min_eigenvalue(gprime)[0],
        residual_history=[],
    )
    rep = estimate_report(g, result)
    rows = []
    for alpha, r in sorted(rep.R_alpha.items()):
        for a, ca in sorted(rep.fitted_A_C):
            rows.append({"alpha": repr(alpha), "R_alpha": repr(r), "A": repr(a), "C_A": repr(ca)})
    _write_csv(os.path.join(out, "report.csv"), ["alpha", "R_alpha", "A", "C_A"], rows)
    return {"task": "report", "report": rep.as_json_dict(), "csv_file": "report.csv"}


_RUNNERS = {
    "solve": _task_solve,
    "sweep": _task_sweep,
    "gauduchon": _task_gauduchon,
    "verify-identities": _task_verify,
    "prescribe-ricci": _task_prescribe,
    "report": _task_report,
}


def run(cfg: RunConfig) -> dict:
    """Execute a task; returns the summary dict (also written to disk).
    A summary from an earlier run is removed first, so a failed task
    leaves none behind."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    summary_path = Path(out, "summary.json")
    summary_path.unlink(missing_ok=True)
    summary = _RUNNERS[cfg.task](cfg, out)
    summary["seed"] = cfg.seed
    _write_json(summary_path, summary)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="matorus",
        description="Complex Monge-Ampere laboratory on Hermitian tori",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        if args.out:
            # Before the config is read, so a config that fails to load
            # leaves no earlier run's summary in the --out directory.
            Path(args.out, "summary.json").unlink(missing_ok=True)
        cfg = load_config(args.config, args.task, args.seed, args.out)
        log.info("running task %s (grid n=%d N=%d, seed %d)",
                 cfg.task, cfg.grid.complex_dim, cfg.grid.points_per_axis, cfg.seed)
        run(cfg)
        log.info("task %s finished", cfg.task)
        return 0
    except MatorusError as exc:
        print(json.dumps({"error": exc.payload()}, sort_keys=True))
        return 1
    except Exception as exc:
        payload = {"type": "internal", "exception": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"error": payload}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
