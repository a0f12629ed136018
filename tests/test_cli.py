import json
import tracemalloc

import numpy as np
import pytest

from matorus.cli import main
from matorus.fieldio import deserialize, serialize
from matorus.geometry import defects, gauduchon_metric
from matorus.grid import GridSpec, ScalarField
from matorus.problems import metric_from_spec, random_trig_field


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(argv):
    return main(argv)


BASE_GRID = {"complex_dim": 2, "points_per_axis": 8}


def test_solve_flat_trivial(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "solve.json",
        {"grid": BASE_GRID, "metric": {"kind": "flat"}, "rhs": None,
         "output_dir": str(tmp_path / "out")},
    )
    assert run_cli(["solve", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["b"] == 0.0
    assert summary["sup_residual"] <= 1e-10
    phi = deserialize(tmp_path / "out" / "phi.field")
    assert np.max(np.abs(phi.values)) == 0.0


def test_solve_with_expression_rhs(tmp_path):
    cfg = write_config(
        tmp_path,
        "solve.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"},
            "rhs": {"expression": "0.4*cos(2*pi*x1)"},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert run_cli(["solve", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["b"]) <= 0.4 + 1e-8
    assert summary["report"]["osc_phi"] > 0
    assert summary["t_trace"][-1][0] == 1.0
    assert summary["rejected_steps"] == []


def test_determinism_bit_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "v.json",
        {"grid": BASE_GRID, "seed": 42},
    )
    assert run_cli(["verify-identities", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["verify-identities", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "summary.json").read_bytes()
    b = (tmp_path / "b" / "summary.json").read_bytes()
    assert a == b


def test_verify_identities_counts(tmp_path):
    cfg = write_config(tmp_path, "v.json", {"grid": BASE_GRID, "seed": 7})
    assert run_cli(["verify-identities", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["failures"] == 0
    for counts in summary["counts"].values():
        assert counts["passed"] == counts["total"]


def test_seed_override_changes_seed(tmp_path):
    cfg = write_config(tmp_path, "v.json", {"grid": BASE_GRID, "seed": 7})
    assert run_cli(["verify-identities", "--config", cfg, "--seed", "9",
                    "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["seed"] == 9


def test_sweep_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "flat"},
            "rhs": {"expression": "0.3*cos(2*pi*x1)"},
            "scales": [0.0, 1.0],
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert run_cli(["sweep", "--config", cfg]) == 0
    csv_text = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert csv_text[0].startswith("s,alpha,R_alpha,A,C_A")
    assert len(csv_text) == 1 + 2 * 16
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert all(e["status"] == "ok" for e in summary["entries"])


def test_sweep_summary_records_starts_and_runs_repeat_bytewise(tmp_path):
    cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"},
            "rhs": {"expression": "0.4*cos(2*pi*x1) + 0.3*sin(2*pi*y2)"},
            "scales": [0.5, 0.0, 1.0, 2.0],
        },
    )
    for out in ("a", "b"):
        assert run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert [e["start"] for e in summary["entries"]] == [None, None, 0.5, 1.0]
    assert all(e["rejected_steps"] == [] for e in summary["entries"])
    for name in ("summary.json", "sweep.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gauduchon_task(tmp_path):
    cfg = write_config(
        tmp_path,
        "g.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "conformal", "h": "0.25*cos(2*pi*x2)"},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert run_cli(["gauduchon", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["residual"] <= 1e-8
    assert summary["v_min"] > 0
    assert summary["input_defects"]["kaehler"] > 0
    u = deserialize(tmp_path / "out" / "u.field")
    assert u.grid == GridSpec(2, 8)


def test_prescribe_ricci_task(tmp_path):
    cfg = write_config(
        tmp_path,
        "p.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"},
            "psi": {"h_expression": "0.1*cos(2*pi*x1)"},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert run_cli(["prescribe-ricci", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["constraint_value"]) < 1e-10
    assert summary["final_ricci_error"] < 1e-6
    assert (tmp_path / "out" / "f.field").exists()
    assert (tmp_path / "out" / "phi.field").exists()


def test_report_task_from_files(tmp_path, rng):
    grid = GridSpec(2, 8)
    phi = random_trig_field(grid, rng, amplitude=0.01, bandwidth=1)
    phi = ScalarField(grid, phi.values - phi.values.max())
    serialize(phi, tmp_path / "phi.field")
    cfg = write_config(
        tmp_path,
        "r.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "flat"},
            "rhs": None,
            "phi": {"path": str(tmp_path / "phi.field")},
            "b": 0.0,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert run_cli(["report", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["report"]["osc_phi"] > 0
    assert (tmp_path / "out" / "report.csv").exists()


def test_invalid_config_errors_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"grid": 5}')
    rc = run_cli(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "config_error"
    assert not (tmp_path / "out" / "summary.json").exists()


def test_json_syntax_error_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"grid": }')
    rc = run_cli(["solve", "--config", str(path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert "line" in err["error"]["message"]


def test_task_mismatch_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"task": "sweep", "grid": BASE_GRID})
    rc = run_cli(["solve", "--config", cfg])
    assert rc == 1


def _stall_config(tmp_path):
    return write_config(
        tmp_path,
        "stall.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "flat"},
            "rhs": {"expression": "5*cos(2*pi*x1)"},
            "solver": {"max_newton_iters": 2, "t_step_initial": 0.5, "t_step_min": 0.25},
            "output_dir": str(tmp_path / "out"),
        },
    )


def test_solver_error_surfaces(tmp_path, capsys):
    rc = run_cli(["solve", "--config", _stall_config(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "continuation_stalled"
    assert not (tmp_path / "out" / "summary.json").exists()


def test_stalled_run_lists_rejected_steps(tmp_path, capsys):
    assert run_cli(["solve", "--config", _stall_config(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "continuation_stalled"
    assert [t for t, _ in err["rejected_steps"]] == [0.5, 0.25]
    assert all(code == "max_iters_exceeded" for _, code in err["rejected_steps"])


def _gauduchon_config(tmp_path, h="0.25*cos(2*pi*x2)", grid=BASE_GRID):
    return write_config(
        tmp_path,
        "g.json",
        {
            "grid": grid,
            "metric": {"kind": "conformal", "h": h},
            "output_dir": str(tmp_path / "out"),
        },
    )


def test_overflowing_metric_is_a_typed_error(tmp_path, capsys):
    rc = run_cli(["gauduchon", "--config", _gauduchon_config(tmp_path, h="800*cos(2*pi*x2)")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "grid_mismatch"
    assert not (tmp_path / "out" / "summary.json").exists()


def test_failed_run_removes_stale_summary(tmp_path, capsys):
    assert run_cli(["gauduchon", "--config", _gauduchon_config(tmp_path)]) == 0
    assert (tmp_path / "out" / "summary.json").exists()
    rc = run_cli(["gauduchon", "--config", _gauduchon_config(tmp_path, h="800*cos(2*pi*x2)")])
    assert rc == 1
    assert not (tmp_path / "out" / "summary.json").exists()


def test_unloadable_config_removes_stale_summary_in_out_dir(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run_cli(["gauduchon", "--config", _gauduchon_config(tmp_path), "--out", out]) == 0
    assert (tmp_path / "out" / "summary.json").exists()
    bad = write_config(
        tmp_path,
        "bad.json",
        {"grid": BASE_GRID, "metric": {"kind": "flat"}, "solver": {"damping": 2.0}},
    )
    capsys.readouterr()
    assert run_cli(["gauduchon", "--config", bad, "--out", out]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "config_error"
    assert not (tmp_path / "out" / "summary.json").exists()


def test_internal_error_names_exception_class(tmp_path, capsys, monkeypatch):
    from matorus import cli

    def boom(cfg, out):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli._RUNNERS, "gauduchon", boom)
    assert run_cli(["gauduchon", "--config", _gauduchon_config(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "internal", "exception": "ZeroDivisionError", "message": "boom"}
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("task", ["report", "gauduchon"])
def test_central_difference_grid_rejected_by_spectral_tasks(tmp_path, capsys, task):
    spectral = GridSpec(2, 8)
    serialize(ScalarField(spectral, np.zeros(spectral.shape)), tmp_path / "phi.field")
    cfg = write_config(
        tmp_path,
        "cd.json",
        {
            "grid": {**BASE_GRID, "diff_scheme": "central_difference_4"},
            "metric": {"kind": "conformal", "h": "0.25*cos(2*pi*x2)"},
            "rhs": None,
            "phi": {"path": str(tmp_path / "phi.field")},
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert run_cli([task, "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "grid_mismatch"
    assert not (tmp_path / "out" / "summary.json").exists()


def test_gauduchon_output_defect_is_the_weight_residual_of_one(tmp_path, count_transforms):
    assert run_cli(["gauduchon", "--config", _gauduchon_config(tmp_path)]) == 0
    # Only the input metric is differentiated: one antisymmetric_pairs pass,
    # one complex forward transform per matrix entry.
    assert count_transforms["fftn"] == 2 * 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    g_g, _, _ = gauduchon_metric(
        metric_from_spec(GridSpec(2, 8), {"kind": "conformal", "h": "0.25*cos(2*pi*x2)"})
    )
    assert summary["output_gauduchon_defect"] == defects(g_g).gauduchon_defect


def _assert_numeric_cells(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        for column, cell in zip(header, line.split(",")):
            if column != "error" and cell:
                float(cell)


def test_csv_cells_are_numbers(tmp_path, rng):
    sweep_cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "flat"},
            "rhs": {"expression": "0.3*cos(2*pi*x1)"},
            "scales": [1.0],
        },
    )
    assert run_cli(["sweep", "--config", sweep_cfg, "--out", str(tmp_path / "s")]) == 0
    _assert_numeric_cells(tmp_path / "s" / "sweep.csv")

    grid = GridSpec(2, 8)
    phi = random_trig_field(grid, rng, amplitude=0.01, bandwidth=1)
    serialize(ScalarField(grid, phi.values - phi.values.max()), tmp_path / "phi.field")
    report_cfg = write_config(
        tmp_path,
        "r.json",
        {"grid": BASE_GRID, "metric": {"kind": "flat"}, "phi": {"path": str(tmp_path / "phi.field")}},
    )
    assert run_cli(["report", "--config", report_cfg, "--out", str(tmp_path / "r")]) == 0
    _assert_numeric_cells(tmp_path / "r" / "report.csv")


def test_invalid_solver_value_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {"grid": BASE_GRID, "metric": {"kind": "flat"}, "solver": {"max_newton_iters": 0}},
    )
    rc = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "config_error"
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "patch",
    [
        {"grid": {"complex_dim": 2.9, "points_per_axis": 8}},
        {"grid": {"complex_dim": 2, "points_per_axis": 12.7}},
        {"grid": {"complex_dim": "3", "points_per_axis": 8}},
        {"grid": {"complex_dim": True, "points_per_axis": 8}},
        {"grid": {"complex_dim": 2, "points_per_axis": 8.0}},
        {"seed": True},
        {"seed": 1.5},
        {"seed": "7"},
    ],
)
def test_non_integer_grid_or_seed_is_a_config_error(tmp_path, capsys, patch):
    cfg = write_config(
        tmp_path, "bad.json", {"grid": BASE_GRID, "metric": {"kind": "flat"}, **patch}
    )
    rc = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "config_error"
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("N", [400, 100000])
def test_grid_larger_than_memory_is_a_config_error(tmp_path, capsys, N):
    cfg = write_config(
        tmp_path, "big.json", {"grid": {"complex_dim": 2, "points_per_axis": N}}
    )
    tracemalloc.start()
    try:
        rc = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "config_error"
    assert "exceeds physical memory" in err["error"]["message"]
    assert peak < 2**20
    assert not (tmp_path / "out" / "summary.json").exists()


def test_solve_summary_reports_the_coarse_solves(tmp_path):
    cfg = write_config(
        tmp_path,
        "solve.json",
        {
            "grid": {"complex_dim": 2, "points_per_axis": 12},
            "metric": {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"},
            "rhs": {"expression": "0.4*cos(2*pi*x1) + 0.3*sin(2*pi*y2)"},
        },
    )
    for out in ("a", "b"):
        assert run_cli(["solve", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    [coarse] = summary["coarse"]
    assert coarse["points_per_axis"] == 8
    assert [t for t, _, _ in coarse["t_trace"]] == pytest.approx([0.1, 0.3, 0.7, 1.0])
    assert summary["b_gap"] == abs(summary["b"] - coarse["b"])
    assert 0.0 < summary["b_gap"] < 1e-8
    # The top-level trace is the fine grid's own: one Newton finish at t = 1.
    [[t, iters, residual]] = summary["t_trace"]
    assert t == 1.0 and iters >= 1 and residual <= 1e-10
    assert summary["rejected_steps"] == []
    for name in ("summary.json", "phi.field"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_single_grid_solve_summary_has_no_coarse_solve(tmp_path):
    cfg = write_config(
        tmp_path, "solve.json", {"grid": BASE_GRID, "rhs": {"expression": "0.3*cos(2*pi*x1)"}}
    )
    assert run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["coarse"] == []
    assert summary["b_gap"] is None


@pytest.mark.parametrize(
    "task, patch",
    [
        ("solve", {"metric": {"kind": "conformal", "h": 5}}),
        ("solve", {"metric": {"kind": "kaehler_perturbation", "f": [1]}}),
        ("solve", {"metric": {"kind": "explicit", "path": 7}}),
        ("solve", {"rhs": {"expression": 3}}),
        ("solve", {"rhs": {"path": None}}),
        ("solve", {"rhs": {"path": "missing.field"}}),
        ("solve", {"output_dir": 5}),
        ("prescribe-ricci", {"psi": {"h_expression": 4}}),
        ("prescribe-ricci", {"psi": {"path": {"a": 1}}}),
        ("sweep", {"scales": ["x"]}),
        ("sweep", {"scales": [{"a": 1}]}),
        ("sweep", {"scales": [True]}),
        ("sweep", {"scales": [float("nan")]}),
        ("report", {"phi": {"path": 1.5}}),
        ("report", {"phi": {"path": "missing.field"}, "b": float("inf")}),
    ],
)
def test_malformed_spec_values_are_config_errors(tmp_path, capsys, monkeypatch, task, patch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "bad.json", {"grid": BASE_GRID, **patch})
    capsys.readouterr()
    assert run_cli([task, "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "config_error", err
    assert not (tmp_path / "out" / "summary.json").exists()
