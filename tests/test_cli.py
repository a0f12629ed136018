import json
import tracemalloc

import numpy as np
import pytest

from matorus import fieldio
from matorus.cli import TASKS, main
from matorus.fieldio import deserialize, serialize
from matorus.geometry import defects, gauduchon_metric, gauduchon_residual
from matorus.grid import GridSpec, ScalarField
from matorus.problems import metric_from_spec

from conftest import peak_field_units
from random_fields import random_trig_field


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


def test_non_positive_metric_reports_its_worst_point(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "np.json",
        {"grid": BASE_GRID, "metric": {"kind": "kaehler_perturbation", "f": "5*cos(2*pi*x1)"}},
    )
    assert run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
    assert err["type"] == "not_positive"
    assert len(err["worst_point"]) == 4
    assert all(type(i) is int for i in err["worst_point"])
    assert "np.int" not in err["message"]
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


def test_explicit_fourier_scheme_matches_the_default(tmp_path):
    base = {"grid": BASE_GRID, "metric": {"kind": "conformal", "h": "0.25*cos(2*pi*x2)"}}
    explicit = {**base, "grid": {**BASE_GRID, "diff_scheme": "fourier_collocation"}}
    for name, config in (("default", base), ("explicit", explicit)):
        cfg = write_config(tmp_path, f"{name}.json", config)
        assert run_cli(["gauduchon", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    for artifact in ("summary.json", "u.field", "v.field"):
        a = (tmp_path / "default" / artifact).read_bytes()
        assert a == (tmp_path / "explicit" / artifact).read_bytes()


@pytest.mark.parametrize("scheme", ["upwind", "central_difference_4", 4, None])
def test_other_diff_scheme_is_a_grid_mismatch(tmp_path, capsys, scheme):
    cfg = write_config(
        tmp_path,
        "scheme.json",
        {"grid": {**BASE_GRID, "diff_scheme": scheme}, "metric": {"kind": "flat"}},
    )
    assert run_cli(["gauduchon", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "grid_mismatch"
    assert "diff_scheme" in err["error"]["message"]
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("key", ["points_per_axes", "n", "diffscheme"])
def test_unknown_grid_key_is_a_config_error(tmp_path, capsys, key):
    cfg = write_config(
        tmp_path,
        "typo.json",
        {"grid": {"complex_dim": 2, key: 8}, "metric": {"kind": "flat"}},
    )
    assert run_cli(["gauduchon", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "config_error"
    assert f"grid.{key}" in err["error"]["message"]
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("key", ["sovler", "scale", "metrics"])
def test_unknown_top_level_key_is_a_config_error(tmp_path, capsys, key):
    cfg = write_config(
        tmp_path,
        "typo.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "flat"},
            "rhs": {"expression": "0.4*cos(2*pi*x1)"},
            key: {"newton_tol": 1e-3},
        },
    )
    assert run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "config_error"
    assert repr(key) in err["error"]["message"]
    assert not (tmp_path / "out" / "summary.json").exists()


TASK_KEYS = {
    "scales": ("sweep", [1.0]),
    "psi": ("prescribe-ricci", {"h_expression": "0.1*cos(2*pi*x1)"}),
    "phi": ("report", {"path": "phi.field"}),
    "b": ("report", 0.0),
}


@pytest.mark.parametrize(
    "task, key",
    [
        (task, key)
        for task in TASKS
        for key, (owner, _) in TASK_KEYS.items()
        if task != owner
    ],
)
def test_task_key_is_rejected_by_other_tasks(tmp_path, capsys, task, key):
    out = tmp_path / "out"
    out.mkdir()
    (out / "summary.json").write_text("{}")
    config = {"grid": BASE_GRID, "metric": {"kind": "flat"}, key: TASK_KEYS[key][1]}
    cfg = write_config(tmp_path, "foreign.json", config)
    assert run_cli([task, "--config", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "config_error", err
    assert repr(key) in err["message"]
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "task, patch, named",
    [
        ("solve", {"metric": {"kind": "flat", "h": "0"}}, "'h'"),
        ("gauduchon", {"metric": {"kind": "conformal", "h": "0.2*cos(2*pi*x2)", "hh": "x"}}, "'hh'"),
        (
            "gauduchon",
            {"metric": {"kind": "kaehler_perturbation", "f": "0.01*cos(2*pi*x1)", "h": "0"}},
            "'h'",
        ),
        ("gauduchon", {"metric": {"kind": "explicit", "path": "g.field", "f": "0"}}, "'f'"),
        ("solve", {"rhs": {"expression": "0.4*cos(2*pi*x1)", "expresion": "0"}}, "'expresion'"),
        ("solve", {"rhs": {"expression": "0.4*cos(2*pi*x1)", "path": "g.field"}}, "exactly one"),
        (
            "prescribe-ricci",
            {"psi": {"h_expression": "0.1*cos(2*pi*x1)", "h_expresion": "0.5*cos(2*pi*x1)"}},
            "'h_expresion'",
        ),
        ("prescribe-ricci", {"psi": {"h_expression": "0", "path": "g.field"}}, "exactly one"),
        ("report", {"phi": {"path": "phi.field", "pth": "other.field"}}, "'pth'"),
    ],
    ids=[
        "flat",
        "conformal",
        "kaehler_perturbation",
        "explicit",
        "rhs-typo",
        "rhs-both",
        "psi-typo",
        "psi-both",
        "phi-typo",
    ],
)
def test_unknown_spec_key_is_a_config_error(tmp_path, capsys, monkeypatch, task, patch, named):
    monkeypatch.chdir(tmp_path)
    grid = GridSpec(**BASE_GRID)
    serialize(metric_from_spec(grid, {"kind": "flat"}), tmp_path / "g.field")
    cfg = write_config(tmp_path, "typo.json", {"grid": BASE_GRID, **patch})
    assert run_cli([task, "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "config_error", err
    assert named in err["message"]
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "task, patch, named",
    [
        ("solve", {"rhs": {"path": "g.field"}}, "rhs.path"),
        ("prescribe-ricci", {"psi": {"h_path": "g.field"}}, "psi.h_path"),
        ("report", {"phi": {"path": "g.field"}}, "phi.path"),
    ],
    ids=["rhs", "psi", "phi"],
)
def test_scalar_spec_file_must_hold_a_real_scalar_field(
    tmp_path, capsys, monkeypatch, task, patch, named
):
    monkeypatch.chdir(tmp_path)
    serialize(metric_from_spec(GridSpec(**BASE_GRID), {"kind": "flat"}), tmp_path / "g.field")
    cfg = write_config(tmp_path, "matrix.json", {"grid": BASE_GRID, **patch})
    assert run_cli([task, "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "config_error", err
    assert named in err["message"]
    assert not (tmp_path / "out" / "summary.json").exists()


def test_complex_scalar_field_file_is_a_field_format_error(tmp_path, capsys, monkeypatch):
    # Kind 1, once a complex scalar field, is no longer part of the format.
    monkeypatch.chdir(tmp_path)
    payload = np.ones(GridSpec(**BASE_GRID).shape, dtype="<c16").tobytes()
    (tmp_path / "f.field").write_bytes(fieldio._HEADER.pack(fieldio.MAGIC, 1, 2, 8, 1) + payload)
    cfg = write_config(tmp_path, "c.json", {"grid": BASE_GRID, "rhs": {"path": "f.field"}})
    assert run_cli(["solve", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "field_format", err
    assert "unknown field kind 1" in err["message"]
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


def test_gauduchon_output_defect_at_n3_matches_the_output_metric(tmp_path):
    # At n=3 the cofactors of e^u g, products of scaled entries, round
    # differently from e^{2u} times the cofactors of g: the task's defect
    # and that of the built output metric agree up to rounding only.
    grid = {"complex_dim": 3, "points_per_axis": 8}
    assert run_cli(["gauduchon", "--config", _gauduchon_config(tmp_path, grid=grid)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    g = metric_from_spec(GridSpec(3, 8), {"kind": "conformal", "h": "0.25*cos(2*pi*x2)"})
    g_g, _, _ = gauduchon_metric(g)
    expected = defects(g_g).gauduchon_defect
    m_one = summary["input_defects"]["gauduchon"]
    assert abs(summary["output_gauduchon_defect"] - expected) <= 1e-12 * m_one


def test_overflowing_weight_solve_stops_at_its_first_residual(tmp_path, capsys, monkeypatch):
    # The weight planes of this admitted metric reach 2.6e204, so the
    # Krylov solve's first true residual is not finite: the task ends
    # after M(1) and one application in the solve, with no warning,
    # instead of running 60 GMRES cycles (1,830 applications at most).
    from matorus import geometry

    applications = []
    laplacian_adjoint = geometry.laplacian_adjoint

    def counted_apply(planes, values, grid):
        applications.append(1)
        return laplacian_adjoint(planes, values, grid)

    monkeypatch.setattr(geometry, "laplacian_adjoint", counted_apply)
    grid = {"complex_dim": 3, "points_per_axis": 8}
    cfg = _gauduchon_config(tmp_path, h="235*cos(2*pi*x1)", grid=grid)
    assert run_cli(["gauduchon", "--config", cfg]) == 1
    err = json.loads(capsys.readouterr().out.splitlines()[-1])["error"]
    assert err["type"] == "linear_solver_stalled"
    assert len(applications) <= 2
    assert not (tmp_path / "out" / "summary.json").exists()


def test_gauduchon_runs_repeat_bytewise(tmp_path):
    cfg = _gauduchon_config(tmp_path)
    for out in ("a", "b"):
        assert run_cli(["gauduchon", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    for name in ("summary.json", "u.field", "v.field"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gauduchon_task_builds_the_weight_operator_of_g_once(tmp_path, monkeypatch):
    # The planes are built once, for g, and applied three times: to the
    # constant 1 once, M(1) being both the weight solve's right-hand side
    # and the input defect; once in the solve, which the start M^-1 b ends
    # on this conformal metric; and once to v = e^u, whose image gives the
    # solve's check, the residual and the output metric's defect.
    from matorus import cli, geometry

    builds, applications, images_of_one = [], [], []
    laplacian_planes, laplacian_adjoint = geometry.laplacian_planes, geometry.laplacian_adjoint

    def counted_planes(m, scale):
        builds.append(1)
        return laplacian_planes(m, scale)

    def counted_apply(planes, values, grid):
        applications.append(1)
        if np.all(values == 1.0):
            images_of_one.append(1)
        return laplacian_adjoint(planes, values, grid)

    monkeypatch.setattr(geometry, "laplacian_planes", counted_planes)
    for module in (cli, geometry):
        monkeypatch.setattr(module, "laplacian_adjoint", counted_apply, raising=False)
    assert run_cli(["gauduchon", "--config", _gauduchon_config(tmp_path)]) == 0
    assert len(builds) == 1
    assert len(applications) == 3
    assert len(images_of_one) == 1
    monkeypatch.undo()
    # The summary holds what the stand-alone calls give.
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    g = metric_from_spec(GridSpec(2, 8), {"kind": "conformal", "h": "0.25*cos(2*pi*x2)"})
    v = deserialize(tmp_path / "out" / "v.field")
    assert summary["residual"] == gauduchon_residual(g, v)
    assert summary["input_defects"]["gauduchon"] == defects(g).gauduchon_defect


@pytest.mark.parametrize(
    "N, budget",
    [
        # M, M(v), u and v are released before defects(g), whose own peak
        # above g's planes then sets the task's: 12.16 fields at N=8 and
        # 11.51 at N=24, the benchmark's grid. With u, v and the complex
        # g^-1 held it read 14.66 and 14.01.
        (8, 12.75),
        (24, 12.5),
    ],
)
def test_gauduchon_task_memory_budget(tmp_path, N, budget):
    cfg = _gauduchon_config(tmp_path, grid={"complex_dim": 2, "points_per_axis": N})
    assert peak_field_units(lambda: run_cli(["gauduchon", "--config", cfg]), GridSpec(2, N)) <= budget


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
    "key, value", [("linear_tol", 1e-12), ("linear_maxiter", 30), ("damping", 0.5)]
)
def test_fixed_solver_constant_is_not_a_config_key(tmp_path, capsys, key, value):
    # The Krylov tolerance, its iteration cap and the line-search damping
    # are constants of the solver, not settings: even the default value
    # is an unknown key.
    cfg = write_config(
        tmp_path,
        "fixed.json",
        {
            "grid": BASE_GRID,
            "metric": {"kind": "flat"},
            "rhs": {"expression": "0.4*cos(2*pi*x1)"},
            "solver": {key: value},
        },
    )
    assert run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "config_error"
    assert repr(key) in err["error"]["message"]
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
            "solver": {"t_step_initial": 0.1, "max_newton_iters": 30},
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
