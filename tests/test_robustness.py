"""Error-path and dimension-3 coverage."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matorus.cli import main
from matorus.errors import (
    FieldFormatError,
    GauduchonKernelError,
    NotPositiveError,
)
from matorus.estimates import exp_moment_constant
from matorus.fieldio import deserialize, serialize
from matorus.geometry import _finish_weight
from matorus.grid import (
    GridSpec,
    ScalarField,
    ddbar,
    det,
    identity_metric,
)
from matorus.solver import SolverConfig, continuity_solve, newton_solve

from random_fields import random_metric, random_trig_field


def test_gauduchon_kernel_positivity_guard(grid8):
    g = identity_metric(grid8)
    v = np.ones(grid8.shape)
    v[0, 0, 0, 0] = -0.5
    with pytest.raises(GauduchonKernelError):
        _finish_weight(g, v)


def test_error_payloads():
    e = NotPositiveError("bad", worst_point=(1, 2, 3, 4), worst_eigenvalue=-0.5)
    p = e.payload()
    assert p["type"] == "not_positive"
    assert p["worst_point"] == [1, 2, 3, 4]
    assert p["worst_eigenvalue"] == -0.5
    f = FieldFormatError("mismatch", expected={"n": 2}, found={"n": 3})
    q = f.payload()
    assert q["expected"] == {"n": 2} and q["found"] == {"n": 3}


def test_fieldio_invalid_grid_header(tmp_path):
    from matorus.fieldio import MAGIC, VERSION, _HEADER

    path = tmp_path / "bad.field"
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 5, 8, 0))
    with pytest.raises(FieldFormatError) as exc:
        deserialize(path)
    assert exc.value.found == {"n": 5, "N": 8, "kind": 0}


def test_verify_task_dumps_failure_artifacts(tmp_path, monkeypatch):
    import matorus.cli as cli_mod

    def fake_fuzz(seed):
        return {
            "seed": seed,
            "counts": {"trace_inequality": {"passed": 0, "total": 1}},
            "failures": [{"check": "trace_inequality", "data": {"g": [[1.0]]}}],
        }

    monkeypatch.setattr(cli_mod, "run_identity_fuzz", fake_fuzz)
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"grid": {"complex_dim": 2, "points_per_axis": 8}}))
    assert main(["verify-identities", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    artifact = json.loads((tmp_path / "o" / "identity_failure_000.json").read_text())
    assert artifact["check"] == "trace_inequality"
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["failures"] == 1


def test_cli_explicit_field_files(tmp_path, rng):
    grid = GridSpec(2, 8)
    g = random_metric(grid, rng, amplitude=0.2)
    F = random_trig_field(grid, rng, amplitude=0.3, bandwidth=1)
    serialize(g, tmp_path / "g.field")
    serialize(F, tmp_path / "F.field")
    cfg = tmp_path / "solve.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"complex_dim": 2, "points_per_axis": 8},
                "metric": {"kind": "explicit", "path": str(tmp_path / "g.field")},
                "rhs": {"path": str(tmp_path / "F.field")},
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["sup_residual"] <= 1e-10
    assert abs(summary["b"]) <= 0.3 + 1e-8


def test_metric_from_spec_kinds(grid8, rng):
    from matorus.errors import ConfigError
    from matorus.problems import metric_from_spec

    flat = metric_from_spec(grid8, {"kind": "flat"})
    assert np.max(np.abs(flat.values - np.eye(2))) == 0.0
    kp = metric_from_spec(grid8, {"kind": "kaehler_perturbation", "f": "0.005*cos(2*pi*x1)"})
    from matorus.geometry import defects

    assert defects(kp).kaehler_defect < 1e-10
    with pytest.raises(ConfigError):
        metric_from_spec(grid8, {"kind": "spherical"})
    with pytest.raises(ConfigError):
        metric_from_spec(grid8, {"kind": "conformal"})
    with pytest.raises(ConfigError):
        metric_from_spec(grid8, "flat")


def test_rhs_file_with_nan_rejected(tmp_path, grid8):
    from matorus.errors import GridMismatchError
    from matorus.fieldio import _HEADER
    from matorus.problems import rhs_from_spec

    # A ScalarField refuses NaN, so the NaN is written into the payload.
    path = tmp_path / "F.field"
    serialize(ScalarField(grid8, np.zeros(grid8.shape)), path)
    raw = bytearray(path.read_bytes())
    raw[_HEADER.size:_HEADER.size + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(GridMismatchError):
        rhs_from_spec(grid8, {"path": str(path)})


def test_prescribe_with_h_file(tmp_path, rng):
    grid = GridSpec(2, 8)
    h = random_trig_field(grid, rng, amplitude=0.1, bandwidth=1)
    serialize(h, tmp_path / "h.field")
    cfg = tmp_path / "p.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"complex_dim": 2, "points_per_axis": 8},
                "metric": {"kind": "conformal", "h": "0.15*cos(2*pi*x2)"},
                "psi": {"h_path": str(tmp_path / "h.field")},
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    assert main(["prescribe-ricci", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_ricci_error"] < 1e-6


def test_continuity_step_halving_recovers():
    grid = GridSpec(2, 8)
    rng = np.random.default_rng(9)
    g = identity_metric(grid)
    F = random_trig_field(grid, rng, amplitude=2.0, bandwidth=1)
    # a full step to t=1 cannot converge within the iteration cap; the
    # driver must halve at least once and still reach t=1
    cfg = SolverConfig(t_step_initial=1.0, max_newton_iters=6, t_step_min=0.01)
    res = continuity_solve(g, F, cfg)
    assert res.t_trace[0][0] <= 0.5
    assert res.t_trace[-1][0] == 1.0
    assert res.residual_history[-1] <= 1e-10


def test_manufactured_recovery_n3(rng):
    grid = GridSpec(3, 8)
    g = identity_metric(grid)
    phi_star = random_trig_field(grid, rng, amplitude=0.008, bandwidth=1).values
    gp = (g + ddbar(ScalarField(grid, phi_star))).as_metric()
    F = ScalarField(grid, np.log(det(gp)) - np.log(det(g)) - 0.1)
    res = newton_solve(g, F)
    assert np.max(np.abs(res.phi.values - (phi_star - phi_star.max()))) < 1e-8
    assert res.b == pytest.approx(0.1, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    alphas=st.tuples(st.floats(0.1, 8.0), st.floats(0.1, 8.0)),
)
def test_exp_moment_monotone_hypothesis(seed, alphas):
    r = np.random.default_rng(seed)
    w = r.uniform(0.1, 1.0, size=64)
    w /= w.sum()
    phi = r.standard_normal(64)
    phi -= phi.max()
    lo, hi = min(alphas), max(alphas)
    assert exp_moment_constant(phi, w, lo) >= exp_moment_constant(phi, w, hi) - 1e-12
    assert exp_moment_constant(phi, w, hi) >= 0.0
