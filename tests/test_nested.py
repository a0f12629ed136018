"""Trigonometric resampling between grids and the coarse-to-fine solve."""

import numpy as np
import pytest

from matorus import geometry, solver
from matorus.errors import ContinuationStalled
from matorus.expressions import sample_expression
from matorus.grid import GridSpec, identity_metric, resample
from matorus.problems import metric_from_spec
from matorus.solver import SolverConfig, continuity_solve, ma_log_residual, nested_solve

from conftest import CONF3D_H, CONF3D_RHS, count_weight_solves
from random_fields import random_metric, random_trig_field

RHS = "0.4*cos(2*pi*x1) + 0.3*sin(2*pi*y2)"


def _problem(N, h="0.2*cos(2*pi*x2)"):
    grid = GridSpec(2, N)
    g = metric_from_spec(grid, {"kind": "conformal", "h": h})
    return g, sample_expression(RHS, grid)


def _unit(values):
    return values / np.abs(values).max()


@pytest.mark.parametrize("N_c, N", [(8, 12), (8, 16), (12, 24), (10, 12)])
def test_resample_is_exact_below_the_coarse_nyquist(N_c, N):
    coarse, fine = GridSpec(2, N_c), GridSpec(2, N)
    bandwidth = N_c // 2 - 1
    # The same draws give the same trigonometric polynomial on both
    # grids, up to the sup-norm scaling taken over each grid.
    fc = random_trig_field(coarse, np.random.default_rng(N), bandwidth=bandwidth).values
    ff = random_trig_field(fine, np.random.default_rng(N), bandwidth=bandwidth).values
    up, down = resample(fc, fine), resample(ff, coarse)
    assert up.dtype == down.dtype == np.float64
    assert np.abs(_unit(up) - _unit(ff)).max() <= 1e-13
    assert np.abs(_unit(down) - _unit(fc)).max() <= 1e-13
    assert np.abs(resample(up, coarse) - fc).max() <= 1e-14
    # Unscaled: a fixed polynomial of degree N_c/2 - 1 in one variable.
    expr = f"0.3*cos(2*pi*({bandwidth}*x1 - y2)) + 0.2*sin(2*pi*(x2 + {bandwidth}*y1))"
    exact_c, exact_f = sample_expression(expr, coarse).values, sample_expression(expr, fine).values
    assert np.abs(resample(exact_c, fine) - exact_f).max() <= 1e-14
    assert np.abs(resample(exact_f, coarse) - exact_c).max() <= 1e-14


def test_resample_splits_and_folds_the_nyquist_mode():
    coarse, fine = GridSpec(2, 8), GridSpec(2, 12)
    nyquist = np.cos(4 * np.pi * np.broadcast_to(coarse.axis_coordinate(0), coarse.shape))
    up = resample(nyquist, fine)
    # cos(4 pi x1) = (e^{4 pi i x1} + e^{-4 pi i x1}) / 2 at the coarse nodes:
    # half the coefficient goes to each of the modes +-4 on the fine grid.
    x1 = np.broadcast_to(fine.axis_coordinate(0), fine.shape)
    assert np.abs(up - np.cos(4 * np.pi * x1)).max() <= 1e-14
    assert np.abs(resample(np.cos(4 * np.pi * x1), coarse) - nyquist).max() <= 1e-14


def test_nested_solve_on_the_coarsest_grid_is_the_continuation():
    g, F = _problem(8)
    nested, single = nested_solve(g, F), continuity_solve(g, F)
    assert nested.coarse is None
    assert np.array_equal(nested.phi.values, single.phi.values)
    assert nested.b == single.b
    assert nested.t_trace == single.t_trace
    assert nested.rejected == single.rejected == []


@pytest.mark.parametrize("N", [12, 16])
def test_nested_solve_matches_the_fine_continuation(N):
    g, F = _problem(N)
    config = SolverConfig()
    nested, single = nested_solve(g, F, config), continuity_solve(g, F, config)
    assert abs(nested.b - single.b) <= 1e-12
    assert float(np.abs(ma_log_residual(g, nested.phi, F, nested.b).values).max()) <= (
        config.newton_tol
    )
    assert nested.coarse.phi.grid == GridSpec(2, 8)
    assert [t for t, _, _ in nested.t_trace] == [1.0]
    assert nested.rejected == []


def test_nested_solve_pins_b_at_n3():
    # conf3d at N=8: the coarsest grid, where the nested solve is the continuation.
    grid = GridSpec(3, 8)
    g = metric_from_spec(grid, {"kind": "conformal", "h": CONF3D_H})
    res = nested_solve(g, sample_expression(CONF3D_RHS, grid))
    assert abs(res.b - -0.07325459265857069) <= 1e-12


def test_nested_solve_newton_budget(monkeypatch):
    # Every bordered Krylov solve counts: one per Newton iteration, failed
    # attempts included. The coarse stage is one Newton solve at t = 1,
    # not a march from t = 0.
    calls = []
    original = solver.solve_constrained

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_constrained", counted)
    monkeypatch.setattr(geometry, "solve_constrained", counted)
    g, F = _problem(12)
    res = nested_solve(g, F)
    assert res.rejected == [] and res.coarse.rejected == []
    assert len(calls) <= 10


def test_nested_solve_makes_no_conformal_weight_solve(monkeypatch):
    calls = count_weight_solves(monkeypatch)
    g, F = _problem(12)
    res = nested_solve(g, F)
    assert res.rejected == [] and res.coarse is not None
    assert len(calls) == 0


def test_nested_solve_krylov_budget_on_a_non_conformal_metric(count_matvecs):
    # The frozen-coefficient preconditioner is inexact here, so every
    # Newton step takes several operator applications.
    grid = GridSpec(2, 12)
    rng = np.random.default_rng(0)
    g = random_metric(grid, rng, amplitude=0.6)
    F = random_trig_field(grid, rng, amplitude=1.0, bandwidth=1)
    res = nested_solve(g, F)
    assert res.rejected == [] and res.coarse is not None
    assert len(count_matvecs) <= 90


def test_nested_solve_recurses_down_to_eight_points():
    g, F = _problem(24)
    res = nested_solve(g, F)
    sizes = []
    coarse = res.coarse
    while coarse is not None:
        sizes.append(coarse.phi.grid.points_per_axis)
        coarse = coarse.coarse
    assert sizes == [12, 8]
    assert res.residual_history[-1] <= SolverConfig().newton_tol


def test_failed_finish_falls_back_to_the_fine_continuation(monkeypatch):
    g, F = _problem(12)
    resample_ = solver.resample

    def bad_prolongation(values, grid_to):
        out = resample_(values, grid_to)
        if values.shape[0] < grid_to.points_per_axis and out.ndim == 2 * grid_to.complex_dim:
            # A large oscillation makes g + Hess phi indefinite.
            out = out + 5.0 * np.cos(2 * np.pi * grid_to.axis_coordinate(0))
        return out

    monkeypatch.setattr(solver, "resample", bad_prolongation)
    res, single = nested_solve(g, F), continuity_solve(g, F)
    assert res.rejected[0] == (1.0, "not_positive")
    assert res.rejected[1:] == single.rejected
    assert res.coarse is None
    assert np.array_equal(res.phi.values, single.phi.values)
    assert res.b == single.b
    assert res.t_trace == single.t_trace


def test_stalled_fallback_lists_the_coarse_failure_first():
    grid = GridSpec(2, 12)
    F = sample_expression("5*cos(2*pi*x1)", grid)
    config = SolverConfig(max_newton_iters=2, t_step_initial=0.5, t_step_min=0.25)
    with pytest.raises(ContinuationStalled) as stalled:
        nested_solve(identity_metric(grid), F, config)
    assert stalled.value.rejected == [
        (1.0, "continuation_stalled"), (0.5, "max_iters_exceeded"), (0.25, "max_iters_exceeded"),
    ]
