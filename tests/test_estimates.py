import numpy as np
import pytest

from matorus import cli, solver
from matorus.estimates import (
    ALPHA_GRID,
    SWEEP_CSV_COLUMNS,
    exp_moment_constant,
    levelset_measure,
    report,
    sweep,
    sweep_csv_rows,
)
from matorus.geometry import canonical_laplacian, trace_pair
from matorus.errors import ContinuationStalled, PositivityLost
from matorus.grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    complex_hessian,
    constant_field,
    identity_metric,
)
from matorus.problems import random_trig_field
from matorus.solver import SolverConfig, _constraint_weights, continuity_solve

from conftest import conformal_metric, count_weight_solves


CRITERION_8_SCALES = [0.25, 0.5, 1.0, 1.5, 2.0]


def _criterion_8_problem():
    """The metric and right-hand side of acceptance criterion 8."""
    grid = GridSpec(2, 8)
    rng = np.random.default_rng(88)
    c = grid.coordinates()
    h = ScalarField(
        grid,
        0.15 * np.cos(2 * np.pi * np.broadcast_to(c["x1"], grid.shape))
        + 0.15 * np.sin(2 * np.pi * np.broadcast_to(c["y2"], grid.shape)),
    )
    return conformal_metric(grid, h), random_trig_field(grid, rng, amplitude=1.0, bandwidth=1)


def _cold(g, F, s, config=None):
    """The continuation from t = 0 at s * F, with the sweep's weights."""
    return continuity_solve(
        g, ScalarField(F.grid, s * F.values), config, constraint_weights=_constraint_weights(g)
    )


@pytest.fixture(scope="module")
def solved(request):
    import numpy as np
    from matorus.grid import GridSpec

    grid = GridSpec(2, 8)
    rng = np.random.default_rng(5)
    g = identity_metric(grid)
    F = random_trig_field(grid, rng, amplitude=0.8, bandwidth=1)
    res = continuity_solve(g, F)
    return grid, g, F, res


class TestReport:
    def test_trivial_solve_values(self, grid8):
        g = identity_metric(grid8)
        res = continuity_solve(g, constant_field(grid8))
        rep = report(g, res)
        assert rep.sup_tr == pytest.approx(2.0, abs=1e-12)
        assert rep.osc_phi == 0.0
        assert all(abs(v) < 1e-14 for v in rep.R_alpha.values())
        assert rep.C1 == pytest.approx(0.0, abs=1e-14)
        assert rep.levelset_measure == pytest.approx(1.0, abs=1e-14)
        assert all(c == pytest.approx(2.0, abs=1e-12) for _, c in rep.fitted_A_C)
        assert rep.L1_phi == 0.0
        assert rep.Q_max == pytest.approx(np.log(2.0), abs=1e-12)

    def test_exp_moment_nonnegative_and_monotone(self, grid8, rng):
        w = np.full(grid8.shape, 1.0 / grid8.npoints)
        for _ in range(20):
            phi = random_trig_field(grid8, rng, amplitude=rng.uniform(0.1, 2.0)).values
            phi = phi - phi.max()
            values = [exp_moment_constant(phi, w, a) for a in (0.25, 0.5, 1, 2, 4, 8)]
            assert all(v >= 0.0 for v in values)
            assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))

    def test_levelset_bound_on_random_fields(self, grid8, rng):
        # the level-set lower bound needs only the defining property of
        # the measured constant, so it holds for arbitrary fields
        w = np.full(grid8.shape, 1.0 / grid8.npoints)
        for _ in range(100):
            phi = random_trig_field(grid8, rng, amplitude=rng.uniform(0.2, 3.0)).values
            phi = phi - phi.max()
            c1 = exp_moment_constant(phi, w, 1.0)
            assert levelset_measure(phi, w, c1) >= np.exp(-c1) / 4.0

    def test_report_on_solve(self, solved):
        grid, g, F, res = solved
        rep = report(g, res)
        assert rep.sup_tr > 2.0
        assert rep.osc_phi == -res.phi.inf()
        assert rep.levelset_measure >= np.exp(-rep.C1) / 4.0
        assert 0 < rep.levelset_measure <= 1.0
        assert set(rep.R_alpha) == set(ALPHA_GRID)
        assert rep.C1 == rep.R_alpha[1.0]
        assert rep.L1_phi >= 0

    def test_trace_equals_n_plus_laplacian(self, solved):
        grid, g, F, res = solved
        gp = HermitianField(
            grid, g.values + complex_hessian(res.phi.values, grid), metric=True
        )
        tr, _ = trace_pair(g, gp)
        lap = canonical_laplacian(g, res.phi)
        assert np.max(np.abs(tr.values - 2.0 - lap.values)) < 1e-10

    def test_pointwise_inequalities_on_solve(self, solved):
        grid, g, F, res = solved
        gp = HermitianField(
            grid, g.values + complex_hessian(res.phi.values, grid), metric=True
        )
        tr, tr_rev = trace_pair(g, gp)
        ef = np.exp(F.values + res.b)
        rhs22 = tr_rev.values * ef  # n=2: also an identity
        assert np.all(tr.values <= rhs22 * (1 + 1e-10))
        assert np.max(np.abs(tr.values - rhs22) / (1.0 + tr.values)) < 1e-10


class TestSweep:
    def test_zero_scale_trivial_entry(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.5, bandwidth=1)
        entries = sweep(g, F, [0.0], SolverConfig())
        assert entries[0].error is None
        assert entries[0].report.osc_phi == 0.0
        assert entries[0].result.b == 0.0

    def test_conformal_weight_solved_once_per_sweep(self, grid8, rng, monkeypatch):
        g = conformal_metric(grid8, random_trig_field(grid8, rng, amplitude=0.1, bandwidth=1))
        F = random_trig_field(grid8, rng, amplitude=0.4, bandwidth=1)
        calls = count_weight_solves(monkeypatch)
        entries = sweep(g, F, [0.5, 1.0, 1.5])
        assert all(e.error is None for e in entries)
        assert len(calls) == 1

    def test_error_propagates_per_entry(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=1.0, bandwidth=1)
        cfg = SolverConfig(max_newton_iters=2, t_step_initial=0.5, t_step_min=0.25)
        entries = sweep(g, F, [0.0, 8.0], cfg)
        assert entries[0].error is None
        assert entries[1].error is not None
        assert "continuation_stalled" in entries[1].error

    def test_csv_rows_schema_and_determinism(self, grid8, rng, tmp_path):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.4, bandwidth=1)
        entries = sweep(g, F, [0.5, 1.0], SolverConfig())
        rows = sweep_csv_rows(entries)
        assert len(rows) == 2 * len(ALPHA_GRID) * 4
        assert all(set(r) <= set(SWEEP_CSV_COLUMNS) for r in rows)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli._write_csv(p1, SWEEP_CSV_COLUMNS, rows)
        cli._write_csv(p2, SWEEP_CSV_COLUMNS, rows)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(SWEEP_CSV_COLUMNS)

    def test_L1_bounded_on_flat_background(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.5, bandwidth=1)
        entries = sweep(g, F, [0.25, 1.0], SolverConfig())
        l1s = [e.report.L1_phi for e in entries]
        assert all(np.isfinite(v) for v in l1s)
        assert max(l1s) < 1.0


class TestChainedSweep:
    @pytest.mark.parametrize(
        "scales, starts",
        [
            (CRITERION_8_SCALES, [None, 0.25, 0.5, 1.0, 1.5]),
            (CRITERION_8_SCALES[::-1], [None, 2.0, 1.5, None, None]),
        ],
        ids=["given", "reversed"],
    )
    def test_b_matches_the_independent_continuation(self, scales, starts):
        g, F = _criterion_8_problem()
        entries = sweep(g, F, scales)
        assert [e.scale for e in entries] == scales
        assert [e.start for e in entries] == starts
        for e in entries:
            assert e.error is None and e.rejected == []
            assert abs(e.result.b - _cold(g, F, e.scale).b) <= 1e-10
            assert e.result.residual_history[-1] <= SolverConfig().newton_tol

    def test_fewer_operator_applications_than_per_scale_continuations(self, count_matvecs):
        g, F = _criterion_8_problem()
        w = _constraint_weights(g)
        count_matvecs.clear()
        for s in CRITERION_8_SCALES:
            continuity_solve(g, ScalarField(F.grid, s * F.values), constraint_weights=w)
        cold = len(count_matvecs)
        count_matvecs.clear()
        # The sweep's count includes its one conformal-weight solve.
        entries = sweep(g, F, CRITERION_8_SCALES)
        assert all(e.error is None for e in entries)
        assert len(count_matvecs) < cold

    def test_failed_warm_start_falls_back_to_the_continuation(self, monkeypatch):
        g, F = _criterion_8_problem()
        newton = solver.newton_solve

        def failing_finish(*args, **kwargs):
            # The continuation labels its attempts with t; the finish does not.
            if "t_label" not in kwargs:
                raise PositivityLost("forced")
            return newton(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", failing_finish)
        first, second = sweep(g, F, [1.0, 1.5])
        cold = _cold(g, F, 1.5)
        assert first.start is None and first.rejected == []
        assert second.start == 1.0
        assert second.rejected[0] == (1.0, "positivity_lost")
        assert second.rejected[1:] == cold.rejected
        assert second.result.rejected == second.rejected
        assert second.result.b == cold.b
        assert np.array_equal(second.result.phi.values, cold.phi.values)

    def test_stalled_fallback_lists_the_warm_start_first(self):
        grid = GridSpec(2, 8)
        g = identity_metric(grid)
        F = random_trig_field(grid, np.random.default_rng(3), amplitude=1.0, bandwidth=1)
        config = SolverConfig(max_newton_iters=2, t_step_initial=0.5, t_step_min=0.25)
        tiny, big = sweep(g, F, [1e-9, 8.0], config)
        assert tiny.error is None
        assert big.start == 1e-9
        assert big.error.startswith("continuation_stalled")
        with pytest.raises(ContinuationStalled) as stalled:
            _cold(g, F, 8.0, config)
        assert big.rejected[0][0] == 1.0
        assert big.rejected[0][1] in ("max_iters_exceeded", "positivity_lost")
        assert big.rejected[1:] == stalled.value.rejected

    def test_zero_scale_stays_trivial_and_scales_repeat(self):
        g, F = _criterion_8_problem()
        entries = sweep(g, F, [1.0, 0.0, 1.0, 0.0])
        assert [e.start for e in entries] == [None, None, 1.0, None]
        for zero in entries[1::2]:
            assert zero.result.b == 0.0
            assert not zero.result.phi.values.any()
            assert zero.report.osc_phi == 0.0
        first, again = entries[0].result, entries[2].result
        # Started from its own solution, Newton stops before any step.
        assert again.t_trace[0][:2] == (1.0, 0)
        assert again.b == first.b
        assert np.abs(again.phi.values - first.phi.values).max() <= 1e-14
