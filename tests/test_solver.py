import numpy as np
import pytest

from matorus.errors import (
    ConfigError,
    ContinuationStalled,
    MaxItersExceeded,
    NotPositiveError,
)
from matorus.expressions import sample_expression
from matorus.geometry import canonical_laplacian
from matorus.grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    constant_field,
    ddbar,
    det,
    identity_metric,
    integrate,
)
from matorus.problems import metric_from_spec
from matorus.solver import (
    SolverConfig,
    SolveResult,
    continuity_solve,
    ma_log_residual,
    newton_solve,
)

from conftest import conformal_metric, peak_field_units, real_derivatives, sample
from random_fields import random_trig_field


def manufactured(grid, g, phi_star, b_star):
    gp = (g + ddbar(ScalarField(grid, phi_star))).as_metric()
    F = ScalarField(grid, np.log(det(gp)) - np.log(det(g)) - b_star)
    return F


def conformal_problem(grid):
    """The conformal metric h = 0.2 cos(2 pi x2) and the rhs
    0.4 cos(2 pi x1) + 0.3 sin(2 pi y2)."""
    g = conformal_metric(grid, sample(grid, lambda c: 0.2 * np.cos(2 * np.pi * c["x2"])))
    F = sample(
        grid, lambda c: 0.4 * np.cos(2 * np.pi * c["x1"]) + 0.3 * np.sin(2 * np.pi * c["y2"])
    )
    return g, F


def test_solver_config_validation():
    SolverConfig()
    with pytest.raises(ConfigError):
        SolverConfig(newton_tol=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(t_step_min=0.5, t_step_initial=0.2)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_newton_iters", 0),
        ("max_newton_iters", -1),
        ("max_newton_iters", 2.5),
        ("max_newton_iters", True),
        ("t_step_min", float("nan")),
        ("newton_tol", float("nan")),
        ("t_step_initial", float("nan")),
        ("t_step_min", float("inf")),
        ("newton_tol", True),
        ("newton_tol", "1e-10"),
    ],
)
def test_solver_config_rejects_invalid_values(field, value):
    with pytest.raises(ConfigError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_accepts_integers_for_numbers():
    cfg = SolverConfig(t_step_initial=1, max_newton_iters=np.int64(5))
    assert cfg.t_step_initial == 1 and cfg.max_newton_iters == 5


class TestLogResidual:
    def test_trivial_zero(self, grid8):
        g = identity_metric(grid8)
        r = ma_log_residual(g, constant_field(grid8), constant_field(grid8), 0.0)
        assert np.max(np.abs(r.values)) == 0.0

    def test_manufactured_zero(self, grid8, rng):
        g = identity_metric(grid8)
        phi = random_trig_field(grid8, rng, amplitude=0.01, bandwidth=1)
        F = manufactured(grid8, g, phi.values, 0.0)
        r = ma_log_residual(g, phi, F, 0.0)
        assert np.max(np.abs(r.values)) < 1e-11

    def test_diagonal_point_arithmetic(self, grid8):
        # det diag(2, 1/2) = 1, so its log-det term vanishes and the
        # residual reduces to -F - b
        vals = np.broadcast_to(np.diag([2.0, 0.5]).astype(complex), grid8.shape + (2, 2)).copy()
        g = HermitianField(grid8, vals, metric=True)
        assert abs(np.log(det(g)).max()) < 1e-14
        F = constant_field(grid8, 0.3)
        r = ma_log_residual(g, constant_field(grid8), F, 0.1)
        assert np.max(np.abs(r.values + 0.4)) < 1e-13

    def test_not_positive_reports_worst_point(self, grid8):
        g = identity_metric(grid8)
        c = grid8.coordinates()
        # Hessian of a cos profile dips below -1 somewhere
        phi = sample(grid8, lambda cc: 0.2 * np.cos(2 * np.pi * cc["x1"]))
        with pytest.raises(NotPositiveError) as exc:
            ma_log_residual(g, phi, constant_field(grid8), 0.0)
        assert exc.value.worst_point is not None
        assert exc.value.worst_eigenvalue <= 0.0


class TestLinearized:
    def test_constant_direction(self, grid8):
        g = identity_metric(grid8)
        out = canonical_laplacian(g, constant_field(grid8, 5.0))
        assert np.max(np.abs(out.values)) == 0.0

    def test_flat_cosine(self, grid16):
        g = identity_metric(grid16)
        eta = sample(grid16, lambda c: np.cos(2 * np.pi * c["x1"]))
        out = canonical_laplacian(g, eta)
        assert np.max(np.abs(out.values + np.pi**2 * eta.values)) < 1e-11

    def test_finite_difference_directions(self, grid8, rng):
        g = identity_metric(grid8)
        phi = random_trig_field(grid8, rng, amplitude=0.01, bandwidth=1)
        F = manufactured(grid8, g, phi.values, 0.0)
        gp = (g + ddbar(phi)).as_metric()
        base = ma_log_residual(g, phi, F, 0.0)
        eps = 1e-5
        for _ in range(10):
            eta = random_trig_field(grid8, rng, amplitude=0.03, bandwidth=1)
            pert = ma_log_residual(
                g, ScalarField(grid8, phi.values + eps * eta.values), F, 0.0
            )
            fd = (pert.values - base.values) / eps
            lin = canonical_laplacian(gp, eta).values
            rel = np.max(np.abs(fd - lin)) / np.max(np.abs(lin))
            assert rel <= 1e-5

    def test_finite_difference_first_order(self, grid8, rng):
        g = identity_metric(grid8)
        phi = random_trig_field(grid8, rng, amplitude=0.01, bandwidth=1)
        F = manufactured(grid8, g, phi.values, 0.0)
        gp = (g + ddbar(phi)).as_metric()
        base = ma_log_residual(g, phi, F, 0.0)
        eta = random_trig_field(grid8, rng, amplitude=0.05, bandwidth=1)
        lin = canonical_laplacian(gp, eta).values

        def fd_err(eps):
            pert = ma_log_residual(
                g, ScalarField(grid8, phi.values + eps * eta.values), F, 0.0
            )
            return np.max(np.abs((pert.values - base.values) / eps - lin))

        ratio = fd_err(1e-4) / fd_err(5e-5)
        assert 1.7 < ratio < 2.3


class TestNewton:
    def test_zero_rhs_trivial(self, grid8):
        g = identity_metric(grid8)
        res = newton_solve(g, constant_field(grid8))
        assert np.max(np.abs(res.phi.values)) == 0.0
        assert res.b == 0.0
        assert res.newton_iters == 0

    def test_manufactured_recovery(self, grid8, rng):
        c = grid8.coordinates()
        h = ScalarField(
            grid8, 0.15 * np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid8.shape))
        )
        g = conformal_metric(grid8, h)
        phi_star = random_trig_field(grid8, rng, amplitude=0.012, bandwidth=1).values
        b_star = 0.25
        F = manufactured(grid8, g, phi_star, b_star)
        res = newton_solve(g, F)
        want = phi_star - phi_star.max()
        assert np.max(np.abs(res.phi.values - want)) < 1e-9
        assert res.b == pytest.approx(b_star, abs=1e-10)

    def test_quadratic_convergence(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.5, bandwidth=1)
        res = newton_solve(g, F)
        hist = [r for r in res.residual_history if r > 1e-14]
        # superlinear tail: each pre-tolerance residual beats the 3/2 power
        # of its predecessor
        assert len(hist) >= 3
        for a, b in zip(hist[-3:-1], hist[-2:]):
            assert b <= a**1.5

    def test_correction_hessian_comes_from_the_krylov_solve(self, grid8, rng, monkeypatch):
        # The Hessian planes of each correction come back with the Krylov
        # solve's answer; only the start is differentiated, plane by plane.
        from matorus import solver

        calls = []
        original = solver._hessian_planes

        def counted(spec, grid):
            calls.append(1)
            return original(spec, grid)

        monkeypatch.setattr(solver, "_hessian_planes", counted)
        g = metric_from_spec(grid8, {"kind": "kaehler_perturbation", "f": "0.01*cos(2*pi*x1)"})
        F = random_trig_field(grid8, rng, amplitude=0.5, bandwidth=1)
        res = newton_solve(g, F)
        assert res.newton_iters >= 3
        assert len(calls) == 1
        monkeypatch.undo()
        assert float(np.max(np.abs(ma_log_residual(g, res.phi, F, res.b).values))) <= 1e-10

    @pytest.mark.parametrize("n, budget", [(2, 14.5), (3, 19.5)])
    def test_newton_memory_budget(self, n, budget):
        # In complex fields of peak_field_units, npoints * 16 bytes each
        # (ROADMAP quotes real fields, half that size). Newton holds the
        # iterate as its real planes; its adjugate and determinant are
        # freed once the operator planes are built, before the Krylov
        # solve, and those planes once the solve returns, before the line
        # search; one Krylov application holds one Hessian plane of its
        # correction at a time, and the n=3 smallest eigenvalue takes one
        # grid slab of matrices at a time: 14.32 and 19.07 fields. All n^2
        # planes of each application read 15.07 and 22.44. Each
        # correction's Hessian planes are freed once the iterate is
        # updated, before the next solve.
        grid = GridSpec(n, 8)
        g, F = conformal_problem(grid)
        assert peak_field_units(lambda: newton_solve(g, F), grid) <= budget

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_adjugate_pass_per_residual(self, n, monkeypatch):
        # One pass of grid._adjugate per iterate gives both det g' for its
        # log residual and adj(g') for the planes of its correction's
        # operator; the converged iterate takes its residual only.
        from matorus import solver

        calls = []
        original = solver._adjugate

        def counted(p):
            calls.append(1)
            return original(p)

        monkeypatch.setattr(solver, "_adjugate", counted)
        g, F = conformal_problem(GridSpec(n, 8))
        res = newton_solve(g, F)
        assert res.newton_iters >= 3
        assert len(calls) == res.newton_iters + 1

    def test_uniqueness_under_perturbed_initialization(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.5, bandwidth=1)
        r1 = newton_solve(g, F)
        pert = random_trig_field(grid8, rng, amplitude=0.005, bandwidth=1)
        r2 = newton_solve(g, F, initial=(pert.values, 0.1))
        assert np.max(np.abs(r1.phi.values - r2.phi.values)) <= 1e-8
        assert abs(r1.b - r2.b) <= 1e-8

    def test_near_converged_start_does_not_stall(self, grid8):
        # close to the solution a purely relative forcing term asks the
        # Krylov solve for an accuracy below rounding, and the solve stalls
        g, F = conformal_problem(grid8)
        ref = continuity_solve(g, F)
        bump = sample(grid8, lambda c: np.cos(2 * np.pi * c["x1"]))
        res = newton_solve(g, F, initial=(ref.phi.values + 1e-8 * bump.values, ref.b))
        assert res.residual_history[0] > SolverConfig().newton_tol
        assert res.residual_history[-1] <= SolverConfig().newton_tol
        assert abs(res.b - ref.b) <= 1e-12

    def test_warm_start_is_gauge_centred(self, grid8):
        # the converged phi is sup-normalized, far from zero mean; the
        # mean-zero corrections leave its constant alone, so the first
        # correction goes to the bump alone, which one Newton step removes
        g, F = conformal_problem(grid8)
        ref = continuity_solve(g, F)
        bump = sample(grid8, lambda c: np.cos(2 * np.pi * c["x1"]))
        res = newton_solve(g, F, initial=(ref.phi.values + 1e-8 * bump.values, ref.b))
        assert res.residual_history[0] > SolverConfig().newton_tol
        assert res.newton_iters == 1
        assert abs(res.b - ref.b) <= 1e-12

    def test_start_gauge_does_not_change_solution(self, grid8, rng):
        # Newton's corrections have zero grid mean, so a constant shift of
        # the start stays in every iterate and goes with sup phi = 0
        c = grid8.coordinates()
        h = ScalarField(
            grid8, 0.2 * np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid8.shape))
        )
        g = conformal_metric(grid8, h)
        F = random_trig_field(grid8, rng, amplitude=0.4, bandwidth=1)
        phi0 = 0.02 * sample(grid8, lambda c: np.cos(2 * np.pi * c["y1"])).values
        b0 = 0.1
        r1 = newton_solve(g, F, initial=(phi0, b0))
        r2 = newton_solve(g, F, initial=(phi0 + 0.3, b0))
        assert r1.newton_iters >= 2
        assert np.max(np.abs(r1.phi.values - r2.phi.values)) <= 1e-12
        assert abs(r1.b - r2.b) <= 1e-12

    def test_max_iters_exceeded(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=3.0, bandwidth=1)
        with pytest.raises(MaxItersExceeded):
            newton_solve(g, F, SolverConfig(max_newton_iters=2))

    def test_initial_must_be_admissible(self, grid8):
        g = identity_metric(grid8)
        bad = sample(grid8, lambda c: 0.2 * np.cos(2 * np.pi * c["x1"]))
        with pytest.raises(NotPositiveError):
            newton_solve(g, constant_field(grid8), initial=(bad.values, 0.0))

    def test_non_finite_initial_is_not_admissible(self, grid8):
        # The iterates are not revalidated as fields, so the admissibility
        # check is what rejects a NaN start.
        bad = np.zeros(grid8.shape)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(NotPositiveError):
            newton_solve(identity_metric(grid8), constant_field(grid8), initial=(bad, 0.0))


class TestContinuity:
    def test_zero_rhs_trivial_path(self, grid8):
        g = identity_metric(grid8)
        res = continuity_solve(g, constant_field(grid8))
        assert np.max(np.abs(res.phi.values)) == 0.0
        assert res.b == 0.0
        assert res.t_trace[-1][0] == 1.0
        assert all(it == 0 for _, it, _ in res.t_trace)

    def test_constant_rhs_saturates_b_bound(self, grid8):
        g = identity_metric(grid8)
        F = constant_field(grid8, 0.7)
        res = continuity_solve(g, F)
        assert np.max(np.abs(res.phi.values)) < 1e-9
        assert res.b == pytest.approx(-0.7, abs=1e-10)
        assert abs(res.b) <= 0.7 + 1e-8

    def test_b_bound_and_compatibility(self, grid8, rng):
        g = identity_metric(grid8)
        for _ in range(3):
            F = random_trig_field(grid8, rng, amplitude=rng.uniform(0.3, 1.0))
            res = continuity_solve(g, F)
            assert abs(res.b) <= np.max(np.abs(F.values)) + 1e-8
            gp = (g + ddbar(res.phi)).as_metric()
            lhs = integrate(ScalarField(grid8, np.exp(F.values + res.b)), g)
            rhs = integrate(constant_field(grid8, 1.0), gp)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_max_principle_at_discrete_argmax(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.8, bandwidth=1)
        res = continuity_solve(g, F)
        idx = np.unravel_index(np.argmax(res.phi.values), grid8.shape)
        grad_sup = max(np.max(np.abs(d.values)) for d in real_derivatives(F))
        cell_diag = np.sqrt(4.0) / grid8.points_per_axis
        tol = grad_sup * cell_diag + 1e-8
        assert F.values[idx] + res.b <= tol

    def test_warm_start_initial_perturbation_agrees(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.6, bandwidth=1)
        r1 = continuity_solve(g, F)
        pert = random_trig_field(grid8, rng, amplitude=0.004, bandwidth=1)
        r2 = continuity_solve(g, F, initial=(pert.values, 0.05))
        assert np.max(np.abs(r1.phi.values - r2.phi.values)) <= 1e-8
        assert abs(r1.b - r2.b) <= 1e-8

    def test_continuation_stalls_on_hopeless_config(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=5.0, bandwidth=1)
        cfg = SolverConfig(max_newton_iters=2, t_step_initial=0.5, t_step_min=0.25)
        with pytest.raises(ContinuationStalled):
            continuity_solve(g, F, cfg)

    def test_non_finite_trial_ends_the_line_search(self, grid8, monkeypatch):
        # The first Newton correction of a 1e300 right-hand side overflows
        # the smallest eigenvalue of every trial, so each continuation
        # attempt ends at its first trial. A RuntimeWarning is a test error.
        from matorus import solver

        trials = []
        real = solver._eigmin_grid
        monkeypatch.setattr(solver, "_eigmin_grid", lambda p: trials.append(1) or real(p))
        F = sample(grid8, lambda c: 1e300 * np.cos(2 * np.pi * c["x1"]))
        with pytest.raises(ContinuationStalled) as exc:
            continuity_solve(identity_metric(grid8), F)
        rejected = exc.value.rejected
        assert [code for _, code in rejected] == ["positivity_lost"] * len(rejected)
        assert "not finite" in str(exc.value)
        # One admissibility check of the start and one trial per attempt.
        assert len(trials) == 2 * len(rejected)

    @pytest.mark.parametrize("start", ["nan", "indefinite"])
    def test_start_that_is_not_positive_ends_the_solve_at_once(self, grid8, start, monkeypatch):
        # newton_solve is the only start check, and the march does not
        # retry its NotPositiveError: one attempt, then the error.
        from matorus import solver

        calls = []
        real = solver.newton_solve
        monkeypatch.setattr(solver, "newton_solve", lambda *a, **k: calls.append(1) or real(*a, **k))
        if start == "nan":
            phi = np.zeros(grid8.shape)
            phi[0, 0, 0, 0] = np.nan
        else:
            phi = sample(grid8, lambda c: 5.0 * np.cos(2 * np.pi * c["x1"])).values
        with pytest.raises(NotPositiveError, match="initial iterate is not positive-admissible"):
            continuity_solve(identity_metric(grid8), constant_field(grid8), initial=(phi, 0.0))
        assert len(calls) == 1

    def test_trace_records_path(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.5, bandwidth=1)
        res = continuity_solve(g, F, SolverConfig(t_step_initial=0.25))
        ts = [t for t, _, _ in res.t_trace]
        assert ts == sorted(ts)
        assert ts[-1] == 1.0
        assert all(r <= 1e-10 for _, _, r in res.t_trace)
        assert res.min_eigen_gprime > 0

    def test_default_path_doubles_step_up_to_one(self, grid8, rng):
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=0.5, bandwidth=1)
        res = continuity_solve(g, F, SolverConfig(t_step_initial=0.1, max_newton_iters=30))
        ts = [t for t, _, _ in res.t_trace]
        assert ts == pytest.approx([0.1, 0.3, 0.7, 1.0], abs=1e-12)
        assert ts[-1] == 1.0
        assert res.rejected == []
        one_step = continuity_solve(g, F, SolverConfig(t_step_initial=1.0))
        assert [t for t, _, _ in one_step.t_trace] == [1.0]
        assert np.max(np.abs(res.phi.values - one_step.phi.values)) <= 1e-10
        assert abs(res.b - one_step.b) <= 1e-10

    def test_overshoot_halves_and_is_recorded(self, grid8, rng):
        # after t = 0.7 the doubled step is clipped to t = 1, which five
        # Newton iterations cannot reach for this amplitude; the step
        # halves until an attempt converges and the path still ends at 1
        g = identity_metric(grid8)
        F = random_trig_field(grid8, rng, amplitude=2.0, bandwidth=1)
        res = continuity_solve(g, F, SolverConfig(max_newton_iters=5, t_step_initial=0.1))
        ts = [t for t, _, _ in res.t_trace]
        assert res.rejected
        assert all(code == "max_iters_exceeded" for _, code in res.rejected)
        assert ts[-1] == 1.0
        assert ts == sorted(ts)
        assert len(ts) > 4
        assert all(r <= 1e-10 for _, _, r in res.t_trace)

    @pytest.mark.parametrize("n", [2, 3])
    def test_default_solves_conformal_in_one_step(self, n):
        # The default first attempt is Newton at t = 1, and on this smooth
        # problem it converges: no march, nothing rejected.
        grid = GridSpec(n, 8)
        g = metric_from_spec(grid, {"kind": "conformal", "h": "0.2*cos(2*pi*x2)"})
        F = sample_expression("0.4*cos(2*pi*x1) + 0.3*sin(2*pi*y2)", grid)
        config = SolverConfig()
        res = continuity_solve(g, F, config)
        [(t, iters, r)] = res.t_trace
        assert t == 1.0 and iters >= 1 and r <= config.newton_tol
        assert res.rejected == []
        residual = ma_log_residual(g, res.phi, F, res.b)
        assert np.max(np.abs(residual.values)) <= config.newton_tol


class TestSpectralConvergence:
    def test_non_band_limited_manufactured_solution(self):
        # phi* = a exp(cos(2 pi x1)) is analytic but not band-limited;
        # with F built from the closed-form Hessian the discrete solve
        # carries genuine truncation error, which must decay spectrally
        a = 0.004
        errs = {}
        for N in (8, 16):
            grid = GridSpec(2, N)
            c = grid.coordinates()
            th = 2 * np.pi * np.broadcast_to(c["x1"], grid.shape)
            phi_star = a * np.exp(np.cos(th))
            h11 = np.pi**2 * a * np.exp(np.cos(th)) * (np.sin(th) ** 2 - np.cos(th))
            F = ScalarField(grid, np.log(1.0 + h11))
            res = continuity_solve(identity_metric(grid), F)
            errs[N] = np.max(np.abs(res.phi.values - (phi_star - phi_star.max())))
        assert errs[8] < 1e-4
        assert errs[16] < 1e-9
        assert errs[8] / errs[16] > 1e3


class TestSolveResult:
    def test_sup_normalization_validated(self, grid8):
        with pytest.raises(ConfigError):
            SolveResult(
                phi=constant_field(grid8, 1.0),
                b=0.0,
                t_trace=[],
                min_eigen_gprime=1.0,
                residual_history=[0.0],
            )
