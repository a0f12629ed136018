"""Complex Monge-Ampere operator, Newton iteration, and the continuity
method on the torus.

The equation solved for a pair (phi, b), b a scalar coupled to phi, is

    log det(g + Hess phi) - log det g = F + b,
    g + Hess phi > 0 at every grid point,

with Hess the complex Hessian. Newton's method linearizes the left side
to the canonical Laplacian of the current solution metric; each step
solves the bordered system [laplacian, -1; mean, 0] for a correction of
zero grid mean and the change of b, by ``linsolve.solve_constrained``
with the ``laplacian`` kernel and the planes of adj(g') / det g' of the
solution metric g' (``linsolve.laplacian_planes``). Newton holds g' as
its n^2 real planes (``grid._planes``): the start's are those of g plus
the Hessian planes of phi (``grid._hessian_planes``), with no complex
matrix, and one pass of ``grid._adjugate`` per iterate gives both det g',
for the log residual, and adj(g'), for the planes. The solve also
returns the Hessian planes of the correction, from its preconditioner's
last pass, so each line-search trial adds the two plane by plane. The
equation is invariant under constant shifts of phi, so no correction is
spent on the constant of the start; on output phi is re-normalized to
sup phi = 0, which leaves b unchanged. That is the only normalization:
the Gauduchon metric enters the estimates, not the gauge of the Newton
step.

The continuity driver marches t from 0 to 1 on the right-hand sides t*F,
warm-starting each Newton solve from the previous step. It hands its
start to ``newton_solve``, the only code that checks a start, so a start
that is not positive (or not finite) ends the solve with
``NotPositiveError`` on its first attempt; the march retries only the
failures of Newton itself. The first step is ``t_step_initial``, by
default 1: the first attempt is one damped Newton solve at t = 1, which
on smooth data reaches the solution, since the positivity line search
keeps every iterate admissible (Deuflhard, Newton Methods for Nonlinear
Problems, Springer 2004, ch. 5). The march is the
fallback: the step halves after each rejected attempt (recorded in
``SolveResult.rejected``, so a failed first attempt is (1.0, code) and t =
0.5 comes next) and doubles after each accepted one, clipped at 1 - t.
The default cap of 12 Newton iterations bounds what a failed attempt at
t = 1 costs.

The nested driver ``nested_solve`` (the ``solve`` task's solver) is
nested iteration, the "full multigrid" start (Brandt, Math. Comp. 31,
1977): it runs the continuation on the coarse grid N_c = max(8,
2*(N//4)), prolongs phi to N by trigonometric interpolation
(``grid.resample``) and finishes with Newton at t = 1 on N from (phi, b)
of the coarse grid. The coarse problem is g and F resampled to N_c, and
is solved by ``nested_solve`` again, so N = 24 runs 24 -> 12 -> 8. On
N = 8, where N_c = N, it is ``continuity_solve``. The solution is smooth,
so the coarse b is already close and the finish takes a couple of Newton
iterations; the coarse result is kept in ``SolveResult.coarse``, and
|b - coarse b| estimates the discretization error.

Both warm-started drivers, ``nested_solve`` from the coarse grid and
``estimates.sweep`` from the nearest solved scale, end in one shared
finish, ``newton_finish``: Newton at t = 1 from the given start, and if
the start or Newton fails (a stalled continuation, Newton, positivity or
Krylov failure), ``continuity_solve`` on the same grid with the failure
recorded first in ``rejected`` as (1.0, error code).

Each Newton correction is an inexact solve: GMRES runs to the relative
tolerance max(1e-12, min(0.1, |r|^2), 0.1 * newton_tol / |r|), where
|r| is the sup-norm of the current log residual. A forcing term of
order |r| keeps Newton's quadratic convergence (Dembo, Eisenstat and Steihaug,
SIAM J. Numer. Anal. 19, 1982). The last term stops each solve near the
absolute accuracy newton_tol / 10: close to the solution a relative
tolerance alone asks for less than rounding and GMRES stalls (Eisenstat
and Walker, SIAM J. Sci. Comput. 17, 1996). The final residual is ~1e-11
rather than ~1e-16, still below ``newton_tol``.

``SolverConfig`` has four fields: ``newton_tol``, ``max_newton_iters``,
``t_step_initial`` and ``t_step_min``. It takes finite numbers > 0 for
the tolerance and the steps and an integer >= 1 for the iteration cap,
never booleans. The line-search damping 0.5, the forcing-term floor
1e-12 and the cap of 30 GMRES cycles of 30 steps per correction are
fixed constants of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .errors import (
    ConfigError,
    ContinuationStalled,
    LinearSolverStalled,
    MaxItersExceeded,
    NotPositiveError,
    PositivityLost,
)
from .grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    _adjugate,
    _eigmin_grid,
    _hessian_planes,
    _planes,
    _rfftn,
    complex_hessian,
    det,
    resample,
)
from .linsolve import laplacian, laplacian_planes, solve_constrained

# Line search: the step factor after a rejected trial, and the smallest step.
_DAMPING = 0.5
_MIN_LINE_SEARCH_STEP = 1e-10
# Newton corrections: the forcing-term floor and the cap on GMRES(30) cycles.
_LINEAR_TOL = 1e-12
_LINEAR_MAXITER = 30


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton_iters: int = 12
    t_step_initial: float = 1.0
    t_step_min: float = 1e-3

    def __post_init__(self):
        for name in ("newton_tol", "t_step_initial", "t_step_min"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
                raise ConfigError(f"solver config field {name} must be a finite number > 0")
        value = self.max_newton_iters
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
            raise ConfigError("solver config field max_newton_iters must be an integer >= 1")
        if not (self.t_step_min <= self.t_step_initial <= 1.0):
            raise ConfigError("need t_step_min <= t_step_initial <= 1")


@dataclass(frozen=True)
class SolveResult:
    """Converged solution: phi with sup phi = 0, the constant b, and the
    continuation/Newton diagnostics. ``rejected`` lists the (t, error code)
    of every continuation attempt that failed and halved the step.
    ``coarse`` is the coarse-grid solve a ``nested_solve`` finish started
    from, None for a single-grid solve."""

    phi: ScalarField
    b: float
    t_trace: list = field(default_factory=list)
    min_eigen_gprime: float = 0.0
    residual_history: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    coarse: SolveResult | None = None

    def __post_init__(self):
        if abs(self.phi.sup()) > 1e-13:
            raise ConfigError(f"phi is not sup-normalized: sup = {self.phi.sup():.3e}")
        if self.min_eigen_gprime <= 0.0:
            raise NotPositiveError(
                f"solution metric not positive: min eigenvalue {self.min_eigen_gprime:.3e}"
            )

    @property
    def newton_iters(self) -> int:
        return max(len(self.residual_history) - 1, 0)


def ma_log_residual(g: HermitianField, phi: ScalarField, F: ScalarField, b: float) -> ScalarField:
    """log det(g + Hess phi) - log det g - F - b, pointwise; raises
    NotPositiveError at the worst grid point if g + Hess phi is not positive."""
    gp = HermitianField(g.grid, g.values + complex_hessian(phi.values, g.grid), metric=True)
    return ScalarField(g.grid, np.log(det(gp)) - np.log(det(g)) - F.values - b)


def newton_solve(
    g: HermitianField,
    F_target: ScalarField,
    config: SolverConfig | None = None,
    initial: tuple | None = None,
    t_label: float = 1.0,
) -> SolveResult:
    """Newton iteration for (phi, b) at a fixed right-hand side.

    The iterate g + Hess phi is held as its planes. Each takes one
    adjugate pass, for both its log residual and its Laplacian's planes,
    adj / det. Each correction has zero grid mean; its Hessian
    planes come back from ``solve_constrained`` with it, and the line
    search's accepted trial is the next iterate.
    The returned phi is shifted to sup phi = 0, which leaves the equation
    and b unchanged.
    """
    config = config or SolverConfig()
    grid = g.grid
    g = g.as_metric()

    if initial is None:
        phi = np.zeros(grid.shape)
        b = 0.0
    else:
        phi0, b = initial
        phi = np.array(phi0.values if isinstance(phi0, ScalarField) else phi0, dtype=np.float64)

    logdet_g = np.log(det(g))
    gp = [a + h for a, h in zip(_planes(g.values), _hessian_planes(_rfftn(phi), grid))]
    emin_cur = float(_eigmin_grid(gp).min())
    if not emin_cur > 0.0:
        raise NotPositiveError(
            f"initial iterate is not positive-admissible: min eigenvalue {emin_cur:.3e}"
        )

    # gp, the planes of g + Hess phi, stays positive (the line search), so
    # it is not validated again.
    history = []
    for _ in range(config.max_newton_iters):
        adj, det_gp = _adjugate(gp)
        residual = np.log(det_gp) - logdet_g - F_target.values - float(b)
        res_norm = float(np.max(np.abs(residual)))
        history.append(res_norm)
        if res_norm <= config.newton_tol:
            shift = float(phi.max())
            phi_out = ScalarField(grid, phi - shift)
            return SolveResult(
                phi=phi_out,
                b=float(b),
                t_trace=[(t_label, len(history) - 1, res_norm)],
                min_eigen_gprime=emin_cur,
                residual_history=history,
            )

        planes = laplacian_planes(adj, 1.0 / det_gp)
        del adj, det_gp  # the planes alone live through the solve
        eta, db, hessian = solve_constrained(
            laplacian,
            planes,
            rhs=-residual,
            grid=grid,
            # res_norm * res_norm is inf for a huge residual, where res_norm**2 raises.
            rtol=max(_LINEAR_TOL, min(0.1, res_norm * res_norm), 0.1 * config.newton_tol / res_norm),
            maxiter=_LINEAR_MAXITER,
        )
        del planes  # and not through the line search

        alpha = 1.0
        while True:
            # The first trial that is not finite (an entry or its smallest
            # eigenvalue) ends the search instead of a warning: halving
            # down to the smallest step shrinks it by 2^-33 at most.
            with np.errstate(over="ignore", invalid="ignore"):
                trial = [p + alpha * h for p, h in zip(gp, hessian)]
                emin_trial = float(_eigmin_grid(trial).min())
            if not (math.isfinite(emin_trial) and all(np.isfinite(p).all() for p in trial)):
                raise PositivityLost(
                    "line search trial metric is not finite "
                    f"(min eigenvalue {emin_trial:.3e} at step {alpha:.1e})"
                )
            if emin_trial > 0.1 * emin_cur:
                break
            alpha *= _DAMPING
            if alpha < _MIN_LINE_SEARCH_STEP:
                raise PositivityLost(
                    "line search cannot keep the solution metric positive "
                    f"(min eigenvalue {emin_trial:.3e} at step {alpha:.1e})"
                )
        phi = phi + alpha * eta
        b = float(b) + alpha * db
        gp = trial
        emin_cur = emin_trial
        del hessian  # freed before the next solve, not when it returns

    raise MaxItersExceeded(
        f"Newton did not reach tolerance {config.newton_tol:.1e} in "
        f"{config.max_newton_iters} iterations (last residual {history[-1]:.3e})"
    )


def continuity_solve(
    g: HermitianField,
    F: ScalarField,
    config: SolverConfig | None = None,
    initial: tuple | None = None,
) -> SolveResult:
    """March the family log det(g + Hess phi_t) - log det g = t F + b_t
    from t = 0 to t = 1 with adaptive steps and warm starts. ``initial``
    is checked by ``newton_solve`` alone, whose ``NotPositiveError`` the
    march does not retry."""
    config = config or SolverConfig()
    g = g.as_metric()
    trace = []
    rejected = []
    start = initial
    t, step = 0.0, config.t_step_initial
    while t < 1.0:
        t_next = 1.0 if t + step >= 1.0 - 1e-12 else t + step
        target = ScalarField(g.grid, t_next * F.values)
        try:
            last = newton_solve(g, target, config, initial=start, t_label=t_next)
        except (MaxItersExceeded, PositivityLost, LinearSolverStalled) as exc:
            rejected.append((t_next, exc.code))
            step *= 0.5
            if step < config.t_step_min:
                raise ContinuationStalled(
                    f"continuation step fell below {config.t_step_min:.1e} at t={t_next:.4f}: {exc}",
                    rejected=rejected,
                ) from exc
            continue
        start = (last.phi.values, last.b)
        trace.extend(last.t_trace)
        t = t_next
        step = 2.0 * step

    return replace(last, t_trace=trace, rejected=rejected)


# Failures of a solve that the continuation may still get past.
_RECOVERABLE = (
    ContinuationStalled,
    LinearSolverStalled,
    MaxItersExceeded,
    NotPositiveError,
    PositivityLost,
)


def newton_finish(g: HermitianField, F: ScalarField, config: SolverConfig, start) -> SolveResult:
    """Newton at t = 1 on F from ``start()``, a (phi, b) pair on g's grid;
    if ``start()`` or Newton fails recoverably, ``continuity_solve`` on
    g's grid instead, with the failure recorded first in ``rejected`` as
    (1.0, error code), also in the ``ContinuationStalled`` it may raise.

    A finish that converged has an empty ``rejected``, a fallback never.
    """
    try:
        return newton_solve(g, F, config, initial=start())
    except _RECOVERABLE as exc:
        failed = (1.0, exc.code)
    try:
        result = continuity_solve(g, F, config)
    except ContinuationStalled as stalled:
        stalled.rejected.insert(0, failed)
        raise
    return replace(result, rejected=[failed] + result.rejected)


def nested_solve(
    g: HermitianField,
    F: ScalarField,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Solve on the coarse grid N_c = max(8, 2*(N//4)), then finish with
    Newton on N from the prolonged coarse solution (``newton_finish``).

    The coarse problem is g and F resampled to N_c; it is solved by
    ``nested_solve`` again, so 24 -> 12 -> 8, and a grid with N_c >= N
    runs ``continuity_solve``. If the coarse stage or the finish fails,
    the fine continuation runs instead and the failure is recorded first
    in ``rejected`` as (1.0, error code).
    """
    config = config or SolverConfig()
    grid = g.grid
    N_c = max(8, 2 * (grid.points_per_axis // 4))
    if N_c >= grid.points_per_axis:
        return continuity_solve(g, F, config)
    g = g.as_metric()
    coarse_grid = GridSpec(grid.complex_dim, N_c)
    coarse = None

    def prolonged_coarse_solution():
        nonlocal coarse
        coarse = nested_solve(
            HermitianField(coarse_grid, resample(g.values, coarse_grid), metric=True),
            ScalarField(coarse_grid, resample(F.values, coarse_grid)),
            config,
        )
        return resample(coarse.phi.values, grid), coarse.b

    fine = newton_finish(g, F, config, prolonged_coarse_solution)
    return fine if fine.rejected else replace(fine, coarse=coarse)
