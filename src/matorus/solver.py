"""Complex Monge-Ampere operator, Newton iteration, and the continuity
method on the torus.

The equation solved for a pair (phi, b), b a scalar coupled to phi, is

    log det(g + Hess phi) - log det g = F + b,
    g + Hess phi > 0 at every grid point,

with Hess the complex Hessian. Newton's method linearizes the left side
to the canonical Laplacian of the current solution metric; each step
solves the bordered system [laplacian, -1; constraint-row, 0] where the
constraint pins the conformal-weight-weighted mean of phi to zero, by
``linsolve.solve_constrained`` with the ``laplacian`` kernel and the
planes of the inverse solution metric. On output phi is re-normalized
to sup phi = 0 (the equation is invariant under constant shifts of phi,
so b is unchanged by the shift). A warm start is shifted the other way
on input, to zero weighted mean, so that the first correction is not
spent on the constant gauge shift of a sup-normalized iterate.

The continuity driver marches t from 0 to 1 on the right-hand sides t*F,
warm-starting each Newton solve from the previous step. The first step is
``t_step_initial``; the step doubles after each accepted step, clipped at
1 - t, and halves after each rejected one (recorded in
``SolveResult.rejected``).

The nested driver ``nested_solve`` (the ``solve`` task's solver) is
nested iteration, the "full multigrid" start (Brandt, Math. Comp. 31,
1977): it runs the continuation on the coarse grid N_c = max(8,
2*(N//4)), prolongs phi to N by trigonometric interpolation
(``grid.resample``) and finishes with Newton at t = 1 on N from (phi, b)
of the coarse grid, with the fine constraint weights. The coarse problem
is g and F resampled to N_c, with its own conformal weight, and is solved
by ``nested_solve`` again, so N = 24 runs 24 -> 12 -> 8. On N = 8,
where N_c = N, it is ``continuity_solve``. The solution is smooth,
so the coarse b is already close and the finish takes a couple of Newton
iterations; the coarse result is kept in ``SolveResult.coarse``, and
|b - coarse b| estimates the discretization error.

Both warm-started drivers, ``nested_solve`` from the coarse grid and
``estimates.sweep`` from the nearest solved scale, end in one shared
finish, ``newton_finish``: Newton at t = 1 from the given start, and if
the start or Newton fails (a stalled continuation, Newton, positivity,
Krylov or conformal-weight failure), ``continuity_solve`` on the same
grid with the failure recorded first in ``rejected`` as (1.0, error
code).

Each Newton correction is an inexact solve: LGMRES runs to the relative
tolerance max(linear_tol, min(0.1, |r|^2), 0.1 * newton_tol / |r|), where
|r| is the sup-norm of the current log residual. A forcing term of order
|r| keeps Newton's quadratic convergence (Dembo, Eisenstat and Steihaug,
SIAM J. Numer. Anal. 19, 1982). The last term stops each solve near the
absolute accuracy newton_tol / 10: close to the solution a relative
tolerance alone asks for less than rounding and LGMRES stalls (Eisenstat
and Walker, SIAM J. Sci. Comput. 17, 1996). The final residual is ~1e-11
rather than ~1e-16, still below ``newton_tol``.

``SolverConfig`` takes finite numbers > 0 for its tolerances, steps and
damping and integers >= 1 for its iteration counts, never booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .errors import (
    ConfigError,
    ContinuationStalled,
    GauduchonKernelError,
    LinearSolverStalled,
    MaxItersExceeded,
    NotPositiveError,
    PositivityLost,
)
from .geometry import canonical_laplacian, gauduchon_weight
from .grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    _eigmin_grid,
    _require_spectral,
    complex_hessian,
    det,
    inverse,
    resample,
)
from .linsolve import laplacian, laplacian_planes, solve_constrained

_MIN_LINE_SEARCH_STEP = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton_iters: int = 30
    t_step_initial: float = 0.1
    t_step_min: float = 1e-3
    damping: float = 0.5
    linear_tol: float = 1e-12
    linear_maxiter: int = 30

    def __post_init__(self):
        for name in ("newton_tol", "t_step_initial", "t_step_min", "damping", "linear_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
                raise ConfigError(f"solver config field {name} must be a finite number > 0")
        for name in ("max_newton_iters", "linear_maxiter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ConfigError(f"solver config field {name} must be an integer >= 1")
        if not (self.t_step_min <= self.t_step_initial <= 1.0):
            raise ConfigError("need t_step_min <= t_step_initial <= 1")
        if self.damping >= 1.0:
            raise ConfigError("damping factor must be < 1")


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


def linearized_apply(gprime: HermitianField, eta: ScalarField) -> ScalarField:
    """Derivative of phi -> log det(g + Hess phi): the canonical Laplacian
    of the solution metric applied to eta."""
    return canonical_laplacian(gprime, eta)


def _constraint_weights(g: HermitianField, vweight: ScalarField | None = None) -> np.ndarray:
    """Normalized v det g, the weights of the Newton constraint row; solves
    for the conformal weight v of g when it is not given."""
    if vweight is None:
        _, vweight = gauduchon_weight(g)
    w = vweight.values * det(g)
    return w / w.sum()


def newton_solve(
    g: HermitianField,
    F_target: ScalarField,
    config: SolverConfig | None = None,
    initial: tuple | None = None,
    constraint_weights: np.ndarray | None = None,
    t_label: float = 1.0,
) -> SolveResult:
    """Newton iteration for (phi, b) at a fixed right-hand side.

    The linear constraint pins the weighted mean of phi; the returned phi
    is shifted to sup phi = 0, which leaves the equation and b unchanged.
    """
    config = config or SolverConfig()
    grid = g.grid
    _require_spectral(grid, "solving", ConfigError)
    n = grid.complex_dim
    g = g.as_metric()
    w = _constraint_weights(g) if constraint_weights is None else constraint_weights

    if initial is None:
        phi = np.zeros(grid.shape)
        b = 0.0
    else:
        phi0, b = initial
        phi = np.array(phi0.values if isinstance(phi0, ScalarField) else phi0, dtype=np.float64)
        # Start in the gauge of the constraint row, so the first correction
        # is not spent on a constant shift.
        phi -= float((w * phi).sum() / w.sum())

    logdet_g = np.log(det(g))
    gp = g.values + complex_hessian(phi, grid)
    emin = _eigmin_grid(gp, n)
    emin_cur = float(emin.min())
    if emin_cur <= 0.0:
        raise NotPositiveError(
            f"initial iterate is not positive-admissible: min eigenvalue {emin_cur:.3e}"
        )

    history = []
    for _ in range(config.max_newton_iters):
        gp_field = HermitianField(grid, gp)
        residual = np.log(det(gp_field)) - logdet_g - F_target.values - float(b)
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

        eta, db = solve_constrained(
            laplacian,
            laplacian_planes(inverse(gp_field)),
            rhs=-residual,
            weights=w,
            constraint_rhs=-float((w * phi).sum()),
            grid=grid,
            rtol=max(
                config.linear_tol, min(0.1, res_norm**2), 0.1 * config.newton_tol / res_norm
            ),
            maxiter=config.linear_maxiter,
        )

        h_eta = complex_hessian(eta, grid)
        alpha = 1.0
        while True:
            emin_trial = float(_eigmin_grid(gp + alpha * h_eta, n).min())
            if emin_trial > 0.1 * emin_cur:
                break
            alpha *= config.damping
            if alpha < _MIN_LINE_SEARCH_STEP:
                raise PositivityLost(
                    "line search cannot keep the solution metric positive "
                    f"(min eigenvalue {emin_trial:.3e} at step {alpha:.1e})"
                )
        phi = phi + alpha * eta
        b = float(b) + alpha * db
        gp = gp + alpha * h_eta
        emin_cur = emin_trial

    raise MaxItersExceeded(
        f"Newton did not reach tolerance {config.newton_tol:.1e} in "
        f"{config.max_newton_iters} iterations (last residual {history[-1]:.3e})"
    )


def continuity_solve(
    g: HermitianField,
    F: ScalarField,
    config: SolverConfig | None = None,
    initial: tuple | None = None,
    constraint_weights: np.ndarray | None = None,
) -> SolveResult:
    """March the family log det(g + Hess phi_t) - log det g = t F + b_t
    from t = 0 to t = 1 with adaptive steps and warm starts.

    ``constraint_weights`` (see ``_constraint_weights``) lets a caller that
    solves several right-hand sides on one metric solve its conformal
    weight once.
    """
    config = config or SolverConfig()
    grid = g.grid
    g = g.as_metric()
    w = _constraint_weights(g) if constraint_weights is None else constraint_weights

    if initial is None:
        phi, b = np.zeros(grid.shape), 0.0
    else:
        phi0, b = initial
        phi = np.array(phi0.values if isinstance(phi0, ScalarField) else phi0, dtype=np.float64)
        emin0 = float(_eigmin_grid(g.values + complex_hessian(phi, grid), grid.complex_dim).min())
        if emin0 <= 0.0:
            raise NotPositiveError(
                f"initial iterate is not positive-admissible: min eigenvalue {emin0:.3e}"
            )

    trace = []
    rejected = []
    last = None
    t, step = 0.0, config.t_step_initial
    while t < 1.0:
        t_next = 1.0 if t + step >= 1.0 - 1e-12 else t + step
        target = ScalarField(grid, t_next * F.values)
        try:
            last = newton_solve(
                g, target, config,
                initial=(phi, b),
                constraint_weights=w,
                t_label=t_next,
            )
        except (MaxItersExceeded, PositivityLost, LinearSolverStalled, NotPositiveError) as exc:
            rejected.append((t_next, exc.code))
            step *= 0.5
            if step < config.t_step_min:
                raise ContinuationStalled(
                    f"continuation step fell below {config.t_step_min:.1e} at t={t_next:.4f}: {exc}",
                    rejected=rejected,
                ) from exc
            continue
        phi, b = last.phi.values, last.b
        trace.extend(last.t_trace)
        t = t_next
        step = 2.0 * step

    return SolveResult(
        phi=last.phi,
        b=last.b,
        t_trace=trace,
        min_eigen_gprime=last.min_eigen_gprime,
        residual_history=last.residual_history,
        rejected=rejected,
    )


# Failures of a solve that the continuation may still get past.
_RECOVERABLE = (
    ContinuationStalled,
    GauduchonKernelError,
    LinearSolverStalled,
    MaxItersExceeded,
    NotPositiveError,
    PositivityLost,
)


def newton_finish(
    g: HermitianField,
    F: ScalarField,
    config: SolverConfig,
    start,
    constraint_weights: np.ndarray,
) -> SolveResult:
    """Newton at t = 1 on F from ``start()``, a (phi, b) pair on g's grid;
    if ``start()`` or Newton fails recoverably, ``continuity_solve`` on
    g's grid instead, with the failure recorded first in ``rejected`` as
    (1.0, error code), also in the ``ContinuationStalled`` it may raise.

    A finish that converged has an empty ``rejected``, a fallback never.
    """
    try:
        return newton_solve(g, F, config, initial=start(), constraint_weights=constraint_weights)
    except _RECOVERABLE as exc:
        failed = (1.0, exc.code)
    try:
        result = continuity_solve(g, F, config, constraint_weights=constraint_weights)
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

    fine = newton_finish(g, F, config, prolonged_coarse_solution, _constraint_weights(g))
    return fine if fine.rejected else replace(fine, coarse=coarse)
