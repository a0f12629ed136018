"""Prescribing the first Chern form in complex dimension two.

Pipeline: given a closed real (1,1)-form target psi, check the pairing
obstruction against the distinguished conformal metric, recover the
potential f from a Poisson solve in that metric, certify that the
leftover form

    a = Ric(omega) - psi - (1/2pi) ddbar f

pairs to zero against omega_G (being exact and orthogonal it must vanish),
then solve the Monge-Ampere equation with right-hand side f and verify the
prescribed Ricci form of the solution metric through the curvature
transgression identity

    Ric(omega') - Ric(omega) = -(1/2pi) ddbar log(det g' / det g).

Wedge pairings use ``geometry.pair_density`` / ``wedge_integral``; the
Poisson right-hand side is fixed by requiring the manufactured case
psi = Ric(omega) - (1/2pi) ddbar h to recover f = h - mean(h) exactly:

    laplacian_G f = 2 pi * pair_density(Ric - psi, g_G) / det(g_G).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, GridMismatchError, NotClosedError
from .geometry import (
    antisymmetric_pairs,
    form_norm_sq,
    gauduchon_metric,
    pair_density,
    ricci_form,
    wedge_integral,
)
from .grid import (
    HermitianField,
    ScalarField,
    complex_hessian,
    det,
    integrate,
    inverse,
    measure_weights,
)
from .linsolve import laplacian, laplacian_planes, solve_constrained
from .solver import SolverConfig, SolveResult, _constraint_weights, continuity_solve


@dataclass(frozen=True)
class PrescriptionResult:
    constraint_value: float
    f: ScalarField
    asd_residual: float
    a_l2_norm: float
    solve: SolveResult
    final_ricci_error: float


def closedness_defect(psi: HermitianField) -> float:
    """Sup-norm of the coefficients of d(psi)."""
    return float(np.max([np.max(np.abs(d)) for *_, d in antisymmetric_pairs(psi)]))


def constraint_integral(
    g: HermitianField,
    psi: HermitianField,
    omega_G: HermitianField,
    closed_tol: float = 1e-8,
) -> float:
    """Pairing of Ric(omega) - psi against the distinguished metric.

    This is the obstruction to prescribing psi as the Ricci form of a
    potential deformation of g; it vanishes exactly when Ric - psi is
    ddbar-exact.
    """
    if g.grid.complex_dim != 2:
        raise GridMismatchError("the prescription pipeline is defined for n=2 only")
    defect = closedness_defect(psi)
    if defect > closed_tol:
        raise NotClosedError(
            f"psi is not closed: d(psi) coefficient sup-norm {defect:.3e} > {closed_tol:.1e}"
        )
    return wedge_integral(ricci_form(g) - psi, omega_G)


def _poisson_solve_gauduchon(
    g_g: HermitianField,
    rhs: np.ndarray,
    config: SolverConfig,
) -> np.ndarray:
    """Solve laplacian_G f = rhs in the mean-zero gauge of g_G's measure."""
    w = measure_weights(g_g)
    f, _ = solve_constrained(
        laplacian,
        laplacian_planes(inverse(g_g)),
        rhs=rhs,
        weights=w,
        constraint_rhs=0.0,
        grid=g_g.grid,
        rtol=config.linear_tol,
        maxiter=config.linear_maxiter,
    )
    return f - (w * f).sum()


def prescribe_ricci(
    g: HermitianField,
    psi: HermitianField,
    config: SolverConfig | None = None,
    constraint_tol: float = 1e-8,
    closed_tol: float = 1e-8,
) -> PrescriptionResult:
    """Full prescription pipeline (n=2); see the module docstring."""
    config = config or SolverConfig()
    g = g.as_metric()
    grid = g.grid
    g_g, _, v = gauduchon_metric(g)

    c = constraint_integral(g, psi, g_g, closed_tol=closed_tol)
    if abs(c) > constraint_tol:
        raise ConstraintViolated(
            f"pairing obstruction {c:.6e} exceeds tolerance {constraint_tol:.1e}"
        )

    ric = ricci_form(g)
    diff = ric - psi
    rhs = 2.0 * np.pi * pair_density(diff, g_g) / det(g_g)
    f_vals = _poisson_solve_gauduchon(g_g, rhs, config)
    f = ScalarField(grid, f_vals)

    a = HermitianField(
        grid, diff.values - complex_hessian(f_vals, grid) / (2.0 * np.pi)
    )
    asd_residual = float(np.max(np.abs(pair_density(g_g, a))) / 2.0)
    l2_sq = integrate(ScalarField(grid, np.maximum(form_norm_sq(a, g_g).values, 0.0)), g_g)
    a_l2 = float(np.sqrt(max(l2_sq, 0.0)))

    solve = continuity_solve(g, f, config, constraint_weights=_constraint_weights(g, v))

    gp_vals = g.values + complex_hessian(solve.phi.values, grid)
    logratio = np.log(det(HermitianField(grid, gp_vals))) - np.log(det(g))
    ric_prime = ric.values - complex_hessian(logratio, grid) / (2.0 * np.pi)
    final_err = float(np.max(np.abs(ric_prime - psi.values)))

    return PrescriptionResult(
        constraint_value=c,
        f=f,
        asd_residual=asd_residual,
        a_l2_norm=a_l2,
        solve=solve,
        final_ricci_error=final_err,
    )
