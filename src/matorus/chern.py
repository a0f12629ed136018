"""Prescribing the first Chern form in complex dimension two.

Pipeline: given a closed real (1,1)-form target psi, check the pairing
obstruction against the distinguished conformal metric, recover the
potential f from a Poisson solve in that metric, certify that the
leftover form

    a = Ric(omega) - psi - (1/2pi) ddbar f

pairs to zero against omega_G (being exact and orthogonal it must vanish),
then solve the Monge-Ampere equation with right-hand side f and report
final_ricci_error = sup |Ric(omega') - psi| for the solution metric
g' = g + Hess phi; by the curvature transgression identity
Ric(omega') - Ric(omega) = -(1/2pi) ddbar log(det g' / det g), this is
the form the equation prescribes.

Wedge pairings use ``geometry.pair_density`` / ``wedge_integral``; the
Poisson right-hand side is fixed by requiring the manufactured case
psi = Ric(omega) - (1/2pi) ddbar h to recover f = h - mean(h) exactly:

    laplacian_G f = 2 pi * pair_density(Ric - psi, g_G) / det(g_G).

One pass of ``grid._adjugate`` on g_G gives that pairing, det(g_G), the
planes of laplacian_G and the measure det(g_G) whose mean-zero gauge f takes.
The L2 norm of a in g_G takes no second pass: at n = 2,
|a|^2_G det g_G = pair_density(g_G, a)^2 / det g_G - 2 det a, from the
pairing that the anti-self-dual residual reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, GridMismatchError, NotClosedError
from .geometry import antisymmetric_pairs, gauduchon_metric, ricci_form, wedge_integral
from .grid import HermitianField, ScalarField, _adjugate, _planes, complex_hessian, det
from .linsolve import _contract, laplacian, laplacian_planes, solve_constrained
from .solver import SolverConfig, SolveResult, continuity_solve

# Largest sup|d(psi)| accepted as closed and largest pairing accepted as zero.
_CLOSED_TOL = 1e-8
_CONSTRAINT_TOL = 1e-8
# Poisson solve in the distinguished metric: Krylov rtol and iteration cap.
_POISSON_RTOL = 1e-12
_POISSON_MAXITER = 30


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
) -> float:
    """Pairing of Ric(omega) - psi against the distinguished metric.

    This is the obstruction to prescribing psi as the Ricci form of a
    potential deformation of g; it vanishes exactly when Ric - psi is
    ddbar-exact.
    """
    return wedge_integral(_ricci_defect(g, psi), omega_G)


def _ricci_defect(g: HermitianField, psi: HermitianField) -> HermitianField:
    """Ric(omega) - psi, for n = 2 and a closed psi."""
    if g.grid.complex_dim != 2:
        raise GridMismatchError("the prescription pipeline is defined for n=2 only")
    defect = closedness_defect(psi)
    if defect > _CLOSED_TOL:
        raise NotClosedError(
            f"psi is not closed: d(psi) coefficient sup-norm {defect:.3e} > {_CLOSED_TOL:.1e}"
        )
    return ricci_form(g) - psi


def prescribe_ricci(
    g: HermitianField,
    psi: HermitianField,
    config: SolverConfig | None = None,
) -> PrescriptionResult:
    """Full prescription pipeline (n=2); see the module docstring."""
    config = config or SolverConfig()
    g = g.as_metric()
    grid = g.grid
    g_g, _, _ = gauduchon_metric(g)

    diff = _ricci_defect(g, psi)
    adj, det_g = _adjugate(_planes(g_g.values))
    # pair_density(g_G, .), the mixed determinant, symmetric in its two forms
    pairing = laplacian_planes(adj, 1)
    density = _contract(pairing, _planes(diff.values), grid)
    c = float(np.mean(density) / 2.0)  # constraint_integral(g, psi, g_G)
    if abs(c) > _CONSTRAINT_TOL:
        raise ConstraintViolated(
            f"pairing obstruction {c:.6e} exceeds tolerance {_CONSTRAINT_TOL:.1e}"
        )

    f_vals, _, _ = solve_constrained(
        laplacian,
        laplacian_planes(adj, 1.0 / det_g),
        rhs=2.0 * np.pi * density / det_g,
        grid=grid,
        rtol=_POISSON_RTOL,
        maxiter=_POISSON_MAXITER,
    )
    f_vals = f_vals - (det_g / det_g.sum() * f_vals).sum()
    f = ScalarField(grid, f_vals)

    a = HermitianField(
        grid, diff.values - complex_hessian(f_vals, grid) / (2.0 * np.pi)
    )
    pair_a = _contract(pairing, _planes(a.values), grid)
    asd_residual = float(np.max(np.abs(pair_a)) / 2.0)
    # |a|^2_G det g_G, clipped at 0 against rounding
    norm_sq = np.maximum(pair_a * pair_a / det_g - 2.0 * det(a), 0.0)
    a_l2 = float(np.sqrt(np.mean(norm_sq)))

    solve = continuity_solve(g, f, config)

    gp = HermitianField(grid, g.values + complex_hessian(solve.phi.values, grid), metric=True)
    final_err = float(np.max(np.abs(ricci_form(gp).values - psi.values)))

    return PrescriptionResult(
        constraint_value=c,
        f=f,
        asd_residual=asd_residual,
        a_l2_norm=a_l2,
        solve=solve,
        final_ricci_error=final_err,
    )
