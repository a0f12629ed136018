"""Spectral operator layer: the Laplacian contraction tr(G^-1 Hess), its
frozen-coefficient symbol, and a bordered Krylov solve for operators with
a one-dimensional constant kernel. Its callers are the Newton step
(``solver.newton_solve``), the Poisson solve in the distinguished metric
(``chern._poisson_solve_gauduchon``) and the conformal-weight kernel
solve (``geometry.gauduchon_weight``). For a scalar field eta and an
auxiliary scalar beta the bordered system is

    apply_op(eta) - beta = rhs,        <c, eta> = constraint_rhs,

with c a positive weight vector; the beta column absorbs the cokernel so
the system is square and nonsingular. Preconditioned LGMRES; the
preconditioner is the exact spectral inverse of the bordered system with
frozen coefficients ``coeff_mean[i, j]``, the mean coefficient of
d_i d_jbar (for the Laplacian, the transpose of the mean inverse metric).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .errors import LinearSolverStalled
from .grid import GridSpec, _fftn, _ifftn, complex_hessian, hessian_symbol


def laplacian(ginv: np.ndarray, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """trace(G^-1 Hess f) for the pointwise inverse metric ``ginv``; real
    for real input."""
    lap = np.einsum("...ij,...ji->...", ginv, complex_hessian(values, grid))
    return lap if np.iscomplexobj(values) else lap.real


def frozen_symbol(grid: GridSpec, coeff_mean: np.ndarray) -> np.ndarray:
    """Spectral symbol of sum coeff_mean[i, j] d_i d_jbar (real, <= 0 for
    a positive coefficient matrix, vanishing only at the zero mode)."""
    n = grid.complex_dim
    symbol = np.zeros(grid.shape)
    for i in range(n):
        for j in range(n):
            symbol = symbol + (hessian_symbol(grid, i, j) * coeff_mean[i, j]).real
    return symbol


def solve_constrained(
    apply_op,
    rhs: np.ndarray,
    weights: np.ndarray,
    constraint_rhs: float,
    grid: GridSpec,
    coeff_mean: np.ndarray,
    rtol: float = 1e-12,
    maxiter: int = 400,
) -> tuple:
    """Returns (eta, beta) for the bordered system described above."""
    shape = grid.shape
    npts = grid.npoints
    symbol = frozen_symbol(grid, coeff_mean)
    # The zero mode is handled explicitly through beta and the constraint row.
    safe = symbol.copy()
    safe[(0,) * len(shape)] = 1.0
    w = weights
    w_total = float(w.sum())

    def matvec(x):
        eta = x[:npts].reshape(shape)
        beta = x[npts]
        out_field = apply_op(eta) - beta
        out_c = float((w * eta).sum())
        return np.concatenate([out_field.ravel(), [out_c]])

    def precond(x):
        r = x[:npts].reshape(shape)
        s = x[npts]
        spec = _fftn(r)
        mean_r = spec[(0,) * len(shape)].real / npts
        spec = spec / safe
        spec[(0,) * len(shape)] = 0.0
        eta = _ifftn(spec).real
        alpha = (s - float((w * eta).sum())) / w_total
        return np.concatenate([(eta + alpha).ravel(), [-mean_r]])

    A = spla.LinearOperator((npts + 1, npts + 1), matvec=matvec, dtype=np.float64)
    M = spla.LinearOperator((npts + 1, npts + 1), matvec=precond, dtype=np.float64)
    b = np.concatenate([rhs.ravel(), [constraint_rhs]])
    x, info = spla.lgmres(A, b, M=M, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise LinearSolverStalled(f"constrained linear solve did not converge (info={info})")
    return x[:npts].reshape(shape), float(x[npts])
