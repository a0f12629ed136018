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

Every transform here is a real-input one (``rfftn``/``irfftn``). The
caller builds the Laplacian's real coefficient planes once per inverse
metric (``laplacian_planes``); each apply multiplies them with the
half-spectrum Hessian symbols cached per grid
(``grid.real_hessian_symbols``): one ``rfftn`` and n^2 ``irfftn``, with
no (..., n, n) array. ``frozen_symbol`` and the preconditioner use the
same half-spectrum symbols.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .errors import LinearSolverStalled
from .grid import (
    GridSpec,
    _irfftn,
    _require_spectral,
    _rfftn,
    coefficient_planes,
    real_hessian_symbols,
)


def laplacian_planes(ginv: np.ndarray) -> tuple:
    """Coefficient planes (``grid.coefficient_planes``) of trace(G^-1 Hess)
    for the pointwise inverse metric ``ginv``, whose entry [j, i] is the
    coefficient of d_i d_jbar."""
    return coefficient_planes(np.swapaxes(ginv, -1, -2))


def laplacian(planes: tuple, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """trace(G^-1 Hess f) from the coefficient planes of ``laplacian_planes``:
    one real forward transform and n^2 real inverse ones, real for real
    input; complex input is split into its real and imaginary parts."""
    _require_spectral(grid, "the Laplacian")
    if np.iscomplexobj(values):
        return laplacian(planes, values.real, grid) + 1j * laplacian(planes, values.imag, grid)
    spec = _rfftn(values)
    out = np.zeros(grid.shape)
    for coeff, symbol in zip(planes, real_hessian_symbols(grid)):
        out += coeff * _irfftn(symbol * spec, grid.shape)
    return out


def frozen_symbol(grid: GridSpec, coeff_mean: np.ndarray) -> np.ndarray:
    """Half-spectrum symbol of sum coeff_mean[i, j] d_i d_jbar for a
    constant Hermitian coefficient matrix (real, <= 0 for a positive one,
    vanishing only at the zero mode)."""
    planes = coefficient_planes(np.asarray(coeff_mean))
    return sum(c * s for c, s in zip(planes, real_hessian_symbols(grid)))


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
        spec = _rfftn(r)
        mean_r = spec[(0,) * len(shape)].real / npts
        spec = spec / safe
        spec[(0,) * len(shape)] = 0.0
        eta = _irfftn(spec, shape)
        alpha = (s - float((w * eta).sum())) / w_total
        return np.concatenate([(eta + alpha).ravel(), [-mean_r]])

    A = spla.LinearOperator((npts + 1, npts + 1), matvec=matvec, dtype=np.float64)
    M = spla.LinearOperator((npts + 1, npts + 1), matvec=precond, dtype=np.float64)
    b = np.concatenate([rhs.ravel(), [constraint_rhs]])
    x, info = spla.lgmres(A, b, M=M, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise LinearSolverStalled(f"constrained linear solve did not converge (info={info})")
    return x[:npts].reshape(shape), float(x[npts])
