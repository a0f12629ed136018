"""Spectral operator layer: second-order operators with variable
coefficients and a bordered Krylov solve for them.

An operator is described once, by its real coefficient planes P_k
(``grid.coefficient_planes``), which match the half-spectrum Hessian
symbols S_k cached per grid (``grid.real_hessian_symbols``). Two kernels
take the same planes:

    laplacian(P, f)         = sum_k P_k * irfftn(S_k * rfftn(f)),
    laplacian_adjoint(P, v) = irfftn(sum_k S_k * rfftn(P_k * v)).

Each S_k is real and even, so the second is the L2 adjoint of the first.
With the planes of G^-1 (``laplacian_planes``) the first is the canonical
Laplacian trace(G^-1 Hess); with the planes of the conformal-weight
fields of a metric the second is the coefficient of d dbar (v omega^{n-1}).

``solve_constrained(apply, planes, ...)`` solves, for a scalar field eta
and a scalar beta, the bordered system

    apply(planes, eta) - beta = rhs,        <c, eta> = constraint_rhs,

with c a positive weight vector; the beta column absorbs the cokernel so
the system is square and nonsingular. Preconditioned LGMRES; the
preconditioner is the exact spectral inverse of the bordered system with
each plane frozen at its mean, the symbol ``frozen_symbol(grid, planes)``
= sum_k mean(P_k) S_k, which serves a kernel and its adjoint alike. The
callers are the Newton step (``solver.newton_solve``), the Poisson solve
in the distinguished metric (``chern._poisson_solve_gauduchon``) and the
conformal-weight kernel solve (``geometry.gauduchon_weight``).
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
    """sum_k planes[k] * irfftn(S_k * rfftn(f)), trace(G^-1 Hess f) for the
    planes of ``laplacian_planes``: one real forward transform and n^2 real
    inverse ones; complex input is split into its real and imaginary parts."""
    _require_spectral(grid, "the Laplacian")
    if np.iscomplexobj(values):
        return laplacian(planes, values.real, grid) + 1j * laplacian(planes, values.imag, grid)
    spec = _rfftn(values)
    out = np.zeros(grid.shape)
    for coeff, symbol in zip(planes, real_hessian_symbols(grid)):
        out += coeff * _irfftn(symbol * spec, grid.shape)
    return out


def laplacian_adjoint(planes: tuple, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """irfftn(sum_k S_k * rfftn(planes[k] * v)) for real v, the L2 adjoint
    of ``laplacian`` with the same planes: n^2 real forward transforms and
    one real inverse one."""
    _require_spectral(grid, "the adjoint Laplacian")
    symbols = real_hessian_symbols(grid)
    acc = symbols[0] * _rfftn(values * planes[0])
    for coeff, symbol in zip(planes[1:], symbols[1:]):
        acc += symbol * _rfftn(values * coeff)
    return _irfftn(acc, grid.shape)


def frozen_symbol(grid: GridSpec, planes: tuple) -> np.ndarray:
    """Half-spectrum symbol sum_k mean(planes[k]) S_k of the operator with
    its coefficients frozen at their means (real, <= 0 for a positive
    coefficient matrix, vanishing only at the zero mode)."""
    return sum(float(np.mean(c)) * s for c, s in zip(planes, real_hessian_symbols(grid)))


def solve_constrained(
    apply,
    planes: tuple,
    rhs: np.ndarray,
    weights: np.ndarray,
    constraint_rhs: float,
    grid: GridSpec,
    rtol: float = 1e-12,
    maxiter: int = 400,
) -> tuple:
    """Returns (eta, beta) for the bordered system described above; ``apply``
    is ``laplacian`` or ``laplacian_adjoint``, called as (planes, values, grid)."""
    shape = grid.shape
    npts = grid.npoints
    symbol = frozen_symbol(grid, planes)
    # The zero mode is handled explicitly through beta and the constraint row.
    safe = symbol.copy()
    safe[(0,) * len(shape)] = 1.0
    w = weights
    w_total = float(w.sum())

    def matvec(x):
        eta = x[:npts].reshape(shape)
        beta = x[npts]
        out_field = apply(planes, eta, grid) - beta
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
