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
the system is square and nonsingular. Preconditioned LGMRES with the
Concus-Golub diagonal scaling (SIAM J. Numer. Anal. 10, 1973). With
a = (1/n) sum_i P_ii the mean of the diagonal planes, the operator is
a * sum_k (P_k / a) D_k; the normalized planes are frozen at their
means, which gives the scaled symbol Lbar = sum_k mean(P_k / a) S_k
(``frozen_symbol`` of the planes P_k / a). The scalar a goes back on the
side where the kernel has it:

    laplacian          L  ~ a * Lbar,    M^-1 r = Lbar^-1(r / a),
    laplacian_adjoint  L* ~ Lbar(a .),   M^-1 r = Lbar^-1(r) / a,

and any other kernel is scaled on the left. Each M is inverted exactly
in the bordered system: beta takes the zero mode of Lbar and the border
row is met exactly. For a conformal metric e^h I the planes of G^-1 are
e^-h I and the conformal-weight fields are (n-1)! e^((n-1)h) I, so both
normalized operators have constant coefficients at phi = 0. The
preconditioner is then the exact inverse.

Each solve starts at x0 = M^-1 b, the preconditioner's answer, not at
zero, so LGMRES's first operator application computes the residual of
that start instead of A 0. In the conformal case the start is the
solution, and that one application confirms it at every n.

The callers are the Newton step (``solver.newton_solve``), the Poisson
solve in the distinguished metric (``chern._poisson_solve_gauduchon``)
and the conformal-weight kernel solve (``geometry.gauduchon_weight``).
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


def frozen_symbol(grid: GridSpec, planes) -> np.ndarray:
    """Half-spectrum symbol sum_k mean(planes[k]) S_k of the operator with
    its coefficients frozen at their means (real, <= 0 for a positive
    coefficient matrix, vanishing only at the zero mode). ``planes`` is
    iterated once, so a generator builds one plane at a time."""
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
    is ``laplacian`` or ``laplacian_adjoint``, called as (planes, values, grid),
    and sets the side of the preconditioner's scaling."""
    shape = grid.shape
    npts = grid.npoints
    zero = (0,) * len(shape)
    n = grid.complex_dim
    # Only 1/a is kept: each normalized plane lives just long enough for
    # its mean.
    inv_a = n / sum(planes[:n])
    symbol = frozen_symbol(grid, (p * inv_a for p in planes))
    # The zero mode is handled explicitly through beta and the constraint row.
    symbol[zero] = 1.0
    w = weights
    w_total = float(w.sum())
    right = apply is laplacian_adjoint
    mean_inv_a = float(inv_a.mean())
    w_inv_a = float((w * inv_a).sum())

    def matvec(x):
        eta = x[:npts].reshape(shape)
        beta = x[npts]
        out_field = apply(planes, eta, grid) - beta
        out_c = float((w * eta).sum())
        return np.concatenate([out_field.ravel(), [out_c]])

    def solve_frozen(r):
        # Lbar^-1 r for mean-zero r, returned with zero mean.
        spec = _rfftn(r) / symbol
        spec[zero] = 0.0
        return _irfftn(spec, shape)

    def precond(x):
        r = x[:npts].reshape(shape)
        s = x[npts]
        if right:
            # Lbar(a eta) - beta = r
            beta = -float(r.mean())
            u = solve_frozen(r + beta)
            alpha = (s - float((w * u * inv_a).sum())) / w_inv_a
            eta = (u + alpha) * inv_a
        else:
            # a Lbar(eta) - beta = r
            beta = -float((r * inv_a).mean()) / mean_inv_a
            eta = solve_frozen((r + beta) * inv_a)
            eta += (s - float((w * eta).sum())) / w_total
        return np.concatenate([eta.ravel(), [beta]])

    A = spla.LinearOperator((npts + 1, npts + 1), matvec=matvec, dtype=np.float64)
    M = spla.LinearOperator((npts + 1, npts + 1), matvec=precond, dtype=np.float64)
    b = np.concatenate([rhs.ravel(), [constraint_rhs]])
    # Start from the preconditioner's answer, not from zero; through
    # M.matvec, so the call is the same ``precond`` closure.
    x, info = spla.lgmres(A, b, x0=M.matvec(b), M=M, rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise LinearSolverStalled(f"constrained linear solve did not converge (info={info})")
    return x[:npts].reshape(shape), float(x[npts])
