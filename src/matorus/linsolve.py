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

    K(eta, beta) = (apply(planes, eta) - beta, mean(eta)) = (rhs, 0),

the flat grid mean as border row; the beta column absorbs the cokernel
so the system is square and nonsingular. Both kernels kill the constants,
so any row c with <c, 1> != 0 gives the same beta and an eta shifted by a
constant (Keller's bordering lemma, 1977); a caller that wants another
normalization shifts eta afterwards. The preconditioner M uses the
Concus-Golub diagonal scaling (SIAM J. Numer. Anal. 10, 1973). With
a = (1/n) sum_i P_ii the mean of the diagonal planes, the operator is
a * sum_k (P_k / a) D_k; the normalized planes are frozen at their
means, which gives the scaled symbol Lbar = sum_k mean(P_k / a) S_k
(``frozen_symbol`` of the planes P_k / a). The scalar a goes back on the
side where the kernel has it:

    laplacian          L  ~ a * Lbar,    M^-1 r = Lbar^-1(r / a),
    laplacian_adjoint  L* ~ Lbar(a .),   M^-1 r = Lbar^-1(r) / a.

Each M is inverted exactly in the bordered system: beta takes the zero
mode of Lbar and the border row is met exactly.

The solve is right-preconditioned (Saad, Iterative Methods for Sparse
Linear Systems, 2nd ed., SIAM 2003, sec. 9.3) and has no border row:
LGMRES works on R^npts with the one operator

    r -> apply(planes, eta(r)) - beta(r),   (eta, beta)(r) = M^-1 (r, 0).

With s = 0 in the border slot, M^-1 meets mean(eta) = 0 exactly, so the
border row of K M^-1 is the identity on s; the border equation s = 0
drops out and the system left is square and nonsingular. For the
``laplacian`` kernel eta never leaves the spectrum: M^-1 ends with its
half spectrum, and the Laplacian reads the Hessian planes of eta off it,
so one application costs one forward and n^2 inverse real transforms.
The planes of the last application come back with the answer when
LGMRES returns the point it last applied the operator to, so the Newton
step does not differentiate its correction again. ``laplacian_adjoint``
(and any other kernel, scaled on the right) works on eta in field form.

Each solve starts at r0 = rhs, that is at eta0 = M^-1 (rhs, 0), the
preconditioner's answer, so LGMRES's first operator application computes
the residual of that start. For a conformal metric e^h I the planes of
G^-1 are e^-h I and the conformal-weight fields are (n-1)! e^((n-1)h) I,
so both normalized operators have constant coefficients at phi = 0: M is
the exact inverse, the start is the solution, and that one application
confirms it at every n.

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
    _hessian_planes,
    _irfftn,
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
    if np.iscomplexobj(values):
        return laplacian(planes, values.real, grid) + 1j * laplacian(planes, values.imag, grid)
    return _contract(planes, _hessian_planes(_rfftn(values), grid), grid)


def _contract(planes: tuple, hessian, grid: GridSpec) -> np.ndarray:
    """sum_k planes[k] * hessian[k] for the Hessian planes of a field."""
    out = np.zeros(grid.shape)
    for coeff, plane in zip(planes, hessian):
        out += coeff * plane
    return out


def laplacian_adjoint(planes: tuple, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """irfftn(sum_k S_k * rfftn(planes[k] * v)) for real v, the L2 adjoint
    of ``laplacian`` with the same planes: n^2 real forward transforms and
    one real inverse one."""
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
    grid: GridSpec,
    rtol: float = 1e-12,
    maxiter: int = 400,
) -> tuple:
    """Returns (eta, beta, hessian) for the bordered system described
    above, with mean(eta) = 0. ``apply`` is ``laplacian`` or
    ``laplacian_adjoint``, called as (planes, values, grid), and sets the
    side of the preconditioner's scaling. ``hessian`` is the tuple of the
    n^2 real Hessian planes of eta (``grid.real_hessian_symbols``) for the
    ``laplacian`` kernel and None for the other."""
    shape = grid.shape
    npts = grid.npoints
    zero = (0,) * len(shape)
    n = grid.complex_dim
    # Only 1/a is kept: each normalized plane lives just long enough for
    # its mean.
    inv_a = n / sum(planes[:n])
    symbol = frozen_symbol(grid, (p * inv_a for p in planes))
    # The zero mode is handled explicitly through beta and the border row.
    symbol[zero] = 1.0
    mean_inv_a = float(inv_a.mean())

    def solve_frozen(r):
        # Half spectrum of Lbar^-1 r for mean-zero r, zero mode dropped.
        spec = _rfftn(r) / symbol
        spec[zero] = 0.0
        return spec

    fused = apply is laplacian
    last = {}

    def matvec(x):
        # K M^-1 (r, 0) with (eta, beta) = M^-1 (r, 0), mean(eta) = 0.
        # The last application's planes go first: one set is alive at a time.
        last.clear()
        r = x.reshape(shape)
        if fused:
            # a Lbar(eta) - beta = r, eta kept as its half spectrum, whose
            # Hessian planes the Laplacian reads.
            beta = -float((r * inv_a).mean()) / mean_inv_a
            eta = solve_frozen((r + beta) * inv_a)
            hessian = tuple(_hessian_planes(eta, grid))
            image = _contract(planes, hessian, grid)
        else:
            # Lbar(a eta) - beta = r
            beta = -float(r.mean())
            u = _irfftn(solve_frozen(r + beta), shape)
            eta = (u - float((u * inv_a).mean()) / mean_inv_a) * inv_a
            hessian, image = None, apply(planes, eta, grid)
        last.update(r=r.copy(), eta=eta, beta=beta, hessian=hessian)
        return (image - beta).ravel()

    A = spla.LinearOperator((npts, npts), matvec=matvec, dtype=np.float64)
    # Start from the preconditioner's answer: r0 = rhs is eta0 = M^-1 rhs.
    y, info = spla.lgmres(A, rhs.ravel(), x0=rhs.ravel(), rtol=rtol, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise LinearSolverStalled(f"constrained linear solve did not converge (info={info})")
    if not np.array_equal(last.get("r"), y.reshape(shape)):
        # LGMRES returned a point it did not apply the operator to (rhs = 0).
        A.matvec(y)
    eta = _irfftn(last["eta"], shape) if fused else last["eta"]
    return eta, last["beta"], last["hessian"]
