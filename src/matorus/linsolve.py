"""Spectral operator layer: second-order operators with variable
coefficients and a bordered Krylov solve for them.

An operator is described once, by the real planes P_k of scale * adj(m)
(``laplacian_planes``, the one builder, which scales the planes of adj(m)
that ``grid._adjugate`` forms with det m), which match the half-spectrum
Hessian symbols S_k cached per grid (``grid.real_hessian_symbols``). Two
kernels take the same planes:

    laplacian(P, f)         = sum_k P_k * irfftn(S_k * rfftn(f)),
    laplacian_adjoint(P, v) = irfftn(sum_k S_k * rfftn(P_k * v)).

Each S_k is real and even, so the second is the L2 adjoint of the first.
With the planes of adj(g) scaled by 1 / det g the first is the canonical
Laplacian trace(G^-1 Hess); scaled by (n-1)! the second is the weight
operator, the coefficient of d dbar (v omega^{n-1}).

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
GMRES (``_gmres``) works on R^npts with the one operator

    r -> apply(planes, eta(r)) - beta(r),   (eta, beta)(r) = M^-1 (r, 0).

With s = 0 in the border slot, M^-1 meets mean(eta) = 0 exactly, so the
border row of K M^-1 is the identity on s; the border equation s = 0
drops out and the system left is square and nonsingular. For the
``laplacian`` kernel eta never leaves the spectrum: M^-1 ends with its
half spectrum, and the Laplacian reads the Hessian planes of eta off it
one at a time, so one application costs one forward and n^2 inverse
real transforms. ``laplacian_adjoint`` (and any other kernel, scaled on
the right) works on eta in field form.

GMRES(30) starts at x0 = rhs, that is at eta0 = M^-1 (rhs, 0), the
preconditioner's answer. A start that meets the tolerance comes back with
the Hessian planes of the first application; any other answer takes one
more pass of M^-1 for its planes, so the Newton step does not
differentiate its correction again. For a conformal metric e^h I,
adj(g) = e^((n-1)h) I: the planes of both operators are multiples of I,
so the normalized ones have constant coefficients at phi = 0, M is the
exact inverse, the start is the solution, and that one application
confirms it at every n.

The callers are the Newton step (``solver.newton_solve``), the Poisson
solve in the distinguished metric (``chern.prescribe_ricci``) and the
conformal-weight kernel solve (``geometry.gauduchon_weight``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LinearSolverStalled
from .grid import GridSpec, _hessian_planes, _irfftn, _rfftn, real_hessian_symbols

_RESTART = 30  # Arnoldi steps per GMRES cycle, the inner_m default of LGMRES


def laplacian_planes(adj: tuple, scale) -> tuple:
    """Real planes of sum_ij A[j, i] d_i d_jbar, A = scale * adj(m), for the
    planes ``adj`` of adj(m) (``grid._adjugate``) and a real number or
    field ``scale``: each plane times scale, A_ii, and times 2 scale off
    the diagonal, 2 Re A_ij and 2 Im A_ij. Scale 1 / det m gives
    trace(m^-1 Hess)."""
    n = math.isqrt(len(adj))
    return tuple((scale if k < n else 2.0 * scale) * c for k, c in enumerate(adj))


def laplacian(planes: tuple, values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum_k planes[k] * irfftn(S_k * rfftn(f)), trace(G^-1 Hess f) for the
    planes of ``laplacian_planes`` and a real field f: one real forward
    transform and n^2 real inverse ones."""
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
    ``laplacian`` kernel and None for the other; LinearSolverStalled past
    ``maxiter`` GMRES cycles."""
    shape = grid.shape
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
    b = rhs.ravel()
    start = []

    def precondition(r):
        # (eta, beta) = M^-1 (r, 0) with mean(eta) = 0, and eta's planes.
        r = r.reshape(shape)
        if fused:
            # a Lbar(eta) - beta = r, eta kept as its half spectrum, whose
            # Hessian planes the Laplacian reads.
            beta = -float((r * inv_a).mean()) / mean_inv_a
            eta = solve_frozen((r + beta) * inv_a)
            return eta, beta, tuple(_hessian_planes(eta, grid))
        # Lbar(a eta) - beta = r
        beta = -float(r.mean())
        u = _irfftn(solve_frozen(r + beta), shape)
        return (u - float((u * inv_a).mean()) / mean_inv_a) * inv_a, beta, None

    def matvec(r):
        # K M^-1 (r, 0); the start r = b keeps its answer, for a solve that ends there.
        start.clear()
        eta, beta, hessian = answer = precondition(r)
        if r is b:
            start.extend(answer)
        image = _contract(planes, hessian, grid) if fused else apply(planes, eta, grid)
        return (image - beta).ravel()

    x = _gmres(matvec, b, b, rtol, maxiter)
    eta, beta, hessian = start or precondition(x)
    return (_irfftn(eta, shape) if fused else eta), beta, hessian


@np.errstate(over="ignore", invalid="ignore")
def _gmres(matvec, b: np.ndarray, x0: np.ndarray, rtol: float, maxiter: int) -> np.ndarray:
    """x with |b - matvec(x)| <= rtol |b| by GMRES(_RESTART) (Saad and
    Schultz, SIAM J. Sci. Stat. Comput. 7, 1986). Each cycle starts from
    its true residual, the first at x0 itself, which is returned if it
    meets the tolerance, and stops on the Givens estimate of the residual.
    A start residual that is not finite (an overflow, which raises no
    warning here) ends the solve with LinearSolverStalled."""
    tol, x = rtol * math.sqrt(_dot(b, b)), x0
    for _ in range(maxiter):
        r = b - matvec(x)
        g = [math.sqrt(_dot(r, r))]
        if g[0] <= tol:
            return x
        if not math.isfinite(g[0]):
            raise LinearSolverStalled(f"GMRES start residual {g[0]} is not finite")
        r /= g[0]
        basis, columns, rotations = [r], [], []
        while True:
            w = matvec(basis[-1])
            h = []
            for v in basis:
                h.append(_dot(v, w))
                w -= h[-1] * v
            h_next = math.sqrt(_dot(w, w))
            for j, (c, s) in enumerate(rotations):
                h[j], h[j + 1] = c * h[j] + s * h[j + 1], c * h[j + 1] - s * h[j]
            d = math.hypot(h[-1], h_next)
            c, s = h[-1] / d, h_next / d
            rotations.append((c, s))
            columns.append(h[:-1] + [d])
            g[-1:] = c * g[-1], -s * g[-1]
            if abs(g[-1]) <= tol or len(basis) == _RESTART:
                break
            basis.append(w / h_next)
        # Back substitution R y = g for the rotated Hessenberg matrix R[i][j] = columns[j][i].
        y = g[:-1]
        for i in reversed(range(len(y))):
            y[i] = (y[i] - sum(columns[j][i] * y[j] for j in range(i + 1, len(y)))) / columns[i][i]
        x = x + sum(yi * v for yi, v in zip(y, basis))
        if abs(g[-1]) <= tol:
            return x
    raise LinearSolverStalled(f"GMRES short of rtol {rtol:.1e} after {maxiter} cycles")


def _dot(v: np.ndarray, w: np.ndarray) -> float:
    """v . w summed in a fixed order (a BLAS ddot's order follows its threads)."""
    return float(np.einsum("i,i->", v, w))
