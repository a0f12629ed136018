"""Tensor calculus of the canonical Hermitian (Chern) connection.

Conventions, with G the coefficient matrix g_{ij-bar} of the metric form:

    laplacian f   = g^{ij-bar} d_i d_jbar f      = trace(G^-1 Hess f)
    tr_g g'       = g^{ij-bar} g'_{ij-bar}       = trace(G^-1 G')
    torsion       T^k_ij = g^{kl-bar} (d_i g_{jl-bar} - d_j g_{il-bar})
    Ricci form    R_{kl-bar} = -(1/2pi) d_k d_lbar log det g

The conformal weight solve finds v > 0 with d dbar (v omega^{n-1}) = 0,
the distinguished representative in the conformal class; the kernel is
obtained by one deflated Krylov solve in the mean-zero complement
(``linsolve.solve_constrained``), preconditioned by a frozen-coefficient
spectral symbol. The weight operator is

    M(v) = irfftn( sum_k S_k * rfftn(v * C_k) ),

with S_k the real half-spectrum Hessian symbols cached per grid
(``grid.real_hessian_symbols``) and C_k the real coefficient planes
C_pp, 2 Re C_pm and -2 Im C_pm (p < m) of the fields C
(``grid.coefficient_planes``), built once per ``gauduchon_weight``,
``gauduchon_residual`` or ``defects`` call: n^2 real forward transforms
and one real inverse one per apply. ``defects`` differentiates the
metric once for the Kahler defect and the torsion trace.

Every differential operator here is spectral and raises
GridMismatchError on a central-difference grid. For n=2 wedge pairings
of (1,1)-forms reduce to the mixed determinant ``pair_density``;
``wedge_integral`` shares the volume normalization of ``grid.integrate``
(flat identity metric has volume 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GauduchonKernelError,
    GridMismatchError,
    LinearSolverStalled,
)
from .grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    _fftn,
    _holo_symbols,
    _ifftn,
    _irfftn,
    _require_spectral,
    _rfftn,
    coefficient_planes,
    complex_hessian,
    det,
    integrate,
    inverse,
    real_hessian_symbols,
)
from .linsolve import laplacian, laplacian_planes, solve_constrained


def _levi_civita3() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[i, k, j] = 1.0, -1.0
    return eps


def metric_derivatives(g: HermitianField) -> np.ndarray:
    """Holomorphic derivatives d_k g_{ij-bar}, shape grid + (k, i, j)."""
    grid = g.grid
    _require_spectral(grid, "metric derivatives")
    n = grid.complex_dim
    out = np.empty(grid.shape + (n, n, n), dtype=np.complex128)
    sig = _holo_symbols(grid)
    for i in range(n):
        for j in range(n):
            spec = _fftn(g.values[..., i, j])
            for k in range(n):
                out[..., k, i, j] = _ifftn(sig[k] * spec)
    return out


@dataclass(frozen=True)
class TorsionField:
    """Components T^k_ij per grid point, antisymmetric in (i, j)."""

    grid: GridSpec
    values: np.ndarray

    def trace(self) -> np.ndarray:
        """sum_j T^j_ji as a vector over i, shape grid + (n,)."""
        return np.einsum("...jji->...i", self.values)


def _antisymmetrized_derivatives(g: HermitianField) -> np.ndarray:
    """d_i g_{jl-bar} - d_j g_{il-bar}, shape grid + (i, j, l)."""
    dg = metric_derivatives(g)
    return dg - np.swapaxes(dg, -3, -2)


def torsion(g: HermitianField) -> TorsionField:
    if not g.metric:
        g = g.as_metric()
    antisym = _antisymmetrized_derivatives(g)
    ginv = inverse(g)
    t = np.einsum("...lk,...ijl->...kij", ginv, antisym)
    return TorsionField(g.grid, t)


@dataclass(frozen=True)
class MetricDefects:
    """Sup-norms of the structural defect tensors of a Hermitian metric.

    kaehler_defect bounds the coefficients of d(omega), balanced_defect
    those of the torsion trace, gauduchon_defect those of
    d dbar (omega^{n-1}). Kahler implies balanced implies Gauduchon.
    """

    kaehler_defect: float
    balanced_defect: float
    gauduchon_defect: float


def _weight_coefficient_fields(g: HermitianField) -> np.ndarray:
    """Fields C[p, m] with d dbar (v omega^{n-1}) ~ sum_pm d_p d_mbar (v C[p,m])."""
    gv = g.values
    if g.grid.complex_dim == 2:
        c = np.empty_like(gv)
        c[..., 0, 0] = gv[..., 1, 1]
        c[..., 1, 1] = gv[..., 0, 0]
        c[..., 0, 1] = -gv[..., 1, 0]
        c[..., 1, 0] = -gv[..., 0, 1]
        return c
    eps = _levi_civita3()
    return np.einsum("pac,mbd,...ab,...cd->...pm", eps, eps, gv, gv, optimize=True)


def _apply_weight_operator(vvals: np.ndarray, planes: tuple, grid: GridSpec) -> np.ndarray:
    """Coefficient of d dbar (v omega^{n-1}) for real grid values v, from
    the coefficient planes of the fields C (``grid.coefficient_planes``):
    n^2 real forward transforms and one real inverse one."""
    _require_spectral(grid, "the conformal-weight operator")
    symbols = real_hessian_symbols(grid)
    acc = symbols[0] * _rfftn(vvals * planes[0])
    for coeff, symbol in zip(planes[1:], symbols[1:]):
        acc += symbol * _rfftn(vvals * coeff)
    return _irfftn(acc, grid.shape)


def gauduchon_residual(g: HermitianField, v: ScalarField) -> float:
    """sup |d dbar (v omega^{n-1}) coefficient| / sup |v|."""
    planes = coefficient_planes(_weight_coefficient_fields(g))
    r = _apply_weight_operator(v.values, planes, g.grid)
    return float(np.max(np.abs(r)) / np.max(np.abs(v.values)))


def defects(g: HermitianField) -> MetricDefects:
    g = g.as_metric()
    antisym = _antisymmetrized_derivatives(g)
    kaehler = float(np.max(np.abs(antisym)))
    # torsion(g).trace() without the torsion tensor
    trace = np.einsum("...jil,...lj->...i", antisym, inverse(g), optimize=True)
    balanced = float(np.max(np.abs(trace)))
    ones = np.ones(g.grid.shape)
    planes = coefficient_planes(_weight_coefficient_fields(g))
    gaud = float(np.max(np.abs(_apply_weight_operator(ones, planes, g.grid))))
    return MetricDefects(kaehler, balanced, gaud)


def canonical_laplacian(g: HermitianField, f: ScalarField) -> ScalarField:
    """Laplace operator of the canonical connection, trace(G^-1 Hess f)."""
    if f.grid != g.grid:
        raise GridMismatchError("field and metric live on different grids")
    return ScalarField(f.grid, laplacian(laplacian_planes(inverse(g)), f.values, f.grid))


def trace_pair(g: HermitianField, gprime: HermitianField) -> tuple:
    """(tr_g g', tr_g' g) as real scalar fields."""
    a = np.einsum("...ij,...ji->...", inverse(g), gprime.values).real
    b = np.einsum("...ij,...ji->...", inverse(gprime), g.values).real
    return ScalarField(g.grid, a), ScalarField(g.grid, b)


def ricci_form(g: HermitianField) -> HermitianField:
    """First Chern form coefficients of the canonical connection."""
    logdet = np.log(det(g.as_metric()))
    h = complex_hessian(logdet, g.grid)
    return HermitianField(g.grid, -h / (2.0 * np.pi))


def gauduchon_weight(
    g: HermitianField,
    contract_tol: float = 1e-8,
    inner_rtol: float = 1e-13,
    inner_maxiter: int = 60,
) -> tuple:
    """Conformal weight (u, v) with d dbar (v omega^{n-1}) = 0, v > 0.

    v is normalized so the conformal metric has unit volume,
    ``integrate(v, g) == 1``, and u = log(v) / (n-1) so that e^u omega is
    the distinguished representative. Raises GauduchonKernelError when the
    computed kernel vector is not strictly positive (a sign the grid is
    too coarse: the continuum kernel contains a positive element).

    The discretized operator M(v) annihilates the flat grid mean exactly,
    so it has an exact one-dimensional kernel with a representative of
    nonzero mean. The kernel is found by one deflated solve in the
    mean-zero complement, v = 1 + xi with M(xi) = -M(1): the bordered
    solve pins the flat mean of xi to zero, and since M(xi) = -M(1) lies
    in the range of M (the mean-zero functions) the border unknown comes
    back zero.
    """
    g = g.as_metric()
    grid = g.grid
    n, shape = grid.complex_dim, grid.shape
    cfields = _weight_coefficient_fields(g)
    planes = coefficient_planes(cfields)

    def op(vvals):
        return _apply_weight_operator(vvals, planes, grid)

    rhs = -op(np.ones(shape))
    if float(np.max(np.abs(rhs))) <= 1e-14:
        return _finish_weight(g, np.ones(shape))

    xi, _ = solve_constrained(
        op,
        rhs=rhs,
        weights=np.full(shape, 1.0 / grid.npoints),
        constraint_rhs=0.0,
        grid=grid,
        coeff_mean=cfields.reshape(-1, n, n).mean(axis=0),
        rtol=inner_rtol,
        maxiter=inner_maxiter,
    )
    v = 1.0 + xi
    resid = float(np.max(np.abs(op(v))) / np.max(np.abs(v)))
    if resid > contract_tol:
        raise LinearSolverStalled(
            f"conformal-weight solve stalled at relative residual {resid:.3e}"
        )
    return _finish_weight(g, v)


def _finish_weight(g: HermitianField, v: np.ndarray) -> tuple:
    n = g.grid.complex_dim
    vmin = float(v.min())
    if vmin <= 0.0:
        raise GauduchonKernelError(
            f"conformal-weight kernel vector has minimum {vmin:.3e} <= 0; "
            "refine the grid"
        )
    vfield = ScalarField(g.grid, v)
    v = v / integrate(vfield, g)
    vfield = ScalarField(g.grid, v)
    u = ScalarField(g.grid, np.log(v) / (n - 1))
    return u, vfield


def gauduchon_metric(g: HermitianField) -> tuple:
    """(omega_G, u, v): the distinguished conformal metric e^u g and its weight."""
    u, v = gauduchon_weight(g)
    g_g = HermitianField(g.grid, g.values * np.exp(u.values)[..., None, None], metric=True)
    return g_g, u, v


def pair_density(a: HermitianField, b: HermitianField) -> np.ndarray:
    """Mixed determinant of two (1,1)-form coefficient fields (n=2 only).

    pair_density(a, a) = 2 det a, and a wedge b = (pair_density / 2) of
    the volume normalization used by ``wedge_integral``.
    """
    if a.grid.complex_dim != 2:
        raise GridMismatchError("pair_density is defined for n=2 only")
    av, bv = a.values, b.values
    d = (
        av[..., 0, 0] * bv[..., 1, 1]
        + av[..., 1, 1] * bv[..., 0, 0]
        - av[..., 0, 1] * bv[..., 1, 0]
        - av[..., 1, 0] * bv[..., 0, 1]
    )
    return d.real


def wedge_integral(a: HermitianField, b: HermitianField) -> float:
    """Integral of a wedge b for real (1,1)-forms, n=2.

    Normalized consistently with ``integrate``: for a metric g,
    wedge_integral(g, g) == integrate(1, g).
    """
    if a.grid != b.grid:
        raise GridMismatchError("forms live on different grids")
    return float(np.mean(pair_density(a, b)) / 2.0)


def form_norm_sq(a: HermitianField, g: HermitianField) -> ScalarField:
    """Pointwise squared norm of a (1,1)-form in the metric g."""
    ginv = inverse(g)
    m = np.einsum("...ij,...jk->...ik", ginv, a.values)
    val = np.einsum("...ij,...ji->...", m, m).real
    return ScalarField(g.grid, val)
