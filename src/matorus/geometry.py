"""Tensor calculus of the canonical Hermitian (Chern) connection.

Conventions, with G the coefficient matrix g_{ij-bar} of the metric form:

    laplacian f   = g^{ij-bar} d_i d_jbar f      = trace(G^-1 Hess f)
    tr_g g'       = g^{ij-bar} g'_{ij-bar}       = trace(G^-1 G')
    torsion       T^k_ij = g^{kl-bar} (d_i g_{jl-bar} - d_j g_{il-bar})
    Ricci form    R_{kl-bar} = -(1/2pi) d_k d_lbar log det g

The conformal weight solve finds v > 0 with d dbar (v omega^{n-1}) = 0,
the distinguished representative in the conformal class. The coefficient
of d dbar (v omega^{n-1}) is sum_pm d_p d_mbar (v C[p, m]) with
C = (n-1)! adj(g)^T (``_weight_coefficient_fields``, from
``grid._adjugate``). The coefficient of omega^{n-1} on the form
complementary to dz^p dzbar^m contracts two Levi-Civita symbols with n-1
factors of g; each of the (n-1)! orderings of the factors gives the same
cofactor of g, adj(g)[m, p]. The operator is the adjoint Laplacian
``linsolve.laplacian_adjoint`` with the
coefficient planes of C (``grid.coefficient_planes``), built once per
``gauduchon_weight`` or ``gauduchon_residual`` call. The kernel is
obtained by one deflated Krylov solve in the mean-zero complement
(``linsolve.solve_constrained``).

The first derivatives of the metric enter only antisymmetrized,
d_i g_{jl-bar} - d_j g_{il-bar} (the coefficients of d omega), and one
kernel gives them: ``antisymmetric_pairs`` yields the entries with i < j,
one column l at a time. It costs n^2 forward and n^2 (n-1) inverse c2c
transforms (4 and 4 at n=2, 9 and 18 at n=3) and holds n spectra and one
entry at a time, never the n^3 tensor of ``metric_derivatives``.
``defects`` reduces the entries to the Kahler defect and the torsion
trace as they come; ``torsion`` and ``chern.closedness_defect`` take
them from the same kernel. ``defects`` takes its Gauduchon defect from
``gauduchon_residual``.

Every differential operator here is spectral and raises
GridMismatchError on a central-difference grid. For n=2 wedge pairings
of (1,1)-forms reduce to the mixed determinant ``pair_density``,
tr(adj(a) b); ``wedge_integral`` shares the volume normalization of
``grid.integrate`` (flat identity metric has volume 1).
"""

from __future__ import annotations

import math
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
    _adjugate,
    _fftn,
    _holo_symbols,
    _ifftn,
    _require_spectral,
    coefficient_planes,
    complex_hessian,
    constant_field,
    det,
    integrate,
    inverse,
)
from .linsolve import laplacian, laplacian_adjoint, laplacian_planes, solve_constrained


def metric_derivatives(g: HermitianField) -> np.ndarray:
    """Holomorphic derivatives d_k g_{ij-bar}, shape grid + (k, i, j): the
    full n^3 tensor, which no defect needs (see ``antisymmetric_pairs``)."""
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


def antisymmetric_pairs(g: HermitianField):
    """Yields (i, j, l, d_i g_{jl-bar} - d_j g_{il-bar}) for each i < j,
    one column l at a time: n forward c2c transforms per column and two
    inverse ones per pair, n^2 and n^2 (n - 1) in all. The n^3 derivative
    tensor is never built; each entry is computed as
    ifftn(sigma_i F g_jl) - ifftn(sigma_j F g_il), as ``metric_derivatives``
    would give it."""
    grid = g.grid
    _require_spectral(grid, "metric derivatives")
    n = grid.complex_dim
    sig = _holo_symbols(grid)
    for l in range(n):
        spec = [_fftn(g.values[..., i, l]) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                yield i, j, l, _ifftn(sig[i] * spec[j]) - _ifftn(sig[j] * spec[i])


def _antisymmetrized_derivatives(g: HermitianField) -> np.ndarray:
    """d_i g_{jl-bar} - d_j g_{il-bar}, shape grid + (i, j, l)."""
    n = g.grid.complex_dim
    out = np.zeros(g.grid.shape + (n, n, n), dtype=np.complex128)
    for i, j, l, d in antisymmetric_pairs(g):
        out[..., i, j, l] = d
        np.negative(d, out=out[..., j, i, l])
    return out


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
    """C = (n-1)! adj(g)^T, so d dbar (v omega^{n-1}) ~ sum_pm d_p d_mbar (v C[p,m])."""
    c = np.swapaxes(_adjugate(g.values), -1, -2)
    c *= math.factorial(g.grid.complex_dim - 1)
    return c


def gauduchon_residual(g: HermitianField, v: ScalarField) -> float:
    """sup |d dbar (v omega^{n-1}) coefficient| / sup |v|."""
    planes = coefficient_planes(_weight_coefficient_fields(g))
    r = laplacian_adjoint(planes, v.values, g.grid)
    return float(np.max(np.abs(r)) / np.max(np.abs(v.values)))


def defects(g: HermitianField) -> MetricDefects:
    g = g.as_metric()
    gaud = gauduchon_residual(g, constant_field(g.grid, 1.0))
    ginv = inverse(g)
    # torsion(g).trace() without the torsion tensor: with A_ijl the pair
    # entry, trace_i gains -A_ijl ginv_lj and trace_j gains A_ijl ginv_li.
    n = g.grid.complex_dim
    trace = np.zeros((n,) + g.grid.shape, dtype=np.complex128)
    sups = []
    for i, j, l, d in antisymmetric_pairs(g):
        sups.append(np.max(np.abs(d)))
        trace[i] -= d * ginv[..., l, j]
        trace[j] += d * ginv[..., l, i]
    kaehler = float(np.max(sups))
    balanced = float(np.max(np.abs(trace)))
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

    The discretized operator M (``laplacian_adjoint``) annihilates the
    flat grid mean exactly, so it has an exact one-dimensional kernel with
    a representative of nonzero mean. The kernel is found by one deflated
    solve in the mean-zero complement, v = 1 + xi with M(xi) = -M(1): the
    bordered solve pins the flat mean of xi to zero, and since M(xi) =
    -M(1) lies in the range of M (the mean-zero functions) the border
    unknown comes back zero.
    """
    g = g.as_metric()
    grid = g.grid
    shape = grid.shape
    planes = coefficient_planes(_weight_coefficient_fields(g))

    rhs = -laplacian_adjoint(planes, np.ones(shape), grid)
    if float(np.max(np.abs(rhs))) <= 1e-14:
        return _finish_weight(g, np.ones(shape))

    xi, _ = solve_constrained(
        laplacian_adjoint,
        planes,
        rhs=rhs,
        weights=np.full(shape, 1.0 / grid.npoints),
        constraint_rhs=0.0,
        grid=grid,
        rtol=inner_rtol,
        maxiter=inner_maxiter,
    )
    v = 1.0 + xi
    resid = float(np.max(np.abs(laplacian_adjoint(planes, v, grid))) / np.max(np.abs(v)))
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
    """Mixed determinant tr(adj(a) b) of two (1,1)-form coefficient fields, n=2.

    pair_density(a, a) = 2 det a, and a wedge b = (pair_density / 2) of
    the volume normalization used by ``wedge_integral``.
    """
    if a.grid.complex_dim != 2:
        raise GridMismatchError("pair_density is defined for n=2 only")
    return np.einsum("...ij,...ji->...", _adjugate(a.values), b.values).real


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
