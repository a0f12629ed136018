"""Tensor calculus of the canonical Hermitian (Chern) connection.

Conventions, with G the coefficient matrix g_{ij-bar} of the metric form:

    laplacian f   = g^{ij-bar} d_i d_jbar f      = trace(G^-1 Hess f)
    tr_g g'       = g^{ij-bar} g'_{ij-bar}       = trace(G^-1 G')
                  = n + laplacian phi            for g' = g + Hess phi
    torsion trace T_i = sum_j T^j_ji,  T^k_ij = g^{kl-bar} (d_i g_{jl-bar} - d_j g_{il-bar})
    Ricci form    R_{kl-bar} = -(1/2pi) d_k d_lbar log det g

The conformal weight solve finds v > 0 with d dbar (v omega^{n-1}) = 0,
the distinguished representative in the conformal class. The identity
n i d dbar f ^ omega^{n-1} = (laplacian f) omega^n makes the Gauduchon
condition the kernel of the adjoint Laplacian (Gauduchon, C. R. Acad.
Sci. Paris 285, 1977): the coefficient of d dbar (v omega^{n-1}) is

    M(v) = (n-1)! laplacian^*(det g v) = sum_pm d_p d_mbar (v (n-1)! adj(g)[m, p]),

with laplacian^* the flat L2 adjoint. M is ``linsolve.laplacian_adjoint``
with the planes of (n-1)! adj(g) (``weight_planes``), from the builder
that gives the Laplacian those of adj(g) / det g
(``linsolve.laplacian_planes``). ``_weight_image``, the one entry of the
weight solve (behind ``gauduchon_weight`` and the ``gauduchon`` task),
builds them and M(1) once and returns sup |M(1)|, the Gauduchon defect
of g, with the weight. adj(e^u g) = e^{(n-1)u} adj(g) exactly, so
M_{e^u g}(f) = M(e^{(n-1)u} f). The weight is returned as
v = e^{(n-1)u}, so its one image M(v) gives the solve's contract check,
the task's weight residual and the Gauduchon defect sup |M(v)| of e^u g.
The kernel is obtained by one deflated Krylov solve in the mean-zero
complement (``linsolve.solve_constrained``).

The first derivatives of the metric enter only antisymmetrized,
d_i g_{jl-bar} - d_j g_{il-bar} (the coefficients of d omega), and one
kernel gives them: ``antisymmetric_pairs`` yields the entries with i < j,
one column l at a time. It costs n^2 forward and n^2 (n-1) inverse c2c
transforms (4 and 4 at n=2, 9 and 18 at n=3). It allocates n complex
buffers once, for the whole call: each holds one spectrum of a column,
transformed in place from its matrix entry. Each inverse transform runs
in place, in the spectrum that its pair uses for the last time, or at
n >= 3 in one of two work buffers. The full n^3 tensor of derivatives
d_k g_{ij-bar} is never built, and a yielded entry is one of these
buffers, valid until the next one is asked for. ``defects`` reduces
each entry to the Kahler defect and the torsion trace before it asks
for the next one, and forms each entry of g^-1 they need from the
planes of adj(g) and det g, one at a time, never the complex matrices
of g^-1. ``chern.closedness_defect`` takes the entries from the same
kernel. ``defects`` takes its Gauduchon defect,
sup |M(1)|, from ``gauduchon_residual`` unless the caller has it.

Every differential operator here is Fourier-spectral, through the
symbols of ``grid``. For n=2 wedge pairings
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
    HermitianField,
    ScalarField,
    _adjugate,
    _det,
    _entry,
    _fftn,
    _holo_symbols,
    _ifftn,
    constant_field,
    ddbar,
    det,
    integrate,
    inverse,
)
from .linsolve import _contract, laplacian, laplacian_adjoint, laplacian_planes, solve_constrained

# Conformal-weight solve: Krylov rtol and iteration cap, and the max|M(v)|/max|v| v must reach.
_WEIGHT_RTOL = 1e-13
_WEIGHT_MAXITER = 60
_WEIGHT_CONTRACT_TOL = 1e-8


def antisymmetric_pairs(g: HermitianField):
    """Yields (i, j, l, d_i g_{jl-bar} - d_j g_{il-bar}) for each i < j,
    one column l at a time: n forward c2c transforms per column and two
    inverse ones per pair, n^2 and n^2 (n - 1) in all. The n^3 derivative
    tensor is never built; each entry is computed as
    ifftn(sigma_i F g_jl) - ifftn(sigma_j F g_il), sigma_k the symbol of d_k.
    It holds n complex buffers, the spectra of a column, each transformed
    in place from its matrix entry. Both products of a pair are formed
    before either inverse transform, which runs in place in the spectrum
    that the pair uses for the last time, or at n = 3 in one of two work
    buffers. A yielded entry is one of these buffers: it stays valid until
    the next one is asked for."""
    grid = g.grid
    n = grid.complex_dim
    sig = _holo_symbols(grid)
    spec = [np.empty(grid.shape, dtype=np.complex128) for _ in range(n)]
    work = [np.empty(grid.shape, dtype=np.complex128) for _ in range(2 if n > 2 else 0)]
    for l in range(n):
        for i in range(n):
            _fftn(_entry(g.planes, i, l, spec[i]), spec[i])
        for i in range(n):
            for j in range(i + 1, n):
                # spec[i] is last used by the pair (i, n - 1), spec[n - 1] by (n - 2, n - 1).
                a = np.multiply(sig[i], spec[j], out=spec[j] if i == n - 2 else work[0])
                b = np.multiply(sig[j], spec[i], out=spec[i] if j == n - 1 else work[1])
                _ifftn(a, a)
                _ifftn(b, b)
                a -= b
                yield i, j, l, a


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


def weight_planes(g: HermitianField) -> tuple:
    """Coefficient planes of the weight operator M(v) = d dbar (v omega^{n-1})
    of g, the planes of (n-1)! adj(g), for ``laplacian_adjoint``."""
    return laplacian_planes(_adjugate(g.planes), math.factorial(g.grid.complex_dim - 1))


def gauduchon_residual(g: HermitianField, v: ScalarField) -> float:
    """sup |d dbar (v omega^{n-1}) coefficient| / sup |v|."""
    r = laplacian_adjoint(weight_planes(g), v.values, g.grid)
    return float(np.max(np.abs(r)) / np.max(np.abs(v.values)))


def defects(g: HermitianField, gauduchon_defect: float | None = None) -> MetricDefects:
    """The three defects of g; ``gauduchon_defect``, sup |M(1)| of the
    weight operator, is computed here when the caller does not have it."""
    g = g.as_metric()
    if gauduchon_defect is None:
        gauduchon_defect = gauduchon_residual(g, constant_field(g.grid, 1.0))
    # The torsion trace without the torsion tensor: with A_ijl the pair
    # entry, trace_i gains -A_ijl ginv_lj and trace_j gains A_ijl ginv_li.
    # An entry of ginv = adj(g) / det g is formed only when it is used, in
    # one buffer, with the division ``inverse`` does; |A_ijl| for the
    # Kahler defect takes the real part of that buffer before either entry.
    adj = _adjugate(g.planes)
    det_g = _det(g.planes, adj)
    n = g.grid.complex_dim
    trace = np.zeros((n,) + g.grid.shape, dtype=np.complex128)
    e = np.empty(g.grid.shape, dtype=np.complex128)
    sups = []
    for i, j, l, d in antisymmetric_pairs(g):
        sups.append(np.max(np.abs(d, out=e.real)))
        _entry(adj, l, j, e)
        e /= det_g
        trace[i] -= np.multiply(d, e, out=e)
        _entry(adj, l, i, e)
        e /= det_g
        trace[j] += np.multiply(d, e, out=e)
    kaehler = float(np.max(sups))
    balanced = float(np.max(np.abs(trace)))
    return MetricDefects(kaehler, balanced, gauduchon_defect)


def canonical_laplacian(g: HermitianField, f: ScalarField) -> ScalarField:
    """Laplace operator of the canonical connection, trace(G^-1 Hess f)."""
    if f.grid != g.grid:
        raise GridMismatchError("field and metric live on different grids")
    adj = _adjugate(g.planes)
    planes = laplacian_planes(adj, 1.0 / _det(g.planes, adj))
    return ScalarField(f.grid, laplacian(planes, f.values, f.grid))


def trace_pair(g: HermitianField, gprime: HermitianField) -> tuple:
    """(tr_g g', tr_g' g) as real scalar fields."""
    a = np.einsum("...ij,...ji->...", inverse(g), gprime.values).real
    b = np.einsum("...ij,...ji->...", inverse(gprime), g.values).real
    return ScalarField(g.grid, a), ScalarField(g.grid, b)


def ricci_form(g: HermitianField) -> HermitianField:
    """First Chern form coefficients of the canonical connection."""
    logdet = ScalarField(g.grid, np.log(det(g.as_metric())))
    return ddbar(logdet).scaled(-1.0 / (2.0 * np.pi))


def gauduchon_weight(g: HermitianField) -> tuple:
    """Conformal weight (u, v) with d dbar (v omega^{n-1}) = 0, v > 0.

    v is normalized so the conformal metric has unit volume,
    ``integrate(v, g) == 1``, and u = log(v) / (n-1) so that e^u omega is
    the distinguished representative; v is returned as e^{(n-1)u}. Raises
    GauduchonKernelError when the computed kernel vector is not strictly
    positive (a sign the grid is too coarse: the continuum kernel contains
    a positive element).

    The discretized operator M (``laplacian_adjoint``) annihilates the
    flat grid mean exactly, so it has an exact one-dimensional kernel with
    a representative of nonzero mean. The kernel is found by one deflated
    solve in the mean-zero complement, v = 1 + xi with M(xi) = -M(1): the
    bordered solve pins the flat mean of xi to zero, and since M(xi) =
    -M(1) lies in the range of M (the mean-zero functions) the border
    unknown comes back zero.
    """
    u, v, _, _ = _weight_image(g)
    return u, v


def _weight_image(g: HermitianField) -> tuple:
    """(u, v, sup |M(1)|, M(v)) for ``gauduchon_weight``, with the planes
    of M built once: sup |M(1)| is the Gauduchon defect of g, v is
    e^{(n-1)u} itself, and its image M(v), the one application of M after
    the solve, is both the solve's contract check and the caller's weight
    residual."""
    g = g.as_metric()
    grid = g.grid
    shape = grid.shape
    planes = weight_planes(g)
    m_one = laplacian_adjoint(planes, np.ones(shape), grid)
    m_one_sup = float(np.max(np.abs(m_one)))

    v = np.ones(shape)
    if m_one_sup > 1e-14:
        xi, _, _ = solve_constrained(
            laplacian_adjoint,
            planes,
            rhs=-m_one,
            grid=grid,
            rtol=_WEIGHT_RTOL,
            maxiter=_WEIGHT_MAXITER,
        )
        v = v + xi
    del m_one
    u, v = _finish_weight(g, v)
    m_v = laplacian_adjoint(planes, v.values, grid)
    resid = float(np.max(np.abs(m_v)) / np.max(np.abs(v.values)))
    if resid > _WEIGHT_CONTRACT_TOL:
        raise LinearSolverStalled(
            f"conformal-weight solve stalled at relative residual {resid:.3e}"
        )
    return u, v, m_one_sup, m_v


def _finish_weight(g: HermitianField, v: np.ndarray) -> tuple:
    """(u, e^{(n-1)u}) for the kernel vector v, after its positivity
    check and the unit-volume normalization."""
    vmin = float(v.min())
    if vmin <= 0.0:
        raise GauduchonKernelError(
            f"conformal-weight kernel vector has minimum {vmin:.3e} <= 0; "
            "refine the grid"
        )
    n = g.grid.complex_dim
    v = v / integrate(ScalarField(g.grid, v), g)
    u = np.log(v) / (n - 1)
    return ScalarField(g.grid, u), ScalarField(g.grid, np.exp((n - 1) * u))


def gauduchon_metric(g: HermitianField) -> tuple:
    """(omega_G, u, v): the distinguished conformal metric e^u g and its
    weight, as in ``gauduchon_weight``."""
    u, v = gauduchon_weight(g)
    return g.scaled(np.exp(u.values)).as_metric(), u, v


def pair_density(a: HermitianField, b: HermitianField) -> np.ndarray:
    """Mixed determinant tr(adj(a) b) of two (1,1)-form coefficient fields, n=2.

    pair_density(a, a) = 2 det a, and a wedge b = (pair_density / 2) of
    the volume normalization used by ``wedge_integral``.
    """
    if a.grid.complex_dim != 2:
        raise GridMismatchError("pair_density is defined for n=2 only")
    return _contract(laplacian_planes(_adjugate(a.planes), 1), b.planes, a.grid)


def wedge_integral(a: HermitianField, b: HermitianField) -> float:
    """Integral of a wedge b for real (1,1)-forms, n=2.

    Normalized consistently with ``integrate``: for a metric g,
    wedge_integral(g, g) == integrate(1, g).
    """
    if a.grid != b.grid:
        raise GridMismatchError("forms live on different grids")
    return float(np.mean(pair_density(a, b)) / 2.0)
