"""Periodic collocation grid on the complex torus C^n/(Z+iZ)^n.

A grid point carries 2n real coordinates (x^1, y^1, ..., x^n, y^n), each
sampled at {0, 1/N, ..., (N-1)/N} with period 1, so z^j = x^j + i y^j.
Array axis 2j holds x^{j+1} and axis 2j+1 holds y^{j+1}.

Holomorphic derivatives are Wirtinger operators

    d_j     = (d/dx^j - i d/dy^j) / 2,
    d_jbar  = (d/dx^j + i d/dy^j) / 2.

Every derivative is Fourier collocation, which differentiates
trigonometric polynomials of degree < N/2 exactly. A first derivative
multiplies the complex spectrum by the Wirtinger symbol sigma_j of d_j
(``_holo_symbols``), d_jbar by -conj(sigma_j); only
``geometry.antisymmetric_pairs`` takes one, of the metric's entries. The
symbols vanish at the Nyquist frequency (exact for the symmetric mode
interpretation); same-axis second derivatives keep the full Nyquist
symbol, so the discrete Laplacian's kernel is exactly the constants.

Integration fixes all volume-form constants (n!, powers of i/2) into a
single convention: ``integrate(f, g) = mean over grid points of
f * det(g)``, so that ``integrate(1, flat identity metric) == 1``.

Scalar fields are real (float64) and are transformed with real-input
FFTs (``rfftn``/``irfftn``, which keep the half spectrum whose last axis
is cut to N/2 + 1); the complex entries of a metric take
complex-to-complex ones. The Hessian symbols are cached once per grid as
real half-spectrum planes (``real_hessian_symbols``), built
on first use; every second-order operator with Hermitian coefficients
acts on real fields through them and the coefficient planes of
``linsolve.laplacian_planes``, the one builder.

Fields are immutable after construction. A Hermitian field m is stored
as its n^2 real planes in the same order, and its pointwise math reads
them; ``HermitianField.values`` assembles m on demand (``_hessian_matrix``,
entry by entry, ``_entry``). ``_adjugate`` gives the planes of adj(m) and
``_det`` expands det m from them, in real arithmetic; ``_eigmin_grid`` is
a closed form at n=2 and takes one grid slab of matrices at a time at n=3.
Every transform is SciPy's compiled pocketfft kernel, the extension
``scipy.fft`` itself calls, loaded from its file (``_load_pocketfft``)
without importing ``scipy.fft``, whose import loads ``scipy.special`` and
``numpy.f2py``. The wrappers pass the arguments ``scipy.fft``'s n-d
transforms pass (every axis, no normalization forward and 1/N inverse,
one thread), so the results are those of ``scipy.fft`` bit for bit, with
none of its per-call dispatch.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, NotPositiveError

HERMITIAN_RTOL = 1e-13


def _load_pocketfft():
    """SciPy's compiled pocketfft extension (``scipy/fft/_pocketfft/
    pypocketfft``), loaded from its file; ``find_spec`` locates the scipy
    package without importing it. Without the file, ImportError names the
    directories looked in and the scipy version."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec else ()
    where = [os.path.join(root, "fft", "_pocketfft") for root in roots]
    name = "scipy.fft._pocketfft.pypocketfft"
    for d in where:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(d, "pypocketfft" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(name, loader)
                )
                loader.exec_module(module)
                return module
    from importlib.metadata import PackageNotFoundError, version

    try:
        found = f"scipy {version('scipy')}"
    except PackageNotFoundError:
        found = "no scipy installed"
    raise ImportError(f"scipy's pocketfft kernel (pypocketfft) not found in {where} ({found})")


_pocketfft = _load_pocketfft()


# Every axis (None), inorm 0 forward and 2 (divide by N) inverse, one thread.
def _fftn(a):
    return _pocketfft.c2c(a, None, True, 0, None, 1)


def _ifftn(a, out=None):
    return _pocketfft.c2c(a, None, False, 2, out, 1)


def _rfftn(a):
    return _pocketfft.r2c(a, None, True, 0, None, 1)


def _irfftn(a, shape):
    return _pocketfft.c2r(a, None, shape[-1], False, 2, None, 1)


@dataclass(frozen=True)
class GridSpec:
    """Collocation grid: n complex dimensions, N points per real axis."""

    complex_dim: int
    points_per_axis: int

    def __post_init__(self):
        if self.complex_dim not in (2, 3):
            raise GridMismatchError(f"complex_dim must be 2 or 3, got {self.complex_dim}")
        N = self.points_per_axis
        if N < 8 or N % 2 != 0:
            raise GridMismatchError(f"points_per_axis must be even and >= 8, got {N}")

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * (2 * self.complex_dim)

    @property
    def npoints(self) -> int:
        return self.points_per_axis ** (2 * self.complex_dim)

    def axis_coordinate(self, real_axis: int) -> np.ndarray:
        """1-d coordinate array for a real axis, broadcastable to the grid."""
        N = self.points_per_axis
        c = np.arange(N) / N
        shape = [1] * (2 * self.complex_dim)
        shape[real_axis] = N
        return c.reshape(shape)

    def coordinates(self) -> dict:
        """Broadcastable coordinate arrays keyed 'x1', 'y1', ..."""
        out = {}
        for j in range(self.complex_dim):
            out[f"x{j + 1}"] = self.axis_coordinate(2 * j)
            out[f"y{j + 1}"] = self.axis_coordinate(2 * j + 1)
        return out


@lru_cache(maxsize=32)
def _frequencies(N: int) -> np.ndarray:
    """Integer frequencies with the Nyquist mode zeroed (N even)."""
    m = np.fft.fftfreq(N, d=1.0 / N)
    m[N // 2] = 0.0
    return m


@lru_cache(maxsize=32)
def _holo_symbols(grid: GridSpec) -> tuple:
    """Fourier symbols sigma_j of d_j, broadcast over the spectral grid.

    On the mode exp(2 pi i (m.x + l.y)) the operator d_j acts as
    multiplication by pi * (l_j + i m_j); d_jbar acts by -conj(sigma_j).
    """
    n, N = grid.complex_dim, grid.points_per_axis
    m = _frequencies(N)
    sigmas = []
    for j in range(n):
        shape_x = [1] * (2 * n)
        shape_x[2 * j] = N
        shape_y = [1] * (2 * n)
        shape_y[2 * j + 1] = N
        mx = m.reshape(shape_x)
        ly = m.reshape(shape_y)
        sigmas.append(np.pi * (ly + 1j * mx))
    return tuple(sigmas)


@lru_cache(maxsize=32)
def _diag_second_symbols(grid: GridSpec) -> tuple:
    """Symbols of d_j d_jbar = (d^2/dx^2 + d^2/dy^2)/4 per complex axis.

    Unlike the first-derivative symbols, the Nyquist frequency is kept:
    the second derivative of the Nyquist cosine mode is nonzero at the
    nodes, and keeping it makes the discrete Laplacian's kernel exactly
    the constants (no spurious checkerboard null modes).
    """
    n, N = grid.complex_dim, grid.points_per_axis
    m = np.fft.fftfreq(N, d=1.0 / N)
    msq = m * m
    out = []
    for j in range(n):
        shape_x = [1] * (2 * n)
        shape_x[2 * j] = N
        shape_y = [1] * (2 * n)
        shape_y[2 * j + 1] = N
        out.append(
            -np.pi**2 * (msq.reshape(shape_x) + msq.reshape(shape_y))
        )
    return tuple(out)


def hessian_symbol(grid: GridSpec, i: int, j: int) -> np.ndarray:
    """Spectral multiplier of the Hessian entry d_i d_jbar."""
    if i == j:
        return _diag_second_symbols(grid)[i]
    sig = _holo_symbols(grid)
    return -sig[i] * np.conj(sig[j])


@lru_cache(maxsize=32)
def real_hessian_symbols(grid: GridSpec) -> tuple:
    """Real half-spectrum planes of the Hessian symbols, in the order of
    ``linsolve.laplacian_planes``: S_ii for each i, then Re S_ij and
    Im S_ij for each i < j, with S_ij the symbol of d_i d_jbar.

    Each plane is real and even in the frequency, so it maps real fields
    to real fields: for real f and F = rfftn(f), d_i d_jbar f is
    irfftn(Re S_ij F) + i irfftn(Im S_ij F). The planes cover the half
    spectrum kept by rfftn (last axis cut to N/2 + 1) and are read-only.
    """
    n, N = grid.complex_dim, grid.points_per_axis
    half = grid.shape[:-1] + (N // 2 + 1,)

    def plane(sym):
        p = np.broadcast_to(sym[..., : N // 2 + 1], half).copy()
        p.setflags(write=False)
        return p

    planes = [plane(hessian_symbol(grid, i, i)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = hessian_symbol(grid, i, j)
            planes += [plane(s.real), plane(s.imag)]
    return tuple(planes)


@dataclass(frozen=True)
class ScalarField:
    """Real function sampled on the grid, stored as float64; complex
    values are rejected, never cast."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if np.iscomplexobj(v):
            raise GridMismatchError("a scalar field takes real values")
        v = np.ascontiguousarray(v, dtype=np.float64)
        if not np.isfinite(v).all():
            raise GridMismatchError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def sup(self) -> float:
        return float(np.max(self.values))

    def inf(self) -> float:
        return float(np.min(self.values))


def constant_field(grid: GridSpec, value: float = 0.0) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, value, dtype=np.float64))


def _sup(arrays) -> float:
    """max |a| over ``arrays``, one at a time; raises unless it is finite."""
    s = float(np.max([np.max(np.abs(a)) for a in arrays]))
    if not np.isfinite(s):
        raise GridMismatchError("matrix entries must be finite")
    return s


@dataclass(frozen=True)
class HermitianField:
    """Field of n x n Hermitian matrices (metrics and real (1,1)-forms).

    Entry [i, j] holds the coefficient on dz^{i+1} wedge dzbar^{j+1}; a
    metric g corresponds to the form omega = i * sum g_ij dz^i dzbar^j.
    It is stored as its n^2 real planes, read-only, in the order of
    ``real_hessian_symbols``; ``values`` builds the complex matrices. The
    planes are given as that tuple, taken over and checked to be finite,
    or as a complex array of matrices, also checked to be Hermitian to
    1e-13 relative, and symmetrized. ``metric=True`` additionally checks
    positivity and that det g, the volume form, is a positive normal double.
    """

    grid: GridSpec
    planes: tuple = field(repr=False)
    metric: bool = False

    def __post_init__(self):
        n = self.grid.complex_dim
        if isinstance(self.planes, tuple):
            planes = tuple(np.asarray(p, dtype=np.float64) for p in self.planes)
            if len(planes) != n * n or any(p.shape != self.grid.shape for p in planes):
                raise GridMismatchError(
                    f"a Hermitian field takes {n * n} planes of shape {self.grid.shape}")
            vmax = _sup(planes)
        else:
            v = np.asarray(self.planes, dtype=np.complex128)
            if v.shape != self.grid.shape + (n, n):
                raise GridMismatchError(
                    f"values shape {v.shape} does not match {self.grid.shape + (n, n)}"
                )
            # Entry by entry, so no temporary is larger than one scalar field.
            vmax = _sup(v[..., i, j] for i in range(n) for j in range(n))
            # max |v - v^H|: entry (j, i) of v - v^H is minus the conjugate of
            # entry (i, j), and a diagonal entry is 2i Im v_ii.
            devs = [2.0 * np.max(np.abs(v[..., i, i].imag)) for i in range(n)]
            devs += [np.max(np.abs(v[..., i, j] - np.conj(v[..., j, i])))
                     for i in range(n) for j in range(i + 1, n)]
            dev = float(np.max(devs))
            if dev > HERMITIAN_RTOL * max(vmax, 1.0):
                raise GridMismatchError(
                    f"matrices deviate from Hermitian by {dev:.3e} (relative tolerance {HERMITIAN_RTOL})"
                )
            # the planes of 0.5 (v + v^H)
            planes = [(0.5 * (v[..., i, i] + np.conj(v[..., i, i]))).real.copy() for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    e = 0.5 * (v[..., i, j] + np.conj(v[..., j, i]))
                    planes += [e.real.copy(), e.imag.copy()]
        for p in planes:
            p.setflags(write=False)
        object.__setattr__(self, "planes", tuple(planes))
        if self.metric:
            emin, point = min_eigenvalue(self)
            if emin <= 0.0:
                raise NotPositiveError(
                    f"metric has non-positive eigenvalue {emin:.6e} at grid point {point}",
                    worst_point=point,
                    worst_eigenvalue=emin,
                )
            # det g, the volume form, must be a positive normal double; as
            # emin^n <= det <= (n vmax)^n, it is computed only near an end.
            lo, hi = np.finfo(float).tiny, np.finfo(float).max
            if np.log(lo) + 1 < n * np.log(emin) and n * np.log(n * vmax) < np.log(hi) - 1:
                return
            with np.errstate(over="ignore", invalid="ignore"):
                d = det(self)
                ok = lo <= d.min() <= d.max() <= hi  # False for NaN too
            if not ok:
                point = tuple(map(int, np.unravel_index(np.argmin((d >= lo) & (d <= hi)), d.shape)))
                raise NotPositiveError(
                    f"metric volume form det g = {d[point]:.6e} at grid point {point} "
                    "is not a positive normal double",
                    worst_point=point,
                )

    @property
    def values(self) -> np.ndarray:
        """The exactly Hermitian complex matrices (read-only)."""
        v = _hessian_matrix(self.planes)
        v.setflags(write=False)
        return v

    def as_metric(self) -> "HermitianField":
        return self if self.metric else HermitianField(self.grid, self.planes, metric=True)

    def __add__(self, other):
        if isinstance(other, HermitianField):
            return HermitianField(self.grid, tuple(map(np.add, self.planes, other.planes)))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HermitianField):
            return HermitianField(self.grid, tuple(map(np.subtract, self.planes, other.planes)))
        return NotImplemented

    def scaled(self, factor) -> "HermitianField":
        """Scale by a real constant or a real array of the grid's shape."""
        return HermitianField(self.grid, tuple(p * factor for p in self.planes))


def identity_metric(grid: GridSpec) -> HermitianField:
    n = grid.complex_dim
    one, zero = np.ones(grid.shape), np.zeros(grid.shape)
    return HermitianField(grid, (one,) * n + (zero,) * (n * n - n), metric=True)


def _adjugate(p: tuple) -> tuple:
    """Planes of adj(m), with adj(m) m = det(m) I, from the planes ``p`` of
    a Hermitian 2 x 2 or 3 x 3 matrix field m."""
    if len(p) == 4:
        return p[1], p[0], -p[2], -p[3]
    # m01 = a + ib, m02 = c + id, m12 = e + if
    m00, m11, m22, a, b, c, d, e, f = p
    return (
        m11 * m22 - (e * e + f * f),
        m00 * m22 - (c * c + d * d),
        m00 * m11 - (a * a + b * b),
        e * c + f * d - m22 * a,
        e * d - f * c - m22 * b,
        a * e - b * f - m11 * c,
        a * f + b * e - m11 * d,
        a * c + b * d - m00 * e,
        a * d - b * c - m00 * f,
    )


def _det(p: tuple, adj: tuple) -> np.ndarray:
    """det m from the planes of m and of adj(m) (``_adjugate``), expanded
    along the first row: m_00 adj_00 + sum_j Re(m_0j conj(adj_0j))."""
    n = math.isqrt(len(p))
    det_m = p[0] * adj[0]
    for k in range(n, 3 * n - 2, 2):
        det_m += p[k] * adj[k] + p[k + 1] * adj[k + 1]
    return det_m


def det(h: HermitianField) -> np.ndarray:
    """Pointwise determinant (real for Hermitian matrices)."""
    return _det(h.planes, _adjugate(h.planes))


def inverse(h: HermitianField) -> np.ndarray:
    """Pointwise inverse adj(h) / det(h), returned as a raw array."""
    adj = _adjugate(h.planes)
    out = _hessian_matrix(adj)
    out /= _det(h.planes, adj)[..., None, None]
    return out


def _eigmin_grid(p: tuple) -> np.ndarray:
    """Pointwise smallest eigenvalue of the Hermitian matrix field with
    planes ``p``; at n=2 in closed form, its discriminant a sum of squares."""
    if len(p) == 4:
        m00, m11, a, b = p
        return 0.5 * (m00 + m11 - np.sqrt((m00 - m11) ** 2 + 4.0 * (a * a + b * b)))
    # one slab of the first grid axis at a time, not the whole grid's matrices
    emin = np.empty(p[0].shape)
    for k, slab in enumerate(zip(*p)):
        emin[k] = np.linalg.eigvalsh(_hessian_matrix(slab))[..., 0]
    return emin


def min_eigenvalue(h: HermitianField) -> tuple:
    """Smallest eigenvalue over the grid and the point where it occurs."""
    emin = _eigmin_grid(h.planes)
    point = tuple(map(int, np.unravel_index(np.argmin(emin), emin.shape)))
    return float(emin[point]), point


def complex_hessian(values: np.ndarray, grid: GridSpec) -> tuple:
    """The planes of the complex Hessian d_i d_jbar f of a real field f:
    one real forward transform and n^2 real inverse ones."""
    return tuple(_hessian_planes(_rfftn(values), grid))


def _hessian_planes(spec: np.ndarray, grid: GridSpec):
    """irfftn(S_k * spec) for each plane S_k of ``real_hessian_symbols``,
    one at a time: the real planes of the complex Hessian of the real
    field whose half spectrum is ``spec``."""
    return (_irfftn(symbol * spec, grid.shape) for symbol in real_hessian_symbols(grid))


def _entry(p: tuple, i: int, j: int, out=None) -> np.ndarray:
    """Entry (i, j) of the Hermitian matrix field with planes ``p``, in
    ``out`` when it is given."""
    out = np.empty(p[0].shape, dtype=np.complex128) if out is None else out
    if i == j:
        out.real, out.imag = p[i], 0.0
        return out
    n, a, b = math.isqrt(len(p)), min(i, j), max(i, j)
    k = n + 2 * (a * (2 * n - a - 1) // 2 + b - a - 1)  # the plane of Re m_ab, a < b
    out.real = p[k]
    np.multiply(p[k + 1], 1.0 if i < j else -1.0, out=out.imag)  # conjugate below
    return out


def _hessian_matrix(planes: tuple) -> np.ndarray:
    """The exactly Hermitian matrix field with the given real planes, in
    the order of ``real_hessian_symbols``, shape grid.shape + (n, n)."""
    n = math.isqrt(len(planes))
    out = np.empty(planes[0].shape + (n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            _entry(planes, i, j, out[..., i, j])
    return out


def ddbar(f: ScalarField) -> HermitianField:
    """Complex Hessian of a real field as a Hermitian coefficient field.

    Entry (i, j) is d_i d_jbar f, the coefficient matrix of the real
    (1,1)-form i d dbar f.
    """
    return HermitianField(f.grid, complex_hessian(f.values, f.grid))


@lru_cache(maxsize=32)
def _resample_matrix(N: int, M: int) -> np.ndarray:
    """Real M x N matrix of trigonometric interpolation along one axis.

    Modes |m| < min(N, M)/2 are kept. Going up (M > N) the Nyquist mode
    of N is split in half between +-N/2; going down (M < N) the modes
    +-M/2 are folded into the Nyquist mode of M; everything else is cut.
    """
    K = min(N, M) // 2
    coeff = np.fft.fft(np.eye(N), axis=0) / N  # row m: coefficient of mode m
    spec = np.zeros((M, N), dtype=np.complex128)
    spec[:K] = coeff[:K]
    spec[M - K + 1:] = coeff[N - K + 1:]
    if M > N:
        spec[K] = spec[M - K] = 0.5 * coeff[K]
    elif M < N:
        spec[K] = coeff[K] + coeff[N - K]
    else:
        spec[K] = coeff[K]
    out = np.ascontiguousarray(np.fft.ifft(spec, axis=0).real * M)
    out.setflags(write=False)
    return out


def resample(values: np.ndarray, grid_to: GridSpec) -> np.ndarray:
    """Trigonometric interpolation of grid samples onto ``grid_to``.

    ``values`` is real, with the grid axes first (N points each) and any
    pointwise axes after them; each axis is resampled by one real matrix
    (``_resample_matrix``). Exact on trigonometric polynomials of degree
    < min(N, M)/2 in each variable; restricting what was prolonged returns
    the input.
    """
    out = np.asarray(values, dtype=np.float64)
    for axis in range(2 * grid_to.complex_dim):
        R = _resample_matrix(out.shape[axis], grid_to.points_per_axis)
        out = np.moveaxis(np.tensordot(R, out, axes=(1, axis)), 0, axis)
    return np.ascontiguousarray(out)


def integrate(f: ScalarField, g: HermitianField) -> float:
    """Normalized integral of f against the volume form of the metric g.

    Equals ``mean over grid points of f * det(g)``; the form-factor
    constants are absorbed so the flat identity metric has total volume 1.
    """
    if not g.metric:
        raise NotPositiveError("integrate requires a metric field (construct with metric=True)")
    if f.grid != g.grid:
        raise GridMismatchError("field and metric live on different grids")
    return float(np.mean(f.values * det(g)))


def measure_weights(g: HermitianField) -> np.ndarray:
    """Probability weights of the measure d(mu) = omega^n / int omega^n."""
    if not g.metric:
        raise NotPositiveError("measure_weights requires a metric field")
    d = det(g)
    return d / d.sum()
