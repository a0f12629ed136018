"""Periodic collocation grid on the complex torus C^n/(Z+iZ)^n.

A grid point carries 2n real coordinates (x^1, y^1, ..., x^n, y^n), each
sampled at {0, 1/N, ..., (N-1)/N} with period 1, so z^j = x^j + i y^j.
Array axis 2j holds x^{j+1} and axis 2j+1 holds y^{j+1}.

Holomorphic derivatives are Wirtinger operators

    d_j     = (d/dx^j - i d/dy^j) / 2,
    d_jbar  = (d/dx^j + i d/dy^j) / 2.

The default scheme is Fourier collocation, which differentiates
trigonometric polynomials of degree < N/2 exactly; central differences of
order k are kept to cross-validate the single-axis derivatives
(``d_real``, ``d_holo``, ``d_antiholo``) only; ``complex_hessian`` and
every other multi-derivative kernel raise GridMismatchError on such a
grid. First-derivative Fourier
multipliers vanish at the Nyquist frequency (exact for the symmetric mode
interpretation, and keeps real fields real); same-axis second derivatives
keep the full Nyquist symbol, so the discrete Laplacian's kernel is
exactly the constants.

Integration fixes all volume-form constants (n!, powers of i/2) into a
single convention: ``integrate(f, g) = mean over grid points of
f * det(g)``, so that ``integrate(1, flat identity metric) == 1``.

Real fields are transformed with real-input FFTs (``rfftn``/``irfftn``,
which keep the half spectrum whose last axis is cut to N/2 + 1), complex
fields with complex-to-complex ones. The Hessian symbols are cached once
per grid as real half-spectrum planes (``real_hessian_symbols``), built
on first use; every second-order operator with Hermitian coefficients
acts on real fields through them and the matching real coefficient
planes (``coefficient_planes``).

Fields are immutable after construction; all pointwise kernels are pure
and closed form. ``_adjugate`` is the one cofactor kernel (``inverse``,
the coefficient fields of omega^{n-1}, the n=2 wedge pairing).
The FFT backend (scipy.fft) keeps an internal plan cache that is safe for
concurrent read-only use; the worker count is taken from the MA_THREADS
environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft as _sfft

from .errors import GridMismatchError, NotPositiveError

HERMITIAN_RTOL = 1e-13

_CD_COEFFS = {
    2: [1.0 / 2.0],
    4: [2.0 / 3.0, -1.0 / 12.0],
    6: [3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0],
    8: [4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0],
}

_SCHEMES = ("fourier_collocation",) + tuple(f"central_difference_{k}" for k in _CD_COEFFS)


def _workers() -> int:
    try:
        return max(1, int(os.environ.get("MA_THREADS", "1")))
    except ValueError:
        return 1


def _fftn(a):
    return _sfft.fftn(a, workers=_workers())


def _ifftn(a):
    return _sfft.ifftn(a, workers=_workers())


def _rfftn(a):
    return _sfft.rfftn(a, workers=_workers())


def _irfftn(a, shape):
    return _sfft.irfftn(a, s=shape, workers=_workers())


@dataclass(frozen=True)
class GridSpec:
    """Collocation grid: n complex dimensions, N points per real axis."""

    complex_dim: int
    points_per_axis: int
    diff_scheme: str = "fourier_collocation"

    def __post_init__(self):
        if self.complex_dim not in (2, 3):
            raise GridMismatchError(f"complex_dim must be 2 or 3, got {self.complex_dim}")
        N = self.points_per_axis
        if N < 8 or N % 2 != 0:
            raise GridMismatchError(f"points_per_axis must be even and >= 8, got {N}")
        if self.diff_scheme not in _SCHEMES:
            raise GridMismatchError(
                f"unknown diff_scheme {self.diff_scheme!r}; one of {_SCHEMES}"
            )

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
    ``coefficient_planes``: S_ii for each i, then Re S_ij and Im S_ij for
    each i < j, with S_ij the symbol of d_i d_jbar.

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


def coefficient_planes(coeff: np.ndarray) -> tuple:
    """Real planes of the operator sum_ij coeff[..., i, j] d_i d_jbar for
    Hermitian coefficients, in the order of ``real_hessian_symbols``:
    Re coeff_ii for each i, then 2 Re coeff_ij and -2 Im coeff_ij for each
    i < j. On a real field f the operator is
    sum_k planes[k] * irfftn(symbols[k] * rfftn(f)).
    """
    n = coeff.shape[-1]
    planes = [coeff[..., i, i].real.copy() for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            planes += [2.0 * coeff[..., i, j].real, -2.0 * coeff[..., i, j].imag]
    return tuple(planes)


def _require_spectral(grid: GridSpec, what: str, error=GridMismatchError) -> None:
    """Raise ``error`` unless the grid uses Fourier collocation."""
    if grid.diff_scheme != "fourier_collocation":
        raise error(
            f"{what} requires the spectral scheme; central differences are "
            "kept for single-axis derivative cross-checks only"
        )


def _real_axis_derivative(values: np.ndarray, grid: GridSpec, real_axis: int):
    """d/d(coordinate) along one real axis, scheme taken from the grid."""
    N = grid.points_per_axis
    if grid.diff_scheme == "fourier_collocation":
        spec = _sfft.fft(values, axis=real_axis, workers=_workers())
        m = _frequencies(N)
        shape = [1] * values.ndim
        shape[real_axis] = N
        out = _sfft.ifft(spec * (2j * np.pi * m.reshape(shape)), axis=real_axis, workers=_workers())
        return out if np.iscomplexobj(values) else out.real
    k = int(grid.diff_scheme.rsplit("_", 1)[1])
    acc = np.zeros_like(values, dtype=np.result_type(values, float))
    for offset, c in enumerate(_CD_COEFFS[k], start=1):
        acc += c * N * (
            np.roll(values, -offset, axis=real_axis) - np.roll(values, offset, axis=real_axis)
        )
    return acc


@dataclass(frozen=True)
class ScalarField:
    """Real or complex function sampled on the grid."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if v.dtype not in (np.float64, np.complex128):
            v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64)
        if not np.isfinite(v).all():
            raise GridMismatchError("field values must be finite")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def sup(self) -> float:
        return float(np.max(self.values.real))

    def inf(self) -> float:
        return float(np.min(self.values.real))


def constant_field(grid: GridSpec, value: float = 0.0) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, value, dtype=np.float64))


def from_function(grid: GridSpec, fn) -> ScalarField:
    """Sample fn(coords) on the grid; fn gets the coordinates() dict."""
    vals = np.broadcast_to(fn(grid.coordinates()), grid.shape).copy()
    return ScalarField(grid, vals)


@dataclass(frozen=True)
class HermitianField:
    """Field of n x n Hermitian matrices (metrics and real (1,1)-forms).

    Entry [i, j] holds the coefficient on dz^{i+1} wedge dzbar^{j+1}; a
    metric g corresponds to the form omega = i * sum g_ij dz^i dzbar^j.
    Matrices are symmetrized on construction after checking Hermiticity to
    1e-13 relative; ``metric=True`` additionally validates positivity.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    metric: bool = False

    def __post_init__(self):
        n = self.grid.complex_dim
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape + (n, n):
            raise GridMismatchError(
                f"values shape {v.shape} does not match {self.grid.shape + (n, n)}"
            )
        # Entry by entry, so no temporary is larger than one scalar field;
        # np.max (not Python's max) keeps a NaN entry from being dropped.
        vmax = float(np.max([np.max(np.abs(v[..., i, j])) for i in range(n) for j in range(n)]))
        if not np.isfinite(vmax):
            raise GridMismatchError("matrix entries must be finite")
        scale = max(vmax, 1.0)
        # max |v - v^H|: entry (j, i) of v - v^H is minus the conjugate of
        # entry (i, j), and a diagonal entry is 2i Im v_ii.
        devs = [2.0 * np.max(np.abs(v[..., i, i].imag)) for i in range(n)]
        devs += [
            np.max(np.abs(v[..., i, j] - np.conj(v[..., j, i])))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        dev = float(np.max(devs))
        if dev > HERMITIAN_RTOL * scale:
            raise GridMismatchError(
                f"matrices deviate from Hermitian by {dev:.3e} (relative tolerance {HERMITIAN_RTOL})"
            )
        # 0.5 (v + v^H), with each lower entry the conjugate of the upper one
        out = np.empty(v.shape, dtype=np.complex128)
        for i in range(n):
            for j in range(i, n):
                np.multiply(0.5, v[..., i, j] + np.conj(v[..., j, i]), out=out[..., i, j])
                if i != j:
                    np.conjugate(out[..., i, j], out=out[..., j, i])
        out.setflags(write=False)
        object.__setattr__(self, "values", out)
        if self.metric:
            emin, point = min_eigenvalue(self)
            if emin <= 0.0:
                raise NotPositiveError(
                    f"metric has non-positive eigenvalue {emin:.6e} at grid point {point}",
                    worst_point=point,
                    worst_eigenvalue=emin,
                )

    def as_metric(self) -> "HermitianField":
        return self if self.metric else HermitianField(self.grid, self.values, metric=True)

    def __add__(self, other):
        if isinstance(other, HermitianField):
            return HermitianField(self.grid, self.values + other.values)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HermitianField):
            return HermitianField(self.grid, self.values - other.values)
        return NotImplemented

    def scaled(self, factor) -> "HermitianField":
        """Scale by a real constant or real ScalarField."""
        f = factor.values if isinstance(factor, ScalarField) else factor
        f = np.asarray(f)[..., None, None]
        return HermitianField(self.grid, self.values * f)


def identity_metric(grid: GridSpec) -> HermitianField:
    n = grid.complex_dim
    v = np.broadcast_to(np.eye(n, dtype=np.complex128), grid.shape + (n, n)).copy()
    return HermitianField(grid, v, metric=True)


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _det3(m):
    return (
        m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
        - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
        + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
    )


def _det(m):
    return _det2(m) if m.shape[-1] == 2 else _det3(m)


def det(h: HermitianField) -> np.ndarray:
    """Pointwise determinant (real for Hermitian matrices)."""
    return _det(h.values).real


def _adjugate(m: np.ndarray) -> np.ndarray:
    """Pointwise adjugate of Hermitian 2 x 2 or 3 x 3 matrices,
    adj(m) m = det(m) I. At n=3 the lower cofactors are the conjugates of
    the upper ones, since the adjugate of a Hermitian matrix is Hermitian.
    """
    adj = np.empty_like(m)
    if m.shape[-1] == 2:
        adj[..., 0, 0] = m[..., 1, 1]
        adj[..., 1, 1] = m[..., 0, 0]
        adj[..., 0, 1] = -m[..., 0, 1]
        adj[..., 1, 0] = -m[..., 1, 0]
        return adj
    for i in range(3):
        for j in range(i, 3):
            r, s, p, q = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
            adj[..., i, j] = m[..., r, p] * m[..., s, q] - m[..., r, q] * m[..., s, p]
            if i != j:
                adj[..., j, i] = np.conj(adj[..., i, j])
    return adj


def inverse(h: HermitianField) -> np.ndarray:
    """Pointwise inverse adj(h) / det(h), returned as a raw array."""
    out = _adjugate(h.values)
    out /= _det(h.values)[..., None, None]
    return out


def _eigmin_grid(mats: np.ndarray, n: int) -> np.ndarray:
    """Pointwise smallest eigenvalue of a grid of Hermitian n x n matrices."""
    if n == 2:
        tr = (mats[..., 0, 0] + mats[..., 1, 1]).real
        disc = (mats[..., 0, 0] - mats[..., 1, 1]).real ** 2 + 4.0 * np.abs(mats[..., 0, 1]) ** 2
        return 0.5 * (tr - np.sqrt(np.maximum(disc, 0.0)))
    return np.linalg.eigvalsh(mats)[..., 0]


def min_eigenvalue(h: HermitianField) -> tuple:
    """Smallest eigenvalue over the grid and the point where it occurs."""
    emin = _eigmin_grid(h.values, h.grid.complex_dim)
    flat = int(np.argmin(emin))
    point = np.unravel_index(flat, h.grid.shape)
    return float(emin.reshape(-1)[flat]), point


def d_holo(f: ScalarField, axis: int) -> ScalarField:
    """Holomorphic Wirtinger derivative d_axis f (axis in 0..n-1)."""
    n = f.grid.complex_dim
    if not 0 <= axis < n:
        raise GridMismatchError(f"holomorphic axis {axis} out of range for n={n}")
    dx = _real_axis_derivative(f.values, f.grid, 2 * axis)
    dy = _real_axis_derivative(f.values, f.grid, 2 * axis + 1)
    return ScalarField(f.grid, 0.5 * (dx - 1j * dy))


def d_antiholo(f: ScalarField, axis: int) -> ScalarField:
    """Anti-holomorphic Wirtinger derivative d_axisbar f."""
    n = f.grid.complex_dim
    if not 0 <= axis < n:
        raise GridMismatchError(f"holomorphic axis {axis} out of range for n={n}")
    dx = _real_axis_derivative(f.values, f.grid, 2 * axis)
    dy = _real_axis_derivative(f.values, f.grid, 2 * axis + 1)
    return ScalarField(f.grid, 0.5 * (dx + 1j * dy))


def d_real(f: ScalarField, real_axis: int) -> ScalarField:
    """Derivative along a single real axis (0..2n-1)."""
    return ScalarField(f.grid, _real_axis_derivative(f.values, f.grid, real_axis))


def complex_hessian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """All entries d_i d_jbar f as an array of shape grid.shape + (n, n).

    Spectral only. Real input takes one real forward transform and n^2
    real inverse ones from ``real_hessian_symbols``; the result is exactly
    Hermitian. Complex input is split into its real and imaginary parts.
    """
    _require_spectral(grid, "the complex Hessian")
    if np.iscomplexobj(values):
        return complex_hessian(values.real, grid) + 1j * complex_hessian(values.imag, grid)
    n, shape = grid.complex_dim, grid.shape
    out = np.empty(shape + (n, n), dtype=np.complex128)
    spec = _rfftn(values)
    symbols = iter(real_hessian_symbols(grid))
    for i in range(n):
        out[..., i, i] = _irfftn(next(symbols) * spec, shape)
    for i in range(n):
        for j in range(i + 1, n):
            re = _irfftn(next(symbols) * spec, shape)
            im = _irfftn(next(symbols) * spec, shape)
            out[..., i, j].real = re
            out[..., i, j].imag = im
            out[..., j, i].real = re
            out[..., j, i].imag = -im
    return out


def ddbar(f: ScalarField) -> HermitianField:
    """Complex Hessian of a real field as a Hermitian coefficient field.

    Entry (i, j) is d_i d_jbar f, the coefficient matrix of the real
    (1,1)-form i d dbar f.
    """
    if not f.is_real:
        raise GridMismatchError("ddbar expects a real field")
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

    ``values`` has the grid axes first (N points each) and any pointwise
    axes after them, e.g. the matrix entries of a HermitianField; real
    and imaginary parts are resampled separately by one real matrix per
    axis (``_resample_matrix``). Exact on trigonometric polynomials of
    degree < min(N, M)/2 in each variable; restricting what was
    prolonged returns the input.
    """
    if np.iscomplexobj(values):
        return resample(values.real, grid_to) + 1j * resample(values.imag, grid_to)
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
    if not f.is_real:
        raise GridMismatchError("integrate expects a real field")
    if f.grid != g.grid:
        raise GridMismatchError("field and metric live on different grids")
    return float(np.mean(f.values * det(g)))


def measure_weights(g: HermitianField) -> np.ndarray:
    """Probability weights of the measure d(mu) = omega^n / int omega^n."""
    if not g.metric:
        raise NotPositiveError("measure_weights requires a metric field")
    d = det(g)
    return d / d.sum()
