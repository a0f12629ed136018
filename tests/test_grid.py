from types import SimpleNamespace

import numpy as np
import pytest

from matorus.errors import GridMismatchError, NotPositiveError
from matorus.grid import (
    HERMITIAN_RTOL,
    GridSpec,
    HermitianField,
    ScalarField,
    _adjugate,
    _det,
    _hessian_matrix,
    constant_field,
    ddbar,
    det,
    identity_metric,
    integrate,
    inverse,
    measure_weights,
    min_eigenvalue,
    resample,
)

from conftest import d_antiholo, d_holo, peak_field_units, real_derivatives, sample
from random_fields import random_metric, random_trig_field


def test_gridspec_validation():
    GridSpec(2, 8)
    with pytest.raises(GridMismatchError):
        GridSpec(4, 8)
    with pytest.raises(GridMismatchError):
        GridSpec(2, 7)
    with pytest.raises(GridMismatchError):
        GridSpec(2, 6)


def test_derivative_of_constant_is_zero():
    grid = GridSpec(2, 8)
    f = constant_field(grid, 3.7)
    for ax in range(2):
        assert np.max(np.abs(d_holo(f, ax))) == 0.0
        assert np.max(np.abs(d_antiholo(f, ax))) == 0.0


def test_d_holo_cosine_oracle(grid16):
    f = sample(grid16, lambda c: np.cos(2 * np.pi * c["x1"]))
    got = d_holo(f, 0)
    want = sample(grid16, lambda c: -np.pi * np.sin(2 * np.pi * c["x1"])).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_d_holo_sine_y_oracle(grid16):
    f = sample(grid16, lambda c: np.sin(2 * np.pi * c["y1"]))
    got = d_holo(f, 0)
    want = -1j * np.pi * sample(grid16, lambda c: np.cos(2 * np.pi * c["y1"])).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_d_antiholo_is_conjugate_on_real_fields(grid8, rng):
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    for ax in range(2):
        a = d_holo(f, ax)
        b = d_antiholo(f, ax)
        assert np.max(np.abs(np.conj(a) - b)) < 1e-13


def test_fourier_exact_on_band_limited_modes(rng):
    grid = GridSpec(2, 8)
    coords = grid.coordinates()
    names = sorted(coords)
    for _ in range(5):
        m = rng.integers(-3, 4, size=4)  # strictly below Nyquist
        phase = 2 * np.pi * sum(int(k) * coords[c] for k, c in zip(m, names))
        phase = np.broadcast_to(phase, grid.shape)
        f = ScalarField(grid, np.cos(phase))
        # d/dx along axis 0 takes cos to -2 pi m_x1 sin
        mx1 = int(m[names.index("x1")])
        got = real_derivatives(f)[0].values
        want = -2 * np.pi * mx1 * np.sin(phase)
        assert np.max(np.abs(got - want)) < 1e-11


def test_real_derivatives_are_sums_of_wirtinger_derivatives(grid8, rng):
    # d/dx^j = d_j + d_jbar and d/dy^j = i (d_j - d_jbar) are the spectral
    # derivatives along the real axes, Nyquist mode dropped, as numpy's
    # transforms give them.
    vals = rng.standard_normal(grid8.shape)
    f = ScalarField(grid8, vals)
    m = np.fft.fftfreq(8, d=1.0 / 8)
    m[4] = 0.0
    for axis, d in enumerate(real_derivatives(f)):
        shape = [1] * 4
        shape[axis] = 8
        want = np.fft.ifftn(2j * np.pi * m.reshape(shape) * np.fft.fftn(vals))
        assert np.max(np.abs(d.values - want)) < 1e-12


def test_ddbar_zero_and_cosine(grid16):
    z = ddbar(constant_field(grid16))
    assert np.max(np.abs(z.values)) == 0.0
    f = sample(grid16, lambda c: np.cos(2 * np.pi * c["x1"]))
    h = ddbar(f)
    want = -np.pi**2 * f.values
    assert np.max(np.abs(h.values[..., 0, 0] - want)) < 1e-11
    assert np.max(np.abs(h.values[..., 0, 1])) < 1e-12
    assert np.max(np.abs(h.values[..., 1, 1])) < 1e-12


def test_ddbar_hermitian_on_random_real(grid8, rng):
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    h = ddbar(f).values
    assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) < 1e-13 * max(
        1.0, np.max(np.abs(h))
    )


def test_scalar_field_rejects_complex_values(grid8):
    # A scalar field is real: a complex array is rejected, not cast, even
    # when its imaginary part is zero.
    for imag in (1.0, 0.0):
        with pytest.raises(GridMismatchError, match="real"):
            ScalarField(grid8, np.ones(grid8.shape) + 1j * imag)


def test_hessian_matches_composition_on_band_limited(grid16, rng):
    # band-limited data: the fused spectral Hessian and the composition of
    # first derivatives agree (they differ only at the Nyquist modes)
    c = grid16.coordinates()
    f = ScalarField(
        grid16,
        np.broadcast_to(
            np.cos(2 * np.pi * (c["x1"] + 2 * c["y2"])) + np.sin(2 * np.pi * c["y1"]),
            grid16.shape,
        ).copy(),
    )
    h = ddbar(f).values
    for i in range(2):
        for j in range(2):
            comp = d_antiholo(SimpleNamespace(grid=grid16, values=d_holo(f, i)), j)
            assert np.max(np.abs(h[..., i, j] - comp)) < 1e-10


def test_integrate_flat_and_scaled(grid8):
    one = constant_field(grid8, 1.0)
    g = identity_metric(grid8)
    assert integrate(one, g) == pytest.approx(1.0, abs=1e-14)
    f = sample(grid8, lambda c: np.cos(2 * np.pi * c["x1"]))
    assert abs(integrate(f, g)) < 1e-14
    g2 = g.scaled(2.0).as_metric()
    assert integrate(one, g2) == pytest.approx(4.0, abs=1e-12)


def test_integrate_rejects_non_metric(grid8):
    one = constant_field(grid8, 1.0)
    h = HermitianField(grid8, np.zeros(grid8.shape + (2, 2), dtype=complex))
    with pytest.raises(NotPositiveError):
        integrate(one, h)


def test_discrete_divergence_theorem(rng):
    grid = GridSpec(2, 8)
    f = ScalarField(grid, rng.standard_normal(grid.shape))
    g = identity_metric(grid)
    for d in real_derivatives(f):
        assert abs(integrate(d, g)) < 1e-13


def test_measure_weights_sum_to_one(grid8, rng):
    g = random_metric(grid8, rng)
    w = measure_weights(g)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w > 0)


def test_hermitian_field_validation(grid8):
    vals = np.zeros(grid8.shape + (2, 2), dtype=complex)
    vals[..., 0, 1] = 1.0  # not Hermitian
    with pytest.raises(GridMismatchError):
        HermitianField(grid8, vals)


def test_metric_positivity_validation(grid8):
    vals = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), grid8.shape + (2, 2)).copy()
    with pytest.raises(NotPositiveError):
        HermitianField(grid8, vals, metric=True)


def test_closed_form_inverse_and_det(rng):
    for n in (2, 3):
        grid = GridSpec(n, 8)
        g = random_metric(grid, rng, amplitude=0.3)
        flat = g.values.reshape(-1, n, n)[:50]
        inv = inverse(g).reshape(-1, n, n)[:50]
        assert np.allclose(inv @ flat, np.eye(n), atol=1e-12)
        d = det(g).reshape(-1)[:50]
        assert np.allclose(d, np.linalg.det(flat).real, atol=1e-12)
        emin, _ = min_eigenvalue(g)
        assert emin == pytest.approx(np.linalg.eigvalsh(g.values).min(), abs=1e-12)

        # ill-conditioned: U diag(lam) U^H with U random unitary and the
        # eigenvalues spanning 1e-6 ... 1e3 at every point. Cofactor
        # formulas cancel terms of size lam_max^n down to det, so at each
        # point the closed-form inverse is accurate to about
        # eps * lam_max^n / det relative to its largest entry: eps * cond
        # at n=2, but up to eps * cond^2 at n=3 when two eigenvalues are
        # small. The tolerance leaves a factor of 50 on that bound.
        shape = grid.shape + (n, n)
        u, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        lam = np.empty(grid.shape + (n,))
        lam[..., 0], lam[..., -1] = 1e-6, 1e3
        lam[..., 1:-1] = 10.0 ** rng.uniform(-6, 3, grid.shape + (n - 2,))
        m = (u * lam[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))
        h = HermitianField(grid, 0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))
        want = np.linalg.inv(h.values)
        err = np.max(np.abs(inverse(h) - want), axis=(-2, -1))
        bound = 50 * np.finfo(float).eps * 1e3**n / np.prod(lam, axis=-1)
        assert np.all(err <= bound * np.max(np.abs(want), axis=(-2, -1)))


@pytest.mark.parametrize("n", [2, 3])
def test_planes_kernels_on_indefinite_fields(n):
    # The cofactors and the determinant are polynomials in the planes, so
    # they hold on fields that are not positive, such as the Ric - psi
    # whose cofactors the n=2 pairing takes.
    grid = GridSpec(n, 8)
    rng = np.random.default_rng(404 + n)
    shape = grid.shape + (n, n)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = a + np.conj(np.swapaxes(a, -1, -2))
    eig = np.linalg.eigvalsh(m)
    assert ((eig[..., 0] < 0) & (eig[..., -1] > 0)).mean() > 0.5
    p = HermitianField(grid, m).planes
    adj = _adjugate(p)
    d = _det(p, adj)
    want = np.linalg.det(m).real
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(d - want))) <= 1e-12 * scale
    err = _hessian_matrix(adj) @ m - d[..., None, None] * np.eye(n)
    assert float(np.max(np.abs(err))) <= 1e-12 * scale


@pytest.mark.parametrize("n, N", [(2, 12), (3, 10)])
def test_plane_built_fields_match_the_complex_constructor_bitwise(n, N):
    # The internal producers build a field from planes, with no Hermitian
    # check: a coarse metric from its resampled planes, and g + Hess phi
    # from the sum of the planes. Their matrices are those the complex
    # constructor builds from the resampled matrices and the matrix sum,
    # bit for bit.
    rng = np.random.default_rng(60 + n)
    fine, coarse = GridSpec(n, N), GridSpec(n, 8)
    g_fine = identity_metric(fine) + ddbar(random_trig_field(fine, rng, amplitude=0.02))
    g = HermitianField(coarse, tuple(resample(p, coarse) for p in g_fine.planes))
    v = g_fine.values
    from_matrix = HermitianField(coarse, resample(v.real, coarse) + 1j * resample(v.imag, coarse))
    assert np.array_equal(g.values.view(np.uint64), from_matrix.values.view(np.uint64))
    phi = random_trig_field(coarse, rng, amplitude=0.05)
    from_planes = g + ddbar(phi)
    from_matrix = HermitianField(coarse, g.values + ddbar(phi).values)
    assert np.array_equal(from_planes.values.view(np.uint64), from_matrix.values.view(np.uint64))


def test_fields_are_immutable(grid8):
    f = constant_field(grid8, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0, 0] = 2.0
    g = identity_metric(grid8)
    with pytest.raises(ValueError):
        g.values[..., 0, 0] = 5.0
    with pytest.raises(ValueError):
        g.planes[0][0, 0, 0, 0] = 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["scalar", "hermitian", "metric", "planes"])
def test_non_finite_values_rejected(grid8, kind, bad):
    if kind == "scalar":
        vals = np.zeros(grid8.shape)
        vals[0, 1, 2, 3] = bad
        with pytest.raises(GridMismatchError):
            ScalarField(grid8, vals)
        return
    if kind == "planes":
        planes = [p.copy() for p in identity_metric(grid8).planes]
        planes[3][0, 1, 2, 3] = bad
        with pytest.raises(GridMismatchError, match="finite"):
            HermitianField(grid8, tuple(planes))
        return
    vals = identity_metric(grid8).values.copy()
    vals[0, 1, 2, 3, 0, 0] = bad
    with pytest.raises(GridMismatchError):
        HermitianField(grid8, vals, metric=(kind == "metric"))


ENTRIES = [(n, i, j) for n in (2, 3) for i in range(n) for j in range(n)]


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n, i, j", ENTRIES)
def test_non_finite_entry_rejected(n, i, j, bad, part):
    # Every entry is checked, not only the first one reduced
    grid = GridSpec(n, 8)
    vals = np.broadcast_to(np.eye(n, dtype=complex), grid.shape + (n, n)).copy()
    if part == "real":
        vals[1, 2, 3, 4, i, j] = bad + 1j * vals[1, 2, 3, 4, i, j].imag
    else:
        vals[1, 2, 3, 4, i, j] = vals[1, 2, 3, 4, i, j].real + 1j * bad
    with pytest.raises(GridMismatchError, match="finite"):
        HermitianField(grid, vals)


def _nearly_hermitian(grid, rng, eps):
    """A random Hermitian field plus a non-Hermitian perturbation of size eps."""
    n = grid.complex_dim
    shape = grid.shape + (n, n)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return m + np.conj(np.swapaxes(m, -1, -2)) + eps * noise


@pytest.mark.parametrize("n", [2, 3])
def test_symmetrized_values_are_bitwise_half_sum(n):
    grid = GridSpec(n, 8)
    v = _nearly_hermitian(grid, np.random.default_rng(31 + n), 0.01 * HERMITIAN_RTOL)
    vh = np.conj(np.swapaxes(v, -1, -2))
    assert np.max(np.abs(v - vh)) > 0.0
    assert np.array_equal(HermitianField(grid, v).values, 0.5 * (v + vh))


@pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
@pytest.mark.parametrize("n", [2, 3])
def test_hermitian_deviation_is_reported_exactly(n, where):
    grid = GridSpec(n, 8)
    v = _nearly_hermitian(grid, np.random.default_rng(47 + n), 1e-9)
    # The largest deviation sits on a diagonal imaginary part or on an
    # off-diagonal entry.
    v[(1,) * (2 * n) + (n - 1, n - 1 if where == "diagonal" else 0)] += 1e-6j
    dev = float(np.max(np.abs(v - np.conj(np.swapaxes(v, -1, -2)))))
    with pytest.raises(GridMismatchError) as err:
        HermitianField(grid, v)
    assert f"deviate from Hermitian by {dev:.3e} " in str(err.value)


@pytest.mark.parametrize(
    "n, N, budget",
    [
        # The stored planes, half the complex array, and one entry at a
        # time; at n=3 the eigenvalues take one grid slab of matrices at a
        # time: 5.00 and 7.31 fields.
        (2, 16, 5.5),
        (3, 8, 8.0),
    ],
)
def test_metric_validation_memory_budget(n, N, budget):
    grid = GridSpec(n, N)
    vals = np.array(random_metric(grid, np.random.default_rng(5)).values)
    assert peak_field_units(lambda: HermitianField(grid, vals, metric=True), grid) <= budget
