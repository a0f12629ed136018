import numpy as np
import pytest

from matorus.errors import GridMismatchError, NotPositiveError
from matorus.grid import (
    HERMITIAN_RTOL,
    GridSpec,
    HermitianField,
    ScalarField,
    complex_hessian,
    constant_field,
    d_antiholo,
    d_holo,
    d_real,
    ddbar,
    det,
    identity_metric,
    integrate,
    inverse,
    measure_weights,
    min_eigenvalue,
)

from matorus.problems import random_metric

from conftest import peak_field_units, sample


def test_gridspec_validation():
    GridSpec(2, 8)
    GridSpec(3, 8, "central_difference_4")
    with pytest.raises(GridMismatchError):
        GridSpec(4, 8)
    with pytest.raises(GridMismatchError):
        GridSpec(2, 7)
    with pytest.raises(GridMismatchError):
        GridSpec(2, 6)
    with pytest.raises(GridMismatchError):
        GridSpec(2, 8, "upwind")


def test_derivative_of_constant_is_zero():
    for scheme in ("fourier_collocation", "central_difference_2", "central_difference_6"):
        grid = GridSpec(2, 8, scheme)
        f = constant_field(grid, 3.7)
        for ax in range(2):
            assert np.max(np.abs(d_holo(f, ax).values)) == 0.0
            assert np.max(np.abs(d_antiholo(f, ax).values)) == 0.0


def test_d_holo_cosine_oracle(grid16):
    f = sample(grid16, lambda c: np.cos(2 * np.pi * c["x1"]))
    got = d_holo(f, 0).values
    want = sample(grid16, lambda c: -np.pi * np.sin(2 * np.pi * c["x1"])).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_d_holo_sine_y_oracle(grid16):
    f = sample(grid16, lambda c: np.sin(2 * np.pi * c["y1"]))
    got = d_holo(f, 0).values
    want = -1j * np.pi * sample(grid16, lambda c: np.cos(2 * np.pi * c["y1"])).values
    assert np.max(np.abs(got - want)) < 1e-12


def test_d_antiholo_is_conjugate_on_real_fields(grid8, rng):
    f = ScalarField(grid8, rng.standard_normal(grid8.shape))
    for ax in range(2):
        a = d_holo(f, ax).values
        b = d_antiholo(f, ax).values
        assert np.max(np.abs(np.conj(a) - b)) < 1e-13


def test_fourier_exact_on_band_limited_modes(rng):
    grid = GridSpec(2, 8)
    coords = grid.coordinates()
    names = sorted(coords)
    for _ in range(5):
        m = rng.integers(-3, 4, size=4)  # strictly below Nyquist
        phase = 2 * np.pi * sum(int(k) * coords[c] for k, c in zip(m, names))
        f = ScalarField(grid, np.exp(1j * np.broadcast_to(phase, grid.shape)))
        # d/dx along axis 0 multiplies by 2 pi i m_x1
        mx1 = int(m[names.index("x1")])
        got = d_real(f, 0).values
        want = 2j * np.pi * mx1 * f.values
        assert np.max(np.abs(got - want)) < 1e-11


def test_axis_out_of_range(grid8):
    f = constant_field(grid8)
    with pytest.raises(GridMismatchError):
        d_holo(f, 2)
    with pytest.raises(GridMismatchError):
        d_antiholo(f, -1)


def test_central_difference_convergence_order():
    errs = {}
    for N in (16, 32):
        grid = GridSpec(2, N, "central_difference_4")
        f = sample(grid, lambda c: np.sin(2 * np.pi * c["x1"]))
        got = d_real(f, 0).values
        want = sample(grid, lambda c: 2 * np.pi * np.cos(2 * np.pi * c["x1"])).values
        errs[N] = np.max(np.abs(got - want))
    order = np.log2(errs[16] / errs[32])
    assert 3.5 < order < 4.5


def test_central_difference_cross_validates_fourier(rng):
    gf = GridSpec(2, 16)
    gc = GridSpec(2, 16, "central_difference_8")
    vals = np.broadcast_to(
        np.sin(2 * np.pi * gf.axis_coordinate(0)), gf.shape
    ).copy()
    df = d_holo(ScalarField(gf, vals), 0).values
    dc = d_holo(ScalarField(gc, vals), 0).values
    assert np.max(np.abs(df - dc)) < 1e-4


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


def test_ddbar_requires_real(grid8):
    f = ScalarField(grid8, np.ones(grid8.shape, dtype=complex))
    with pytest.raises(GridMismatchError):
        ddbar(f)


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
    h = complex_hessian(f.values, grid16)
    for i in range(2):
        for j in range(2):
            comp = d_antiholo(d_holo(f, i), j).values
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
    for scheme in ("fourier_collocation", "central_difference_4"):
        grid = GridSpec(2, 8, scheme)
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        g = identity_metric(grid)
        for ax in range(4):
            assert abs(integrate(d_real(f, ax), g)) < 1e-13


def test_measure_weights_sum_to_one(grid8, rng):
    from matorus.problems import random_metric

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
        from matorus.problems import random_metric

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


def test_fields_are_immutable(grid8):
    f = constant_field(grid8, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0, 0] = 2.0
    g = identity_metric(grid8)
    with pytest.raises(ValueError):
        g.values[..., 0, 0] = 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["scalar", "hermitian", "metric"])
def test_non_finite_values_rejected(grid8, kind, bad):
    if kind == "scalar":
        vals = np.zeros(grid8.shape)
        vals[0, 1, 2, 3] = bad
        with pytest.raises(GridMismatchError):
            ScalarField(grid8, vals)
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
        # Halfway between the full-size temporaries (10.5 and 22.5 fields)
        # and the entry-by-entry check (6.5 and 11).
        (2, 16, 8.5),
        (3, 8, 16.75),
    ],
)
def test_metric_validation_memory_budget(n, N, budget):
    grid = GridSpec(n, N)
    vals = np.array(random_metric(grid, np.random.default_rng(5)).values)
    assert peak_field_units(lambda: HermitianField(grid, vals, metric=True), grid) <= budget
