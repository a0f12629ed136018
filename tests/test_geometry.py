import numpy as np
import pytest

from matorus.errors import GridMismatchError
from matorus.geometry import (
    canonical_laplacian,
    defects,
    form_norm_sq,
    gauduchon_metric,
    gauduchon_residual,
    gauduchon_weight,
    pair_density,
    ricci_form,
    torsion,
    trace_pair,
    wedge_integral,
)
from matorus.grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    complex_hessian,
    constant_field,
    ddbar,
    det,
    identity_metric,
    integrate,
    inverse,
)
from matorus.problems import random_metric, random_trig_field

from conftest import conformal_metric, peak_field_units, sample


def diag_metric_x2(grid, eps=0.3):
    """diag(e^h, 1) with h = eps cos(2 pi x2): genuinely non-Kahler."""
    c = grid.coordinates()
    h = eps * np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid.shape))
    vals = np.zeros(grid.shape + (2, 2), dtype=complex)
    vals[..., 0, 0] = np.exp(h)
    vals[..., 1, 1] = 1.0
    return HermitianField(grid, vals, metric=True), h


class TestTorsion:
    def test_flat_metric_zero(self, grid8):
        t = torsion(identity_metric(grid8))
        assert np.max(np.abs(t.values)) == 0.0

    def test_kaehler_metric_torsion_free(self, grid16, rng):
        f = random_trig_field(grid16, rng, amplitude=0.02, bandwidth=1)
        g = (identity_metric(grid16) + ddbar(f)).as_metric()
        t = torsion(g)
        assert np.max(np.abs(t.values)) < 1e-10

    def test_diagonal_conformal_slot_oracle(self, grid16):
        # nonzero torsion needs the conformal factor to vary in the other
        # complex direction; h(x1) in the (1,1)-slot gives d omega = 0
        g, h = diag_metric_x2(grid16, eps=0.3)
        t = torsion(g)
        c = grid16.coordinates()
        # T^1_{12} = g^{11}(d_1 g_{21} - d_2 g_{11}) = -d_{x2}(h)/2
        want = 0.3 * np.pi * np.sin(2 * np.pi * np.broadcast_to(c["x2"], grid16.shape))
        assert np.max(np.abs(t.values[..., 0, 0, 1] - want)) < 1e-10
        assert np.max(np.abs(t.values[..., 0, 1, 0] + want)) < 1e-10
        # the same profile in x1 is d-omega-flat and torsion-free
        cvals = np.zeros(grid16.shape + (2, 2), dtype=complex)
        h1 = 0.3 * np.cos(2 * np.pi * np.broadcast_to(c["x1"], grid16.shape))
        cvals[..., 0, 0] = np.exp(h1)
        cvals[..., 1, 1] = 1.0
        gk = HermitianField(grid16, cvals, metric=True)
        assert np.max(np.abs(torsion(gk).values)) < 1e-11

    def test_antisymmetry_exact(self, grid8, rng):
        g = random_metric(grid8, rng)
        t = torsion(g).values
        assert np.array_equal(t, -np.swapaxes(t, -1, -2))


class TestDefects:
    def test_flat_all_zero(self, grid8):
        d = defects(identity_metric(grid8))
        assert d.kaehler_defect == 0.0
        assert d.balanced_defect == 0.0
        assert d.gauduchon_defect == 0.0

    def test_kaehler_perturbation_chain(self, grid16, rng):
        f = random_trig_field(grid16, rng, amplitude=0.02, bandwidth=1)
        g = (identity_metric(grid16) + ddbar(f)).as_metric()
        d = defects(g)
        assert d.kaehler_defect < 1e-10
        assert d.balanced_defect < 1e-10
        assert d.gauduchon_defect < 1e-8

    def test_diagonal_conformal_kaehler_defect_oracle(self, grid16):
        g, h = diag_metric_x2(grid16, eps=0.3)
        d = defects(g)
        # d omega coefficient: d_2 g_{11} = e^h * (dh/dx2)/2
        c = grid16.coordinates()
        x2 = np.broadcast_to(c["x2"], grid16.shape)
        oracle = np.max(np.abs(np.exp(0.3 * np.cos(2 * np.pi * x2))
                               * 0.3 * np.pi * np.sin(2 * np.pi * x2)))
        assert d.kaehler_defect == pytest.approx(oracle, rel=1e-10)
        assert d.kaehler_defect > 0.1

    @pytest.mark.parametrize(
        "n, N, budget",
        [
            # Halfway between the n^3 derivative tensor (22 and 66 fields)
            # and the pair kernel (12 and 19).
            (2, 16, 17.0),
            (3, 8, 42.5),
        ],
    )
    def test_memory_budget(self, n, N, budget):
        grid = GridSpec(n, N)
        g = random_metric(grid, np.random.default_rng(5))
        assert peak_field_units(lambda: defects(g), grid) <= budget


class TestLaplacian:
    def test_constant(self, grid8):
        g = identity_metric(grid8)
        lap = canonical_laplacian(g, constant_field(grid8, 2.0))
        assert np.max(np.abs(lap.values)) == 0.0

    def test_flat_cosine(self, grid16):
        g = identity_metric(grid16)
        f = sample(grid16, lambda c: np.cos(2 * np.pi * c["x1"]))
        lap = canonical_laplacian(g, f)
        assert np.max(np.abs(lap.values + np.pi**2 * f.values)) < 1e-11

    def test_balanced_mean_zero(self, grid16, rng):
        # Kahler metrics are balanced; the canonical Laplacian is then a
        # divergence and integrates to zero
        rho = random_trig_field(grid16, rng, amplitude=0.02, bandwidth=1)
        g = (identity_metric(grid16) + ddbar(rho)).as_metric()
        for _ in range(3):
            f = random_trig_field(grid16, rng, amplitude=1.0, bandwidth=1)
            assert abs(integrate(canonical_laplacian(g, f), g)) < 1e-12


class TestTracePair:
    def test_equal_metrics(self, grid8, rng):
        g = random_metric(grid8, rng)
        a, b = trace_pair(g, g)
        assert np.max(np.abs(a.values - 2.0)) < 1e-12
        assert np.max(np.abs(b.values - 2.0)) < 1e-12

    def test_diagonal_arithmetic(self, grid8):
        g = identity_metric(grid8)
        vals = np.broadcast_to(np.diag([2.0, 0.5]).astype(complex), grid8.shape + (2, 2)).copy()
        gp = HermitianField(grid8, vals, metric=True)
        a, b = trace_pair(g, gp)
        assert a.values.flat[0] == pytest.approx(2.5, abs=1e-14)
        assert b.values.flat[0] == pytest.approx(2.5, abs=1e-14)

    def test_trace_inequality_pointwise(self, grid8, rng):
        for n in (2, 3):
            grid = GridSpec(n, 8)
            g = random_metric(grid, rng, amplitude=0.3)
            gp = random_metric(grid, rng, amplitude=0.3)
            tr, tr_rev = trace_pair(g, gp)
            ratio = det(gp) / det(g)
            fact = 1.0 if n == 2 else 2.0
            rhs = tr_rev.values ** (n - 1) * ratio / fact
            assert np.all(tr.values <= rhs * (1 + 1e-10))

    def test_trace_identity_n2_pointwise(self, grid8, rng):
        g = random_metric(grid8, rng, amplitude=0.35)
        gp = random_metric(grid8, rng, amplitude=0.35)
        tr, tr_rev = trace_pair(g, gp)
        gap = np.abs(tr.values - tr_rev.values * det(gp) / det(g))
        assert np.max(gap / (1.0 + tr.values)) < 1e-12


class TestGauduchon:
    def test_flat_is_fixed_point(self, grid8):
        u, v = gauduchon_weight(identity_metric(grid8))
        assert np.max(np.abs(u.values)) == 0.0
        assert np.max(np.abs(v.values - 1.0)) == 0.0

    def test_conformal_closed_form(self, grid16):
        c = grid16.coordinates()
        h = ScalarField(
            grid16,
            0.3 * np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid16.shape)),
        )
        g = conformal_metric(grid16, h)
        u, v = gauduchon_weight(g)
        diff = u.values + h.values
        assert np.max(diff) - np.min(diff) < 1e-7
        assert gauduchon_residual(g, v) < 1e-9
        assert v.values.min() > 0
        assert integrate(v, g) == pytest.approx(1.0, abs=1e-12)

    def test_random_metric(self, grid16, rng):
        g = random_metric(grid16, rng, amplitude=0.35)
        u, v = gauduchon_weight(g)
        assert gauduchon_residual(g, v) < 1e-9
        assert v.values.min() > 0

    def test_already_gauduchon_gives_constant(self, grid16):
        c = grid16.coordinates()
        h = ScalarField(
            grid16, 0.25 * np.sin(2 * np.pi * np.broadcast_to(c["y1"], grid16.shape))
        )
        g = conformal_metric(grid16, h)
        g_g, _, _ = gauduchon_metric(g)
        assert defects(g_g).gauduchon_defect < 1e-9
        u2, _ = gauduchon_weight(g_g)
        assert np.max(u2.values) - np.min(u2.values) < 1e-6

    def test_weight_normalization_unit_volume(self, grid8, rng):
        g = random_metric(grid8, rng, amplitude=0.3)
        g_g, u, v = gauduchon_metric(g)
        # e^{(n-1)u} omega^n integrates to 1
        assert integrate(v, g) == pytest.approx(1.0, abs=1e-12)

    def test_n3_conformal_closed_form_kernel(self, rng):
        grid = GridSpec(3, 8)
        c = grid.coordinates()
        h = ScalarField(
            grid, 0.2 * np.cos(2 * np.pi * np.broadcast_to(c["x3"], grid.shape))
        )
        g = conformal_metric(grid, h)
        # the closed-form kernel v ~ e^{-2h} annihilates the weight operator
        v_known = ScalarField(grid, np.exp(-2.0 * h.values))
        assert gauduchon_residual(g, v_known) < 1e-9
        u, v = gauduchon_weight(g)
        diff = u.values + h.values
        assert np.max(diff) - np.min(diff) < 1e-7

    def test_requires_spectral_scheme(self, rng):
        grid = GridSpec(2, 8, "central_difference_4")
        g = identity_metric(grid).scaled(2.0).as_metric()
        vals = g.values.copy()
        vals[..., 0, 0] *= np.exp(
            0.1 * np.cos(2 * np.pi * np.broadcast_to(grid.axis_coordinate(2), grid.shape))
        )
        with pytest.raises(GridMismatchError):
            gauduchon_weight(HermitianField(grid, vals))


class TestRicci:
    def test_flat_zero(self, grid8):
        r = ricci_form(identity_metric(grid8))
        assert np.max(np.abs(r.values)) == 0.0

    def test_conformal_closed_form(self, grid16):
        c = grid16.coordinates()
        h = ScalarField(
            grid16, 0.2 * np.cos(2 * np.pi * np.broadcast_to(c["x1"], grid16.shape))
        )
        g = conformal_metric(grid16, h)
        r = ricci_form(g)
        want = -2.0 / (2.0 * np.pi) * complex_hessian(h.values, grid16)
        assert np.max(np.abs(r.values - want)) < 1e-10

    def test_transgression_identity(self, grid16, rng):
        g = random_metric(grid16, rng, amplitude=0.25)
        phi = random_trig_field(grid16, rng, amplitude=0.015, bandwidth=1)
        gp = HermitianField(
            grid16, g.values + complex_hessian(phi.values, grid16), metric=True
        )
        lhs = ricci_form(gp).values - ricci_form(g).values
        logratio = np.log(det(gp)) - np.log(det(g))
        rhs = -complex_hessian(logratio, grid16) / (2.0 * np.pi)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestWedge:
    def test_pair_density_vs_det(self, grid8, rng):
        g = random_metric(grid8, rng)
        assert np.max(np.abs(pair_density(g, g) - 2.0 * det(g))) < 1e-12

    def test_pair_density_of_distinct_forms(self, grid8, rng):
        # two indefinite Hermitian fields, neither a metric
        def form():
            m = rng.standard_normal(grid8.shape + (2, 2)) + 1j * rng.standard_normal(
                grid8.shape + (2, 2)
            )
            return HermitianField(grid8, m + np.conj(np.swapaxes(m, -1, -2)))

        a, b = form(), form()
        av, bv = a.values, b.values
        want = (
            av[..., 0, 0] * bv[..., 1, 1]
            + av[..., 1, 1] * bv[..., 0, 0]
            - av[..., 0, 1] * bv[..., 1, 0]
            - av[..., 1, 0] * bv[..., 0, 1]
        ).real
        assert np.min(det(a)) < 0 and np.min(det(b)) < 0
        assert np.max(np.abs(pair_density(a, b) - want)) < 1e-12

    def test_wedge_integral_matches_volume(self, grid8, rng):
        g = random_metric(grid8, rng)
        assert wedge_integral(g, g) == pytest.approx(
            integrate(constant_field(grid8, 1.0), g), abs=1e-12
        )

    def test_n3_rejected(self, rng):
        grid = GridSpec(3, 8)
        g = identity_metric(grid)
        with pytest.raises(GridMismatchError):
            pair_density(g, g)

    def test_form_norm_positive(self, grid8, rng):
        g = random_metric(grid8, rng)
        a = HermitianField(grid8, complex_hessian(
            random_trig_field(grid8, rng, amplitude=0.1).values, grid8))
        assert np.min(form_norm_sq(a, g).values) > -1e-14


class TestPartsIdentity:
    def test_dirichlet_energy_identity(self, grid16, rng):
        # integration-by-parts identity in the distinguished conformal
        # metric, for powers of a positive function
        from matorus.grid import d_holo

        c = grid16.coordinates()
        h = ScalarField(
            grid16,
            0.25 * np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid16.shape)),
        )
        g = conformal_metric(grid16, h)
        g_g, _, _ = gauduchon_metric(g)
        ginv = inverse(g_g)
        for p in (1, 2, 3):
            psi = random_trig_field(grid16, rng, amplitude=0.45, bandwidth=1)
            psi = ScalarField(grid16, psi.values + 1.0)
            chi = ScalarField(grid16, psi.values ** ((p + 1) / 2))
            dchi = [d_holo(chi, j).values for j in range(2)]
            grad_sq = sum(
                ginv[..., i, j] * dchi[i] * np.conj(dchi[j])
                for i in range(2)
                for j in range(2)
            ).real
            lhs = integrate(ScalarField(grid16, grad_sq), g_g)
            lap = canonical_laplacian(g_g, psi)
            rhs = (p + 1) ** 2 / (4.0 * p) * integrate(
                ScalarField(grid16, psi.values**p * (-lap.values)), g_g
            )
            assert lhs == pytest.approx(rhs, rel=1e-6)


@pytest.mark.parametrize(
    "op",
    [
        lambda g, f: ddbar(f),
        lambda g, f: canonical_laplacian(g, f),
        lambda g, f: ricci_form(g),
        lambda g, f: defects(g),
    ],
    ids=["ddbar", "canonical_laplacian", "ricci_form", "defects"],
)
def test_multi_derivative_operators_require_spectral_scheme(op):
    grid = GridSpec(2, 8, "central_difference_4")
    f = ScalarField(grid, np.cos(2 * np.pi * np.broadcast_to(grid.axis_coordinate(0), grid.shape)))
    with pytest.raises(GridMismatchError):
        op(identity_metric(grid), f)
