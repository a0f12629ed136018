import numpy as np
import pytest

from matorus.chern import closedness_defect, constraint_integral, prescribe_ricci
from matorus.errors import ConstraintViolated, GridMismatchError, NotClosedError
from matorus.expressions import sample_expression
from matorus.geometry import gauduchon_metric, ricci_form
from matorus.grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    constant_field,
    ddbar,
    identity_metric,
    integrate,
    measure_weights,
)
from matorus.problems import metric_from_spec
from conftest import conformal_metric, count_weight_solves
from random_fields import random_trig_field


@pytest.fixture(scope="module")
def background():
    grid = GridSpec(2, 8)
    c = grid.coordinates()
    h = ScalarField(
        grid, 0.2 * np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid.shape))
    )
    g = conformal_metric(grid, h)
    g_g, u, v = gauduchon_metric(g)
    return grid, g, g_g


def manufactured_psi(grid, g, h_vals):
    ric = ricci_form(g)
    return HermitianField(grid, ric.values - ddbar(ScalarField(grid, h_vals)).values / (2 * np.pi))


class TestConstraint:
    def test_ricci_itself_gives_zero(self, background):
        grid, g, g_g = background
        assert constraint_integral(g, ricci_form(g), g_g) == pytest.approx(0.0, abs=1e-12)

    def test_ddbar_exact_perturbation_gives_zero(self, background, rng):
        grid, g, g_g = background
        h = random_trig_field(grid, rng, amplitude=0.4, bandwidth=1)
        psi = manufactured_psi(grid, g, h.values)
        assert abs(constraint_integral(g, psi, g_g)) < 1e-10

    def test_known_multiple_on_flat(self, grid8):
        # flat background: Ric = 0 and omega_G = omega; psi = -c * omega
        # makes the integrand c * omega^2, so the pairing is c * volume
        g = identity_metric(grid8)
        cval = 0.37
        psi = HermitianField(grid8, -cval * g.values)
        got = constraint_integral(g, psi, g)
        assert got == pytest.approx(cval * integrate(constant_field(grid8, 1.0), g), abs=1e-12)

    def test_not_closed_rejected(self, background, rng):
        grid, g, g_g = background
        vals = np.zeros(grid.shape + (2, 2), dtype=complex)
        c = grid.coordinates()
        vals[..., 0, 0] = np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid.shape))
        vals[..., 1, 1] = 1.0
        psi = HermitianField(grid, vals)
        assert closedness_defect(psi) > 0.1
        with pytest.raises(NotClosedError):
            constraint_integral(g, psi, g_g)

    def test_representative_rescaling_invariance(self, background, rng):
        # the one-parameter freedom in the distinguished conformal metric
        # does not affect the vanishing of the pairing
        grid, g, g_g = background
        h = random_trig_field(grid, rng, amplitude=0.3, bandwidth=1)
        psi = manufactured_psi(grid, g, h.values)
        for scale in (0.5, 3.7):
            scaled = g_g.scaled(scale).as_metric()
            assert abs(constraint_integral(g, psi, scaled)) < 1e-10

    def test_n3_rejected(self):
        grid = GridSpec(3, 8)
        g = identity_metric(grid)
        with pytest.raises(GridMismatchError):
            constraint_integral(g, g, g)


class TestPrescribe:
    def test_trivial_target(self, background):
        grid, g, g_g = background
        res = prescribe_ricci(g, ricci_form(g))
        assert np.max(np.abs(res.f.values)) < 1e-10
        assert np.max(np.abs(res.solve.phi.values)) < 1e-9
        assert res.asd_residual < 1e-10
        assert res.a_l2_norm < 1e-10
        assert res.final_ricci_error < 1e-8

    def test_manufactured_recovery(self, background, rng):
        grid, g, g_g = background
        c = grid.coordinates()
        h_vals = (
            0.15 * np.cos(2 * np.pi * np.broadcast_to(c["x1"], grid.shape))
            + 0.1 * np.sin(2 * np.pi * np.broadcast_to(c["y2"], grid.shape))
        )
        psi = manufactured_psi(grid, g, h_vals)
        res = prescribe_ricci(g, psi)
        w = measure_weights(g_g)
        h_ref = h_vals - (w * h_vals).sum()
        assert np.max(np.abs(res.f.values - h_ref)) < 1e-8
        assert res.asd_residual < 1e-10
        assert res.a_l2_norm < 1e-8
        assert res.final_ricci_error < 1e-6
        assert abs(res.constraint_value) < 1e-10

    def test_conformal_weight_solved_once(self, background, rng, monkeypatch):
        grid, g, _ = background
        h = random_trig_field(grid, rng, amplitude=0.1, bandwidth=1)
        calls = count_weight_solves(monkeypatch)
        prescribe_ricci(g, manufactured_psi(grid, g, h.values))
        assert len(calls) == 1

    def test_ricci_form_of_g_computed_once(self, background, rng, monkeypatch):
        # Once for Ric(omega) - psi, shared by the pairing obstruction and
        # the Poisson right-hand side, and once for the solution metric.
        from matorus import chern

        grid, g, _ = background
        h = random_trig_field(grid, rng, amplitude=0.1, bandwidth=1)
        psi = manufactured_psi(grid, g, h.values)
        calls = []
        monkeypatch.setattr(
            chern, "ricci_form", lambda metric: calls.append(metric) or ricci_form(metric)
        )
        prescribe_ricci(g, psi)
        assert len(calls) == 2
        assert calls[0] is g

    def test_one_adjugate_pass_of_the_distinguished_metric(self, background, monkeypatch):
        # One pass of g_G's adjugate gives the pairing, whose mean is
        # constraint_integral's value bit for bit, the Poisson operator and
        # the gauge. A constant 2e-9 I in psi keeps the pairing away from
        # zero and under the tolerance.
        from matorus import chern

        grid, g, g_g = background
        eye = np.broadcast_to(np.eye(2, dtype=complex), grid.shape + (2, 2))
        psi = HermitianField(grid, ricci_form(g).values + 2e-9 * eye)
        calls = []
        original = chern._adjugate

        def counted(p):
            calls.append(1)
            return original(p)

        monkeypatch.setattr(chern, "_adjugate", counted)
        res = prescribe_ricci(g, psi)
        assert len(calls) == 1
        assert res.constraint_value == constraint_integral(g, psi, g_g)
        assert 1e-9 < abs(res.constraint_value) < 1e-8

    def test_flat_background_small_target(self, grid8, rng):
        g = identity_metric(grid8)
        h = random_trig_field(grid8, rng, amplitude=0.1, bandwidth=1)
        psi = manufactured_psi(grid8, g, h.values)
        res = prescribe_ricci(g, psi)
        assert res.final_ricci_error < 1e-6
        assert res.a_l2_norm < 1e-8

    def test_a_l2_norm_of_a_constant_anti_self_dual_form(self):
        # On a conformal background g_G is a constant multiple of the flat
        # metric, so the constant eps*diag(1, -1) pairs to zero with it:
        # shifting psi by it leaves the constraint and f, and a becomes
        # -eps*diag(1, -1), whose L2 norm in g_G is sqrt(2)*eps.
        grid = GridSpec(2, 12)
        g = metric_from_spec(
            grid, {"kind": "conformal", "h": "0.2*cos(2*pi*x2) + 0.1*sin(2*pi*y1)"}
        )
        h = sample_expression("0.1*cos(2*pi*x1) + 0.05*sin(2*pi*y2)", grid)
        eps = 1e-3
        asd = np.broadcast_to(np.diag([eps, -eps]).astype(complex), grid.shape + (2, 2))
        psi = HermitianField(grid, manufactured_psi(grid, g, h.values).values + asd)
        res = prescribe_ricci(g, psi)
        assert res.a_l2_norm == pytest.approx(np.sqrt(2.0) * eps, rel=1e-12)

    def test_constraint_violation_rejected(self, background):
        grid, g, g_g = background
        # adding a constant multiple of the flat form shifts the pairing
        # away from zero while staying closed
        psi = HermitianField(
            grid,
            ricci_form(g).values
            + 0.2 * np.broadcast_to(np.eye(2, dtype=complex), grid.shape + (2, 2)),
        )
        with pytest.raises(ConstraintViolated):
            prescribe_ricci(g, psi)

    def test_output_metric_constraint_closes(self, background, rng):
        # after a successful prescription the solved metric's data pairs
        # to zero as well
        grid, g, g_g = background
        h = random_trig_field(grid, rng, amplitude=0.12, bandwidth=1)
        psi = manufactured_psi(grid, g, h.values)
        res = prescribe_ricci(g, psi)
        gp = (g + ddbar(res.solve.phi)).as_metric()
        gp_g, _, _ = gauduchon_metric(gp)
        assert abs(constraint_integral(gp, psi, gp_g)) < 1e-9
