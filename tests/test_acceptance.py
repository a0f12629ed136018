"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``).

Quantitative gates use manufactured analytic data on the 16^4 production
grid; statistical gates run seeded random suites at desk scale.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from matorus.chern import prescribe_ricci
from matorus.estimates import exp_moment_constant, levelset_measure, report, sweep
from matorus.geometry import (
    canonical_laplacian,
    gauduchon_metric,
    gauduchon_residual,
    gauduchon_weight,
    ricci_form,
    trace_pair,
)
from matorus.grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    ddbar,
    det,
    identity_metric,
    min_eigenvalue,
)
from matorus.jets import (
    check_cs_chain,
    gauge_errors,
    normal_coordinates,
    random_hpd,
    random_jet,
    trace_identity_gap_n2,
    trace_inequality_slack,
    transform_jet,
)
from matorus.solver import continuity_solve, ma_log_residual

from conftest import conformal_metric
from random_fields import random_metric, random_trig_field


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {label}")


def _conformal(grid, amplitude=0.2):
    c = grid.coordinates()
    h = ScalarField(
        grid,
        amplitude * np.cos(2 * np.pi * np.broadcast_to(c["x1"], grid.shape))
        + 0.15 * np.sin(2 * np.pi * np.broadcast_to(c["y2"], grid.shape)),
    )
    return conformal_metric(grid, h)


@pytest.fixture(scope="module")
def solve_suite():
    """Ten converged solves with random smooth data, amplitudes up to 1."""
    grid = GridSpec(2, 8)
    rng = np.random.default_rng(1234)
    suite = []
    amplitudes = np.linspace(0.1, 1.0, 10)
    for k, amp in enumerate(amplitudes):
        g = identity_metric(grid) if k % 2 == 0 else random_metric(
            grid, rng, amplitude=0.25
        )
        F = random_trig_field(grid, rng, amplitude=float(amp), bandwidth=1)
        res = continuity_solve(g, F)
        suite.append((g, F, res))
    return suite


def test_criterion_01_manufactured_solution():
    with criterion(1, "manufactured solution recovered on the 16^4 grid"):
        t0 = time.time()
        grid = GridSpec(2, 16)
        g = _conformal(grid)
        c = grid.coordinates()
        bx = lambda a: np.broadcast_to(a, grid.shape)
        phi_star = 0.012 * np.cos(2 * np.pi * bx(c["x1"])) * np.sin(
            2 * np.pi * bx(c["y1"])
        ) + 0.008 * np.cos(2 * np.pi * (bx(c["x2"]) + bx(c["y1"])))
        b_star = -0.2
        gp_star = (g + ddbar(ScalarField(grid, phi_star))).as_metric()
        assert min_eigenvalue(gp_star)[0] > 0.3
        F = ScalarField(grid, np.log(det(gp_star)) - np.log(det(g)) - b_star)
        res = continuity_solve(g, F)
        elapsed = time.time() - t0
        want = phi_star - phi_star.max()
        assert np.max(np.abs(res.phi.values - want)) <= 1e-6
        assert abs(res.b - b_star) <= 1e-8
        assert elapsed <= 300.0


def test_criterion_02_constant_bound(solve_suite):
    with criterion(2, "|b| <= sup|F| + 1e-8 over ten random smooth solves"):
        assert len(solve_suite) >= 10
        for _, F, res in solve_suite:
            assert abs(res.b) <= np.max(np.abs(F.values)) + 1e-8


def test_criterion_03_uniqueness():
    with criterion(3, "perturbed initializations agree to 1e-8"):
        grid = GridSpec(2, 8)
        rng = np.random.default_rng(77)
        g = _conformal(grid)
        F = random_trig_field(grid, rng, amplitude=0.6, bandwidth=1)
        r1 = continuity_solve(g, F)
        pert = random_trig_field(grid, rng, amplitude=0.004, bandwidth=1)
        r2 = continuity_solve(g, F, initial=(pert.values, 0.1))
        assert np.max(np.abs(r1.phi.values - r2.phi.values)) <= 1e-8
        assert abs(r1.b - r2.b) <= 1e-8


def test_criterion_04_pointwise_algebra(solve_suite):
    with criterion(4, "trace inequality and n=2 identity pointwise plus fuzz"):
        for g, F, res in solve_suite:
            grid = g.grid
            gp = (g + ddbar(res.phi)).as_metric()
            tr, tr_rev = trace_pair(g, gp)
            ef = np.exp(F.values + res.b)
            rhs = tr_rev.values * ef
            assert np.all(tr.values <= rhs + 1e-10 * (1.0 + np.abs(rhs)))
            assert np.max(np.abs(tr.values - rhs) / (1.0 + tr.values)) <= 1e-10
        rng = np.random.default_rng(4242)
        for k in range(1000):
            n = 2 + (k % 2)
            a, b = random_hpd(rng, n), random_hpd(rng, n)
            _, rhs_v, slack = trace_inequality_slack(a, b)
            assert slack >= -1e-12 * max(1.0, rhs_v)
            if n == 2:
                assert trace_identity_gap_n2(a, b) <= 1e-12 * max(1.0, rhs_v)
            lam = np.exp(rng.uniform(-1.5, 1.5, size=n))
            d = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            cs = check_cs_chain(lam, d)
            assert cs.slack >= -1e-12 * max(1.0, cs.rhs)


def test_criterion_05_normal_coordinates():
    with criterion(5, "200 random jets reach the distinguished gauge at 1e-12"):
        rng = np.random.default_rng(55)
        for k in range(200):
            jet = random_jet(rng, 2 + (k % 2))
            out = transform_jet(jet, normal_coordinates(jet))
            assert max(gauge_errors(out)) <= 1e-12


def test_criterion_06_gauduchon_solver():
    with criterion(6, "conformal-weight solve on flat, conformal, random 16^4 metrics"):
        grid = GridSpec(2, 16)
        rng = np.random.default_rng(66)
        flat = identity_metric(grid)
        u, v = gauduchon_weight(flat)
        assert gauduchon_residual(flat, v) <= 1e-8
        assert np.max(np.abs(u.values)) <= 1e-10

        c = grid.coordinates()
        h = ScalarField(
            grid, 0.3 * np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid.shape))
        )
        gc = conformal_metric(grid, h)
        uc, vc = gauduchon_weight(gc)
        assert gauduchon_residual(gc, vc) <= 1e-8
        assert vc.values.min() > 0
        diff = uc.values + h.values
        assert np.max(diff) - np.min(diff) <= 1e-6

        gr = random_metric(grid, rng, amplitude=0.35)
        ur, vr = gauduchon_weight(gr)
        assert gauduchon_residual(gr, vr) <= 1e-8
        assert vr.values.min() > 0


def test_criterion_07_levelset_bound(solve_suite):
    with criterion(7, "level-set measure bound on solves and 100 random fields"):
        for g, F, res in solve_suite:
            rep = report(g, res)
            assert rep.levelset_measure >= np.exp(-rep.C1) / 4.0
        grid = GridSpec(2, 8)
        rng = np.random.default_rng(707)
        w = np.full(grid.shape, 1.0 / grid.npoints)
        for _ in range(100):
            phi = random_trig_field(grid, rng, amplitude=rng.uniform(0.2, 3.0)).values
            phi = phi - phi.max()
            c1 = exp_moment_constant(phi, w, 1.0)
            assert levelset_measure(phi, w, c1) >= np.exp(-c1) / 4.0


def test_criterion_08_trace_bound_sweep():
    with criterion(8, "fitted C(A=4) bounded across the scale sweep; trace identity"):
        grid = GridSpec(2, 8)
        rng = np.random.default_rng(88)
        g = _conformal(grid, amplitude=0.15)
        F = random_trig_field(grid, rng, amplitude=1.0, bandwidth=1)
        entries = sweep(g, F, [0.25, 0.5, 1.0, 1.5, 2.0])
        assert all(e.error is None for e in entries)
        c4 = [dict(e.report.fitted_A_C)[4.0] for e in entries]
        assert max(c4) / min(c4) < 4.0
        for e in entries:
            gp = (g + ddbar(e.result.phi)).as_metric()
            tr, _ = trace_pair(g, gp)
            lap = canonical_laplacian(g, e.result.phi)
            assert np.max(np.abs(tr.values - 2.0 - lap.values)) <= 1e-8


def test_criterion_09_parts_identity():
    with criterion(9, "conformal-weight integration-by-parts identity at 1e-6"):
        from matorus.grid import d_holo, integrate, inverse

        grid = GridSpec(2, 16)
        rng = np.random.default_rng(99)
        c = grid.coordinates()
        h = ScalarField(
            grid, 0.25 * np.cos(2 * np.pi * np.broadcast_to(c["x2"], grid.shape))
        )
        g = conformal_metric(grid, h)
        g_g, _, _ = gauduchon_metric(g)
        ginv = inverse(g_g)
        for p in (1, 2, 3):
            for _ in range(5):
                psi = random_trig_field(grid, rng, amplitude=0.45, bandwidth=1)
                psi = ScalarField(grid, psi.values + 1.0)
                assert psi.values.min() >= 0
                chi = ScalarField(grid, psi.values ** ((p + 1) / 2))
                dchi = [d_holo(chi, j).values for j in range(2)]
                grad_sq = sum(
                    ginv[..., i, j] * dchi[i] * np.conj(dchi[j])
                    for i in range(2)
                    for j in range(2)
                ).real
                lhs = integrate(ScalarField(grid, grad_sq), g_g)
                lap = canonical_laplacian(g_g, psi)
                rhs = (p + 1) ** 2 / (4.0 * p) * integrate(
                    ScalarField(grid, psi.values**p * (-lap.values)), g_g
                )
                assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_criterion_10_chern_prescription():
    with criterion(10, "Ricci prescription end-to-end with manufactured target"):
        grid = GridSpec(2, 16)
        rng = np.random.default_rng(1010)
        g = _conformal(grid, amplitude=0.18)
        c = grid.coordinates()
        bx = lambda a: np.broadcast_to(a, grid.shape)
        h_vals = 0.15 * np.cos(2 * np.pi * bx(c["x1"])) + 0.1 * np.sin(
            2 * np.pi * bx(c["y2"])
        )
        ric = ricci_form(g)
        psi = HermitianField(
            grid, ric.values - ddbar(ScalarField(grid, h_vals)).values / (2 * np.pi)
        )
        res = prescribe_ricci(g, psi)
        assert abs(res.constraint_value) <= 1e-10
        assert res.final_ricci_error <= 1e-6
        assert res.asd_residual <= 1e-8

        # curvature transgression identity on random data
        gr = random_metric(grid, rng, amplitude=0.25)
        phi = random_trig_field(grid, rng, amplitude=0.015, bandwidth=1)
        gp = (gr + ddbar(phi)).as_metric()
        lhs = ricci_form(gp).values - ricci_form(gr).values
        logratio = np.log(det(gp)) - np.log(det(gr))
        rhs = -ddbar(ScalarField(grid, logratio)).values / (2.0 * np.pi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_criterion_11_linearization_gradient():
    with criterion(11, "finite-difference gradient check at 1e-5"):
        grid = GridSpec(2, 8)
        rng = np.random.default_rng(111)
        g = _conformal(grid, amplitude=0.15)
        phi = random_trig_field(grid, rng, amplitude=0.01, bandwidth=1)
        gp = (g + ddbar(phi)).as_metric()
        F = ScalarField(grid, np.log(det(gp)) - np.log(det(g)))
        base = ma_log_residual(g, phi, F, 0.0)
        eps = 1e-5
        for _ in range(10):
            eta = random_trig_field(grid, rng, amplitude=0.03, bandwidth=1)
            pert = ma_log_residual(
                g, ScalarField(grid, phi.values + eps * eta.values), F, 0.0
            )
            fd = (pert.values - base.values) / eps
            lin = canonical_laplacian(gp, eta).values
            assert np.max(np.abs(fd - lin)) / np.max(np.abs(lin)) <= 1e-5
