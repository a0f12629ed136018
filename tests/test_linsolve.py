"""The operator layer on its own: the Laplacian kernel and its adjoint
with the same coefficient planes, the bordered solve with either kernel
on manufactured solutions, the scaled preconditioner, which inverts
both kernels exactly for a conformal metric, the one spectral pass of
the right-preconditioned Laplacian operator, and the restarted GMRES
that inverts it."""

from collections import Counter

import numpy as np
import pytest

from matorus import linsolve
from matorus.errors import LinearSolverStalled
from matorus.expressions import sample_expression
from matorus.geometry import gauduchon_weight, weight_planes
from matorus.grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    _adjugate,
    _hessian_matrix,
    _hessian_planes,
    _rfftn,
    ddbar,
    det,
)
from matorus.linsolve import laplacian, laplacian_adjoint, laplacian_planes, solve_constrained
from matorus.problems import metric_from_spec

from conftest import (
    CONF3D_H,
    CONF3D_RHS,
    conformal_metric,
    peak_field_units,
    sample,
    wrap_gmres_operator,
)
from random_fields import random_metric, random_trig_field

# Each kernel with the planes its callers give it: adj(g) / det(g) for
# the Laplacian, (n-1)! adj(g) for its adjoint, the weight operator.
KERNELS = {
    "laplacian": (
        laplacian, lambda g: laplacian_planes(_adjugate(g.planes), 1.0 / det(g))
    ),
    "laplacian_adjoint": (laplacian_adjoint, weight_planes),
}


@pytest.mark.parametrize("planes_of", sorted(KERNELS))
@pytest.mark.parametrize("n", [2, 3])
def test_adjoint_is_the_l2_adjoint_of_the_laplacian(n, planes_of):
    grid = GridSpec(n, 8)
    rng = np.random.default_rng(909 + n)
    planes = KERNELS[planes_of][1](random_metric(grid, rng))
    # Grid noise, not trigonometric polynomials: a few low modes are
    # orthogonal to each other and make both pairings vanish.
    f = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    lhs = float(np.sum(laplacian_adjoint(planes, v, grid) * f))
    rhs = float(np.sum(v * laplacian(planes, f, grid)))
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@pytest.mark.parametrize("N", [8, 12])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_bordered_solve_recovers_manufactured_solution(kernel, N):
    grid = GridSpec(2, N)
    rng = np.random.default_rng(4496 + N)
    g = random_metric(grid, rng)
    apply, planes_of = KERNELS[kernel]
    planes = planes_of(g)
    eta = random_trig_field(grid, rng).values
    eta = eta - eta.mean()
    beta = 0.37
    rhs = apply(planes, eta, grid) - beta
    got_eta, got_beta, _ = solve_constrained(apply, planes, rhs, grid)
    assert float(np.max(np.abs(got_eta - eta))) <= 1e-9
    assert abs(got_beta - beta) <= 1e-9


def _conformal(n):
    grid = GridSpec(n, 8)
    h = sample(
        grid, lambda c: 0.2 * np.cos(2 * np.pi * c["x2"]) + 0.1 * np.sin(2 * np.pi * c["y1"])
    )
    return grid, conformal_metric(grid, h)


@pytest.mark.parametrize("n", [2, 3])
def test_conformal_weight_solve_is_one_krylov_step(n, count_matvecs):
    # C = (n-1)! e^((n-1)h) I: the scaled frozen operator is exact
    _, g = _conformal(n)
    gauduchon_weight(g)
    assert 0 < len(count_matvecs) <= 4


@pytest.mark.parametrize("n", [2, 3])
def test_conformal_weight_solve_takes_one_operator_application(n, count_matvecs):
    # The start M^-1 b is already the solution; one application confirms it
    _, g = _conformal(n)
    gauduchon_weight(g)
    assert len(count_matvecs) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_conformal_laplacian_solve_is_one_krylov_step(n, count_matvecs):
    # G^-1 = e^-h I: the Laplacian is e^-h times the flat one
    grid, g = _conformal(n)
    rhs = np.random.default_rng(77 + n).standard_normal(grid.shape)
    rhs -= rhs.mean()
    planes = laplacian_planes(_adjugate(g.planes), 1.0 / det(g))
    eta, beta, _ = solve_constrained(laplacian, planes, rhs, grid)
    assert 0 < len(count_matvecs) <= 4
    assert float(np.max(np.abs(laplacian(planes, eta, grid) - beta - rhs))) <= 1e-9
    assert abs(float(eta.mean())) <= 1e-12


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_solution_is_mean_free_to_rounding(kernel):
    grid = GridSpec(2, 8)
    rng = np.random.default_rng(15)
    apply, planes_of = KERNELS[kernel]
    rhs = rng.standard_normal(grid.shape)
    rhs -= rhs.mean()
    eta, _, _ = solve_constrained(apply, planes_of(random_metric(grid, rng)), rhs, grid)
    assert abs(float(eta.mean())) <= 1e-14 * float(np.max(np.abs(eta)))


@pytest.mark.parametrize("n", [2, 3])
def test_laplacian_operator_is_one_spectral_pass(n, monkeypatch, count_transforms):
    # The preconditioner hands eta's half spectrum to the Laplacian: one
    # application is one forward transform and the n^2 inverse transforms
    # of the Hessian planes.
    grid = GridSpec(n, 8)
    rng = np.random.default_rng(150 + n)
    g = random_metric(grid, rng)
    planes = laplacian_planes(_adjugate(g.planes), 1.0 / det(g))
    rhs = rng.standard_normal(grid.shape)
    rhs -= rhs.mean()
    per_application = []

    def wrap(matvec):
        def counted(x):
            before = Counter(count_transforms)
            out = matvec(x)
            per_application.append(count_transforms - before)
            return out

        return counted

    wrap_gmres_operator(monkeypatch, wrap)
    solve_constrained(laplacian, planes, rhs, grid, rtol=1e-6)
    assert len(per_application) > 1
    assert all(c == {"rfftn": 1, "irfftn": n * n} for c in per_application)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_hessian_planes_are_those_of_the_returned_solution(kernel, count_matvecs):
    # On the conformal metric the start meets the tolerance: the planes
    # come from the start's spectrum, after its one application.
    grid = GridSpec(2, 8)
    rng = np.random.default_rng(1515)
    apply, planes_of = KERNELS[kernel]
    rhs = rng.standard_normal(grid.shape)
    rhs -= rhs.mean()
    for g, ends_at_start in ((random_metric(grid, rng), False), (_conformal(2)[1], True)):
        count_matvecs.clear()
        eta, _, hessian = solve_constrained(apply, planes_of(g), rhs, grid)
        assert (len(count_matvecs) == 1) == ends_at_start
        if apply is laplacian_adjoint:
            assert hessian is None
            continue
        want = ddbar(ScalarField(grid, eta)).values
        assert float(np.max(np.abs(_hessian_matrix(hessian) - want))) <= 1e-12 * float(
            np.max(np.abs(want))
        )


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_zero_right_hand_side_gives_zero(kernel):
    # The start eta0 = M^-1 0 = 0 meets the tolerance at the first
    # application, whose solution the solve returns with its planes.
    grid = GridSpec(2, 8)
    apply, planes_of = KERNELS[kernel]
    planes = planes_of(random_metric(grid, np.random.default_rng(0)))
    eta, beta, hessian = solve_constrained(apply, planes, np.zeros(grid.shape), grid)
    assert not np.any(eta) and beta == 0.0
    assert hessian is None or not any(np.any(h) for h in hessian)


def test_laplacian_solve_memory_budget(count_matvecs):
    # One application holds the half spectrum of eta and one Hessian plane
    # at a time, and the start keeps only its (eta, beta): 7.56 complex
    # fields here, where GMRES takes 8 applications. Holding the n^2 = 9
    # planes of each application read 10.94.
    grid = GridSpec(3, 8)
    g = metric_from_spec(grid, {"kind": "conformal", "h": CONF3D_H})
    F = sample_expression(CONF3D_RHS, grid).values
    hessian = _hessian_planes(_rfftn(0.02 * F), grid)
    gp = HermitianField(grid, tuple(a + h for a, h in zip(g.planes, hessian)), metric=True)
    planes = laplacian_planes(_adjugate(gp.planes), 1.0 / det(gp))
    peak = peak_field_units(
        lambda: solve_constrained(laplacian, planes, F, grid, rtol=1e-10), grid
    )
    assert len(count_matvecs) > 2  # GMRES iterates past its start in each of the two runs
    assert peak <= 8.0


def _anisotropic(grid, amplitude):
    """diag(e^a, e^-a) turned by the angle 2 pi y2, a = amplitude * cos(2 pi
    x1): the frozen symbol of the preconditioner misses both the stretch and
    the turn, so the solve takes more than one GMRES cycle."""
    c = grid.coordinates()
    a = np.broadcast_to(amplitude * np.cos(2 * np.pi * c["x1"]), grid.shape)
    t = np.broadcast_to(2 * np.pi * c["y2"], grid.shape)
    cos, sin, up, down = np.cos(t), np.sin(t), np.exp(a), np.exp(-a)
    values = np.zeros(grid.shape + (2, 2), dtype=np.complex128)
    values[..., 0, 0] = cos * cos * up + sin * sin * down
    values[..., 1, 1] = sin * sin * up + cos * cos * down
    values[..., 0, 1] = values[..., 1, 0] = cos * sin * (up - down)
    return HermitianField(grid, values, metric=True)


def _manufactured_anisotropic(kernel):
    grid = GridSpec(2, 8)
    apply, planes_of = KERNELS[kernel]
    planes = planes_of(_anisotropic(grid, 2.0))
    eta = random_trig_field(grid, np.random.default_rng(38)).values
    eta = eta - eta.mean()
    return grid, apply, planes, eta, apply(planes, eta, grid) - 0.37


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_solve_over_several_gmres_cycles_recovers_manufactured_solution(kernel, count_matvecs):
    grid, apply, planes, eta, rhs = _manufactured_anisotropic(kernel)
    got_eta, got_beta, _ = solve_constrained(apply, planes, rhs, grid)
    # The first cycle is the start and _RESTART Arnoldi steps.
    assert len(count_matvecs) > linsolve._RESTART + 1
    assert float(np.max(np.abs(got_eta - eta))) <= 1e-9
    assert abs(got_beta - 0.37) <= 1e-9


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_exhausted_gmres_cycles_raise_stalled(kernel, count_matvecs):
    grid, apply, planes, _, rhs = _manufactured_anisotropic(kernel)
    with pytest.raises(LinearSolverStalled):
        solve_constrained(apply, planes, rhs, grid, maxiter=1)
    assert len(count_matvecs) == linsolve._RESTART + 1


@pytest.mark.parametrize("k", [1, 3, 7])
def test_gmres_with_k_arnoldi_steps_applies_the_operator_k_plus_one_times(k):
    # A diagonal operator with k distinct eigenvalues: the Krylov space of
    # any b has dimension k, so GMRES ends at its k-th Arnoldi step.
    diag = np.repeat(np.arange(1.0, k + 1), 5)
    b = np.random.default_rng(k).standard_normal(diag.size)
    calls = []

    def matvec(x):
        calls.append(1)
        return diag * x

    x = linsolve._gmres(matvec, b, np.zeros_like(b), 1e-10, 1)
    assert len(calls) == k + 1
    assert float(np.max(np.abs(diag * x - b))) <= 1e-9 * float(np.max(np.abs(b)))
