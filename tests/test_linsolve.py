"""The operator layer on its own: the Laplacian kernel and its adjoint
with the same coefficient planes, the bordered solve with either kernel
on manufactured solutions, and the scaled preconditioner, which inverts
both kernels exactly for a conformal metric."""

import numpy as np
import pytest

from matorus.geometry import _weight_coefficient_fields, gauduchon_weight
from matorus.grid import GridSpec, coefficient_planes, inverse, measure_weights
from matorus.linsolve import laplacian, laplacian_adjoint, laplacian_planes, solve_constrained
from matorus.problems import random_metric, random_trig_field

from conftest import conformal_metric, sample

# Each kernel with the planes its callers give it: the inverse metric for
# the Laplacian, the conformal-weight fields for its adjoint.
KERNELS = {
    "laplacian": (laplacian, lambda g: laplacian_planes(inverse(g))),
    "laplacian_adjoint": (
        laplacian_adjoint,
        lambda g: coefficient_planes(_weight_coefficient_fields(g)),
    ),
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
    w = measure_weights(g)
    eta = random_trig_field(grid, rng).values
    beta = 0.37
    rhs = apply(planes, eta, grid) - beta
    got_eta, got_beta = solve_constrained(
        apply, planes, rhs, w, float((w * eta).sum()), grid
    )
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
    w = measure_weights(g)
    planes = laplacian_planes(inverse(g))
    eta, beta = solve_constrained(laplacian, planes, rhs, w, 0.0, grid)
    assert 0 < len(count_matvecs) <= 4
    assert float(np.max(np.abs(laplacian(planes, eta, grid) - beta - rhs))) <= 1e-9
    assert abs(float((w * eta).sum())) <= 1e-12
