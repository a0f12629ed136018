"""Real-input spectral kernels against the complex-transform formulations
they replaced, and the transform counts of one apply.

The references below are the c2c formulations: every transform is a
complex ``fftn``/``ifftn`` of the full spectrum with the symbols of
``grid.hessian_symbol``, and the real part is taken at the end; the
first derivatives of the metric take the symbols of ``grid._holo_symbols``.
The real-input kernels sum in another order, so they agree to rounding
only; the tolerance is fixed at 1e-12 of the reference's sup-norm.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.fft as sfft

from matorus.geometry import defects, weight_planes
from matorus.grid import (
    GridSpec,
    _adjugate,
    _hessian_matrix,
    _holo_symbols,
    complex_hessian,
    det,
    hessian_symbol,
    inverse,
)
from matorus.linsolve import frozen_symbol, laplacian, laplacian_adjoint, laplacian_planes

from conftest import torsion
from random_fields import random_metric, random_trig_field

RTOL = 1e-12

CASES = [(2, 8), (2, 12), (3, 8)]


def _levi_civita(n):
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = round(np.linalg.det(np.eye(n)[list(perm)]))
    return eps


def ref_weight_fields(gvals, n):
    eps = _levi_civita(n)
    if n == 2:
        return np.einsum("pk,ml,...kl->...pm", eps, eps, gvals)
    return np.einsum("pac,mbd,...ab,...cd->...pm", eps, eps, gvals, gvals)


def ref_hessian(values, grid):
    n = grid.complex_dim
    spec = sfft.fftn(values)
    out = np.empty(grid.shape + (n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[..., i, j] = sfft.ifftn(spec * hessian_symbol(grid, i, j))
    return out


def ref_planes(coeff):
    """Planes of sum_ij coeff[..., i, j] d_i d_jbar for Hermitian
    coefficients, by the rule of the symbols S_ij = Re S_ij + i Im S_ij:
    Re coeff_ii, then 2 Re coeff_ij and -2 Im coeff_ij for each i < j."""
    n = coeff.shape[-1]
    planes = [coeff[..., i, i].real for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            planes += [2.0 * coeff[..., i, j].real, -2.0 * coeff[..., i, j].imag]
    return planes


def ref_laplacian(ginv, values, grid):
    return np.einsum("...ij,...ji->...", ginv, ref_hessian(values, grid)).real


def ref_metric_derivatives(gvals, grid):
    """d_k g_{ij-bar}, shape grid + (k, i, j): the full n^3 tensor."""
    n = grid.complex_dim
    sig = _holo_symbols(grid)
    out = np.empty(grid.shape + (n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            spec = sfft.fftn(gvals[..., i, j])
            for k in range(n):
                out[..., k, i, j] = sfft.ifftn(sig[k] * spec)
    return out


def ref_weight_operator(vvals, cfields, grid):
    n = grid.complex_dim
    acc = 0
    for p in range(n):
        for m in range(n):
            acc = acc + hessian_symbol(grid, p, m) * sfft.fftn(vvals * cfields[..., p, m])
    return sfft.ifftn(acc).real


def assert_close(got, want):
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= RTOL * scale


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"n{c[0]}-N{c[1]}")
def data(request):
    n, N = request.param
    grid = GridSpec(n, N)
    rng = np.random.default_rng(4496 + 10 * n + N)
    g = random_metric(grid, rng)
    f = random_trig_field(grid, rng)
    v = 1.0 + 0.5 * random_trig_field(grid, rng).values
    return grid, g, f.values, v


def test_hessian_matches_complex_reference(data):
    grid, _, f, _ = data
    h = _hessian_matrix(complex_hessian(f, grid))
    assert_close(h, ref_hessian(f, grid))
    assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))


def test_laplacian_matches_complex_reference(data):
    grid, g, f, v = data
    ginv = inverse(g)
    planes = laplacian_planes(_adjugate(g.planes), 1.0 / det(g))
    for x in (f, v):
        lap = laplacian(planes, x, grid)
        assert lap.dtype == np.float64
        assert_close(lap, ref_laplacian(ginv, x, grid))


def test_laplacian_planes_match_the_inverse_metric(data):
    # The planes of 1/det(g) adj(g) are those of G^-1 with entry [j, i] the
    # coefficient of d_i d_jbar.
    _, g, _, _ = data
    got = laplacian_planes(_adjugate(g.planes), 1.0 / det(g))
    want = ref_planes(np.swapaxes(inverse(g), -1, -2))
    assert len(got) == len(want)
    for got_plane, want_plane in zip(got, want):
        assert_close(got_plane, want_plane)


def test_weight_fields_match_levi_civita_contraction(data):
    grid, g, _, _ = data
    got = weight_planes(g)
    want = ref_planes(ref_weight_fields(g.values, grid.complex_dim))
    assert len(got) == len(want)
    for got_plane, want_plane in zip(got, want):
        assert_close(got_plane, want_plane)


def test_weight_operator_is_the_adjoint_laplacian_of_the_volume_weighted_field(data):
    # M(v) = (n-1)! Delta_g^*(det(g) v): Gauduchon's operator is the flat
    # adjoint of the canonical Laplacian.
    grid, g, _, v = data
    n = grid.complex_dim
    got = laplacian_adjoint(weight_planes(g), v, grid)
    want = math.factorial(n - 1) * laplacian_adjoint(
        laplacian_planes(_adjugate(g.planes), 1.0 / det(g)), det(g) * v, grid
    )
    assert_close(got, want)


def test_weight_operator_matches_complex_reference(data):
    grid, g, _, v = data
    cfields = ref_weight_fields(g.values, grid.complex_dim)
    got = laplacian_adjoint(weight_planes(g), v, grid)
    assert_close(got, ref_weight_operator(v, cfields, grid))


def test_frozen_symbol_is_the_half_spectrum_of_the_full_one(data):
    grid, g, _, _ = data
    n, N = grid.complex_dim, grid.points_per_axis
    mean = inverse(g).reshape(-1, n, n).mean(axis=0).T
    full = sum(hessian_symbol(grid, i, j) * mean[i, j] for i in range(n) for j in range(n)).real
    want = np.broadcast_to(full, grid.shape)[..., : N // 2 + 1]
    planes = laplacian_planes(_adjugate(g.planes), 1.0 / det(g))
    assert_close(frozen_symbol(grid, planes), want)


def test_defects_match_torsion_and_reference_operator(grid8, rng):
    g = random_metric(grid8, rng)
    d = defects(g)
    dg = ref_metric_derivatives(g.values, grid8)
    assert d.kaehler_defect == float(np.max(np.abs(dg - np.swapaxes(dg, -3, -2))))
    balanced = float(np.max(np.abs(np.einsum("...jji->...i", torsion(g)))))
    assert abs(d.balanced_defect - balanced) <= RTOL * balanced
    cfields = ref_weight_fields(g.values, 2)
    gaud = float(np.max(np.abs(ref_weight_operator(np.ones(grid8.shape), cfields, grid8))))
    assert abs(d.gauduchon_defect - gaud) <= RTOL * gaud


def _assert_defects_differentiate_once(grid, rng, count_transforms):
    n = grid.complex_dim
    defects(random_metric(grid, rng))
    # antisymmetric_pairs: one complex forward transform per entry and two
    # inverse ones per pair i < j and column; the weight operator: n^2 real
    # forward transforms and one real inverse one.
    assert count_transforms == {
        "fftn": n * n, "ifftn": n * n * (n - 1), "rfftn": n * n, "irfftn": 1
    }


def test_defects_differentiates_the_metric_once(grid8, rng, count_transforms):
    _assert_defects_differentiate_once(grid8, rng, count_transforms)


def test_defects_differentiates_the_metric_once_in_three_dimensions(rng, count_transforms):
    _assert_defects_differentiate_once(GridSpec(3, 8), rng, count_transforms)


@pytest.mark.parametrize("n", [2, 3])
def test_weight_operator_apply_is_real_transforms_only(n, rng, count_transforms):
    grid = GridSpec(n, 8)
    g = random_metric(grid, rng)
    planes = weight_planes(g)
    count_transforms.clear()
    laplacian_adjoint(planes, np.ones(grid.shape), grid)
    assert count_transforms == {"rfftn": n * n, "irfftn": 1}


def test_real_hessian_and_laplacian_transform_counts(grid8, rng, count_transforms):
    g = random_metric(grid8, rng)
    f = random_trig_field(grid8, rng).values
    planes = laplacian_planes(_adjugate(g.planes), 1.0 / det(g))
    count_transforms.clear()
    complex_hessian(f, grid8)
    assert count_transforms == {"rfftn": 1, "irfftn": 4}
    count_transforms.clear()
    laplacian(planes, f, grid8)
    assert count_transforms == {"rfftn": 1, "irfftn": 4}
