"""Seeded random analytic test data: band-limited trigonometric
polynomials and metrics near the identity."""

import numpy as np

from matorus.grid import GridSpec, HermitianField, ScalarField, constant_field, min_eigenvalue


def random_trig_field(
    grid: GridSpec,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    bandwidth: int = 2,
    n_modes: int = 6,
) -> ScalarField:
    """Random band-limited trigonometric polynomial with sup-norm amplitude."""
    coords = grid.coordinates()
    names = sorted(coords)
    vals = np.zeros(grid.shape)
    for _ in range(n_modes):
        while True:
            freqs = rng.integers(-bandwidth, bandwidth + 1, size=len(names))
            if np.any(freqs != 0):
                break
        phase = 2.0 * np.pi * sum(f * coords[c] for f, c in zip(freqs, names))
        vals = vals + rng.normal() * np.cos(phase + rng.uniform(0, 2 * np.pi))
    sup = np.max(np.abs(vals))
    if sup == 0.0:
        return constant_field(grid, 0.0)
    return ScalarField(grid, amplitude * vals / sup)


def random_metric(
    grid: GridSpec,
    rng: np.random.Generator,
    amplitude: float = 0.3,
    bandwidth: int = 1,
    n_modes: int = 4,
    min_eig: float = 0.3,
) -> HermitianField:
    """Random analytic Hermitian metric: identity plus band-limited
    Hermitian-matrix modes, rescaled until safely positive."""
    n = grid.complex_dim
    coords = grid.coordinates()
    names = sorted(coords)
    pert = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    for _ in range(n_modes):
        while True:
            freqs = rng.integers(-bandwidth, bandwidth + 1, size=len(names))
            if np.any(freqs != 0):
                break
        phase = 2.0 * np.pi * sum(f * coords[c] for f, c in zip(freqs, names))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = 0.5 * (m + m.conj().T)
        mode = np.broadcast_to(np.cos(phase + rng.uniform(0, 2 * np.pi)), grid.shape)
        pert = pert + mode[..., None, None] * m
    sup = np.max(np.abs(pert))
    if sup > 0:
        pert *= amplitude / sup
    eye = np.eye(n, dtype=np.complex128)
    vals = eye + pert
    while True:
        h = HermitianField(grid, vals)
        emin, _ = min_eigenvalue(h)
        if emin >= min_eig:
            return h.as_metric()
        vals = eye + 0.7 * (vals - eye)
