"""Pointwise (single-jet) identities of Hermitian metrics.

Works on the 2-jet of a metric at one point: the value g0, the
holomorphic derivatives dg[k, i, j] = d_k g_{ij-bar}, and a Hermitian
potential Hessian. ``normal_coordinates`` produces one explicit
holomorphic coordinate change achieving the distinguished gauge

    g(0) = identity,  d_j g_{ii-bar}(0) = 0 for all i, j,
    potential Hessian diagonal,

via a Hermitian factorization, a diagonalizing unitary (eigenvalues
sorted ascending, column phases fixed at the first significant entry),
and a quadratic coordinate correction. ``transform_jet`` implements the
pullback transformation law directly and serves as the independent
oracle for the construction.

Also here: the trace inequality / n=2 trace identity for positive pairs,
the doubled Cauchy-Schwarz bound on the gradient of the trace, and the
coordinate identities that hold when the torsion trace vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaugeViolated, GridMismatchError, NotPositiveError


def _check_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if not np.allclose(m, m.conj().T, rtol=0, atol=1e-12 * max(1.0, np.abs(m).max())):
        raise GridMismatchError(f"{name} must be Hermitian")
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class MetricJet:
    """2-jet data (g0, dg, hess_phi) of a metric and potential at a point."""

    g0: np.ndarray
    dg: np.ndarray
    hess_phi: np.ndarray

    def __post_init__(self):
        g0 = _check_hermitian(self.g0, "g0")
        n = g0.shape[0]
        dg = np.asarray(self.dg, dtype=np.complex128)
        if dg.shape != (n, n, n):
            raise GridMismatchError(f"dg must have shape {(n, n, n)}, got {dg.shape}")
        hess = _check_hermitian(self.hess_phi, "hess_phi")
        evals = np.linalg.eigvalsh(g0)
        if evals[0] <= 0:
            raise NotPositiveError(f"g0 has non-positive eigenvalue {evals[0]:.6e}")
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "dg", dg)
        object.__setattr__(self, "hess_phi", hess)

    @property
    def dim(self) -> int:
        return self.g0.shape[0]


@dataclass(frozen=True)
class CoordinateChange:
    """Holomorphic change z = L w + (1/2) B(w, w), B symmetric in (j, k)."""

    linear: np.ndarray
    quadratic: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.linear, dtype=np.complex128)
        B = np.asarray(self.quadratic, dtype=np.complex128)
        n = L.shape[0]
        if L.shape != (n, n) or B.shape != (n, n, n):
            raise GridMismatchError("coordinate change has inconsistent shapes")
        if not np.allclose(B, np.swapaxes(B, 1, 2), rtol=0, atol=1e-12 * max(1.0, np.abs(B).max())):
            raise GridMismatchError("quadratic term must be symmetric in its lower indices")
        if abs(np.linalg.det(L)) < 1e-12:
            raise GridMismatchError("linear part must be invertible")
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "quadratic", B)


def transform_jet(jet: MetricJet, change: CoordinateChange) -> MetricJet:
    """Pullback of the jet under z = L w + (1/2) B(w, w).

    Transformation laws at the center point:

        g~_{ij}    = L^a_i conj(L^b_j) g_{ab}
        d_m g~_{ij} = L^c_m L^a_i conj(L^b_j) d_c g_{ab}
                      + B^a_{im} conj(L^b_j) g_{ab}
        hess~_{ij} = L^a_i conj(L^b_j) hess_{ab}
    """
    L, B = change.linear, change.quadratic
    g0 = np.einsum("ai,ab,bj->ij", L, jet.g0, np.conj(L))
    hess = np.einsum("ai,ab,bj->ij", L, jet.hess_phi, np.conj(L))
    dg = np.einsum("cm,ai,bj,cab->mij", L, L, np.conj(L), jet.dg)
    dg = dg + np.einsum("aim,bj,ab->mij", B, np.conj(L), jet.g0)
    return MetricJet(g0, dg, hess)


def _phase_fixed_eigvecs(h: np.ndarray) -> np.ndarray:
    """Unitary of eigenvectors, ascending eigenvalues, first significant
    component of each column made real positive."""
    _, vecs = np.linalg.eigh(h)
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        idx = int(np.argmax(np.abs(v) > 1e-12 * np.abs(v).max()))
        phase = v[idx] / abs(v[idx])
        vecs[:, col] = v * np.conj(phase)
    return vecs


def normal_coordinates(jet: MetricJet) -> CoordinateChange:
    """One explicit coordinate change achieving the distinguished gauge.

    Construction: factor g0 = P^H P and take M = conj(P)^-1 so the pulled
    back metric is the identity; rotate by the unitary diagonalizing the
    transformed potential Hessian; then cancel the derivatives
    d_j g_{ii-bar}(0) with the quadratic components B^i_{ji} (all other
    quadratic components zero).
    """
    n = jet.dim
    evals = np.linalg.eigvalsh(jet.g0)
    if evals[0] <= 0:
        raise NotPositiveError(f"g0 has non-positive eigenvalue {evals[0]:.6e}")
    chol = np.linalg.cholesky(jet.g0)          # g0 = chol chol^H
    m1 = np.linalg.inv(chol.T)                 # m1^T g0 conj(m1) = identity
    h1 = np.einsum("ai,ab,bj->ij", m1, jet.hess_phi, np.conj(m1))
    u = _phase_fixed_eigvecs(h1.T)
    lin = m1 @ u

    dg1 = np.einsum("cm,ai,bj,cab->mij", lin, lin, np.conj(lin), jet.dg)
    quad_frame = np.zeros((n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            quad_frame[i, j, i] = -dg1[j, i, i]
            quad_frame[i, i, j] = -dg1[j, i, i]
    quadratic = np.einsum("ai,ijk->ajk", lin, quad_frame)
    return CoordinateChange(lin, quadratic)


def gauge_errors(jet: MetricJet) -> tuple:
    """(identity error, off-diagonal Hessian error, derivative-of-diagonal
    error) of the distinguished gauge conditions."""
    n = jet.dim
    e_id = float(np.abs(jet.g0 - np.eye(n)).max())
    e_dg = float(np.abs(np.einsum("jii->ji", jet.dg)).max())
    off = jet.hess_phi - np.diag(np.diag(jet.hess_phi))
    return e_id, float(np.abs(off).max()), e_dg


def trace_inequality_slack(g: np.ndarray, gp: np.ndarray) -> tuple:
    """(lhs, rhs, slack) of the trace bound for positive pairs:

        tr_g g' <= (1/(n-1)!) (tr_g' g)^{n-1} det g' / det g.
    """
    n = g.shape[-1]
    ginv = np.linalg.inv(g)
    gpinv = np.linalg.inv(gp)
    tr = np.einsum("...ij,...ji->...", ginv, gp).real
    tr_rev = np.einsum("...ij,...ji->...", gpinv, g).real
    ratio = (np.linalg.det(gp) / np.linalg.det(g)).real
    rhs = tr_rev ** (n - 1) * ratio / math.factorial(n - 1)
    return tr, rhs, rhs - tr


def trace_identity_gap_n2(g: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """|tr_g g' - (tr_g' g) det g'/det g| for 2x2 positive pairs (an
    identity in dimension two)."""
    lhs, rhs, _ = trace_inequality_slack(g, gp)
    return np.abs(lhs - rhs)


@dataclass(frozen=True)
class CsChainResult:
    holds: bool
    slack: float
    lhs: float
    rhs: float


def check_cs_chain(gprime_diag: np.ndarray, dgprime: np.ndarray, tol: float = 1e-12) -> CsChainResult:
    """Doubled Cauchy-Schwarz bound on the gradient of the trace.

    At a point in the distinguished gauge with g' diagonal (entries
    gprime_diag > 0) and derivative tensor dgprime[k, i, j] = d_k g'_{ij},

        |sum over i of weighted gradient of trace|^2 / tr
            <= sum_{i,j} g'^{ii} g'^{jj} |d_i g'_{jj}|^2.
    """
    lam = np.asarray(gprime_diag, dtype=np.float64)
    if np.any(lam <= 0):
        raise NotPositiveError("gprime_diag entries must be positive")
    d = np.asarray(dgprime, dtype=np.complex128)
    n = lam.shape[0]
    diag = np.stack([d[:, j, j] for j in range(n)], axis=1)  # [i, j] = d_i g'_{jj}
    grad = diag.sum(axis=1)                                  # d_i of the trace
    tr = float(lam.sum())
    lhs = float((np.abs(grad) ** 2 / lam).sum() / tr)
    rhs = float((np.abs(diag) ** 2 / np.outer(lam, lam)).sum())
    slack = rhs - lhs
    return CsChainResult(holds=slack >= -tol * max(1.0, rhs), slack=slack, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class BalancedCoordsResult:
    holds: bool
    torsion_trace: np.ndarray          # sum_j d_j g_{ij-bar} per i
    divergence_error: float
    gradient_identity_error: float


def project_balanced(dg: np.ndarray) -> np.ndarray:
    """Project a derivative tensor onto the distinguished gauge with
    vanishing torsion trace: zero the d_j g_{ii} entries, then remove the
    mean of the entries d_j g_{ij} over j != i."""
    n = dg.shape[0]
    out = np.array(dg, dtype=np.complex128)
    for i in range(n):
        out[:, i, i] = 0.0
    for i in range(n):
        js = [j for j in range(n) if j != i]
        mean = sum(out[j, i, j] for j in js) / len(js)
        for j in js:
            out[j, i, j] -= mean
    return out


def check_balanced_coords(
    jet: MetricJet,
    dphi3: np.ndarray,
    tol: float = 1e-12,
) -> BalancedCoordsResult:
    """Coordinate identities of a torsion-trace-free jet in the gauge.

    dphi3[k, i, j] supplies the third derivatives d_k d_i d_jbar phi,
    symmetric in (k, i). Checks sum_j d_j g_{ij-bar} = 0 and that the
    gradient of the trace equals the derivative divergence of
    g'_{ij} = g_{ij} + hess terms:

        sum_j d_i g'_{jj} = sum_j d_j g'_{ij}.
    """
    n = jet.dim
    e_id, _, e_dg = gauge_errors(jet)  # Hessian gauge not needed here
    if e_id > tol or e_dg > tol:
        raise GaugeViolated(
            f"jet is not in the distinguished gauge (identity error {e_id:.2e}, "
            f"diagonal-derivative error {e_dg:.2e})"
        )
    dphi3 = np.asarray(dphi3, dtype=np.complex128)
    if dphi3.shape != (n, n, n):
        raise GridMismatchError(f"dphi3 must have shape {(n, n, n)}")
    if np.abs(dphi3 - np.swapaxes(dphi3, 0, 1)).max() > 1e-12 * max(1.0, np.abs(dphi3).max()):
        raise GridMismatchError("dphi3 must be symmetric in its first two indices")

    tvec = np.array([sum(jet.dg[j, i, j] for j in range(n)) for i in range(n)])
    dgp = jet.dg + dphi3
    grad_tr = np.array([sum(dgp[i, j, j] for j in range(n)) for i in range(n)])
    div = np.array([sum(dgp[j, i, j] for j in range(n)) for i in range(n)])
    div_err = float(np.abs(tvec).max())
    grad_err = float(np.abs(grad_tr - div).max())
    return BalancedCoordsResult(
        holds=(div_err <= tol and grad_err <= tol),
        torsion_trace=tvec,
        divergence_error=div_err,
        gradient_identity_error=grad_err,
    )


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_hpd(rng: np.random.Generator, n: int, shift: float = 0.15) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + shift * np.eye(n)


def random_jet(rng: np.random.Generator, n: int, identity_g0: bool = False) -> MetricJet:
    g0 = np.eye(n, dtype=np.complex128) if identity_g0 else random_hpd(rng, n)
    dg = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    return MetricJet(g0, dg, random_hermitian(rng, n))


def run_identity_fuzz(
    seed: int,
    n_matrix: int = 1000,
    n_jets: int = 200,
    n_balanced: int = 100,
) -> dict:
    """Seeded fuzzing campaign over the pointwise identities.

    Returns pass/fail counts plus a list of JSON-serializable failure
    records (offending data included) for artifact dumping.
    """
    rng = np.random.default_rng(seed)
    counts = {}
    failures = []

    def record(name, data):
        failures.append({"check": name, "data": data})

    passed = 0
    for k in range(n_matrix):
        n = 2 + (k % 2)
        g, gp = random_hpd(rng, n), random_hpd(rng, n)
        _, rhs, slack = trace_inequality_slack(g, gp)
        ok = slack >= -1e-12 * max(1.0, rhs)
        if ok and n == 2:
            ok = trace_identity_gap_n2(g, gp) <= 1e-12 * max(1.0, rhs)
        if ok:
            passed += 1
        else:
            record("trace_inequality", {"g": _c2l(g), "gprime": _c2l(gp)})
    counts["trace_inequality"] = {"passed": passed, "total": n_matrix}

    passed = 0
    for k in range(n_matrix):
        n = 2 + (k % 2)
        lam = np.exp(rng.uniform(-1.5, 1.5, size=n))
        d = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        res = check_cs_chain(lam, d)
        if res.holds:
            passed += 1
        else:
            record("cs_chain", {"gprime_diag": list(lam), "dgprime": _c2l(d), "slack": res.slack})
    counts["cs_chain"] = {"passed": passed, "total": n_matrix}

    passed = 0
    for k in range(n_jets):
        n = 2 + (k % 2)
        jet = random_jet(rng, n)
        changed = transform_jet(jet, normal_coordinates(jet))
        e_id, e_hess, e_dg = gauge_errors(changed)
        if max(e_id, e_hess, e_dg) <= 1e-12:
            passed += 1
        else:
            record(
                "normal_coordinates",
                {"g0": _c2l(jet.g0), "dg": _c2l(jet.dg), "hess_phi": _c2l(jet.hess_phi),
                 "errors": [e_id, e_hess, e_dg]},
            )
    counts["normal_coordinates"] = {"passed": passed, "total": n_jets}

    passed = 0
    for k in range(n_balanced):
        n = 2 + (k % 2)
        dg = project_balanced(
            rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        )
        jet = MetricJet(np.eye(n), dg, np.zeros((n, n)))
        dphi3 = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        dphi3 = 0.5 * (dphi3 + np.swapaxes(dphi3, 0, 1))
        res = check_balanced_coords(jet, dphi3)
        if res.holds:
            passed += 1
        else:
            record("balanced_coords", {"dg": _c2l(dg), "dphi3": _c2l(dphi3)})
    counts["balanced_coords"] = {"passed": passed, "total": n_balanced}

    return {"seed": seed, "counts": counts, "failures": failures}


def _c2l(arr: np.ndarray) -> list:
    """Complex array to nested [re, im] lists for JSON artifacts."""
    a = np.asarray(arr)
    return np.stack([a.real, a.imag], axis=-1).tolist()
