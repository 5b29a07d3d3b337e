"""Finite-state Markov chain generators with a prescribed spectrum, plus
eigenvector scalings that keep the coupling tilt functions strictly positive.

One builder serves every number of states: the reflection-symmetric
birth-death chain with the given spectrum, rebuilt by Lanczos from the
spectrum and its persymmetric spectral measure at state 0 (Karlin & McGregor
1957; de Boor & Golub 1978). Every distinct positive spectrum has one. With a
single eigenvalue, theta splits its rate between the two directed rates, and
theta = 0.5 is the same reflection-symmetric chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainSynthesisError

__all__ = ["ChainSpec", "ChainReport", "synth_generator", "scaled_eigenvectors",
           "validate_chain", "stationary_distribution"]

EIG_RESIDUAL_REL = 1e-10
ROW_SUM_REL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """Generator Q, its decay rates, scaled right eigenvectors, and initial law.

    rates holds lambda_1 <= ... <= lambda_m > 0; the generator spectrum is
    {0} union {-rates}. vectors[k] is the scaled right eigenvector for
    -rates[k] (vectors[k] = scales[k] * unit-sup-norm eigenvector), chosen so
    that every tilt function stays positive downstream.
    """

    Q: np.ndarray
    rates: np.ndarray
    vectors: np.ndarray          # (m, m+1)
    scales: np.ndarray           # (m,)
    p: np.ndarray                # initial distribution on {0..m}
    min_alpha_bound: float = 0.0
    theta: float | None = None

    @property
    def n_states(self) -> int:
        return self.Q.shape[0]

    def to_json(self, path=None):
        payload = {
            "Q": self.Q.tolist(),
            "rates": self.rates.tolist(),
            "vectors": self.vectors.tolist(),
            "scales": self.scales.tolist(),
            "p": self.p.tolist(),
            "min_alpha_bound": self.min_alpha_bound,
            "theta": self.theta,
            "stationary": stationary_distribution(self.Q).tolist(),
        }
        if path is not None:
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2)
        return payload


def _null_vector(A: np.ndarray):
    """The right singular vector of A's least singular value, whose residual
    |A v| is that value however spread A's spectrum, and A's singular values,
    least first."""
    _, sigma, vt = np.linalg.svd(A)
    return vt[-1], sigma[::-1]


def stationary_distribution(Q: np.ndarray) -> np.ndarray:
    """The null vector of Q^T (the left one of Q), divided by its sum."""
    pi, _ = _null_vector(Q.T)
    return pi / pi.sum()


def _two_state(rate: float, theta: float) -> np.ndarray:
    q01 = theta * rate
    q10 = (1.0 - theta) * rate
    return np.array([[-q01, q01], [q10, -q10]])


def _persymmetric(lam: np.ndarray) -> np.ndarray:
    """The reflection-symmetric birth-death generator on {0..m} with nonzero
    spectrum {-lam}: Lanczos on diag(0, -lam) from the square root of the
    persymmetric weights w_k ~ 1 / prod_{j != k} |a_k - a_j| rebuilds the
    Jacobi matrix J with that spectrum (de Boor & Golub 1978), and its
    positive eigenvector phi for 0 turns J into the generator
    diag(phi)^-1 J diag(phi), whose stationary law is phi**2."""
    scale = float(lam[-1])
    a = np.concatenate(([0.0], -lam / scale))
    gaps = np.abs(a[:, None] - a)
    np.fill_diagonal(gaps, 1.0)
    log_w = -np.log(gaps).sum(axis=1)
    n = len(a)
    basis = np.zeros((n, n))
    basis[:, 0] = np.exp(0.5 * (log_w - log_w.max()))
    basis[:, 0] /= np.linalg.norm(basis[:, 0])
    beta = np.empty(n - 1)
    for k in range(n - 1):
        r = a * basis[:, k]
        for _ in range(2):      # full reorthogonalization, twice is enough
            r -= basis[:, :k + 1] @ (basis[:, :k + 1].T @ r)
        beta[k] = np.linalg.norm(r)
        basis[:, k + 1] = r / beta[k]
    # J's eigenvector for a_0 = 0 is the first row of the Lanczos basis
    phi = basis[0]
    Q = np.diag(beta * phi[1:] / phi[:-1], 1) + np.diag(beta * phi[:-1] / phi[1:], -1)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q * scale


def synth_generator(eigenvalues, theta: float = 0.5) -> np.ndarray:
    """Generator with spectrum {0} union {-eigenvalues}.

    One eigenvalue lambda_1 gives the two-state chain with rates
    theta*lambda_1 up and (1-theta)*lambda_1 down. Two or more give the one
    reflection-symmetric birth-death chain with that spectrum, which every
    distinct positive spectrum has; theta = 0.5 is that chain for one
    eigenvalue too, and theta applies to one eigenvalue only.

    Raises:
        ValueError: an eigenvalue is not positive, or theta is outside (0, 1).
        ChainSynthesisError: repeated eigenvalues, which no birth-death
            chain has.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    if lam.size == 0 or lam[0] <= 0:
        raise ValueError("eigenvalues must be positive")
    if np.any(np.diff(lam) <= 0):
        raise ChainSynthesisError(
            "birth-death spectra are simple; repeated target eigenvalues "
            "are infeasible")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if lam.size > 1:
        return _persymmetric(lam)
    # Lanczos from the weights (1 - theta, theta), in closed form
    return _two_state(float(lam[0]), theta)


def _right_eigenvectors(Q: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Unit-sup-norm right eigenvectors for the eigenvalues -rates, first
    entry positive: the null vectors of Q + lambda I, whose least singular
    value must lie within 1e-6 lambda plus the SVD's backward-error floor and
    whose next one must not (a repeated eigenvalue, or a lambda so far below
    ||Q|| that -lambda cannot be told from the eigenvalue 0)."""
    n = Q.shape[0]
    ulp_floor = n * np.finfo(float).eps * np.linalg.norm(Q, 2)
    out = np.empty((len(rates), n))
    for k, lam in enumerate(rates):
        v, sigma = _null_vector(Q + lam * np.eye(n))
        bound = 1e-6 * lam + ulp_floor
        if sigma[0] > bound:
            raise ChainSynthesisError(
                f"generator has no eigenvalue within relative 1e-6 of -{lam}")
        if sigma[1] <= bound:
            if lam <= bound:
                raise ChainSynthesisError(
                    f"eigenvalue -{lam:.3g} cannot be told from eigenvalue 0 at the "
                    f"float64 floor (m+1) ulp ||Q|| = {ulp_floor:.3g}")
            raise ChainSynthesisError(
                "repeated eigenvalue: right eigenvectors are not uniquely "
                "determined (defective or degenerate generator)")
        v = v / np.max(np.abs(v))
        if v[0] == 0:
            raise ChainSynthesisError("eigenvector has a vanishing first entry")
        out[k] = v if v[0] > 0 else -v
    return out


def scaled_eigenvectors(Q: np.ndarray, eigenvalues, mode_vectors, kappa: float,
                        maximize: bool = False):
    """Right eigenvectors of Q scaled so the tilt functions stay positive. Each
    unit eigenvector is the SVD null vector of Q + lambda_k I; ChainSynthesisError
    if -lambda_k is not a simple eigenvalue of Q to within relative 1e-6.

    mode_vectors holds the diffusion eigenfunctions on the grid (row k for
    decay rate lambda_k, k >= 1). With budget scaling (default), component k
    receives c_k = kappa / (m * max|unit eigenvector| * sup|mode_k|), which
    guarantees every tilt 1 + sum_k vectors[k][i] * mode_k(x) >= 1 - kappa.
    maximize=True (single-rate chains only) instead locates the exact
    positivity boundary and applies the fraction kappa of it.

    Returns:
        (vectors, scales, min_alpha): scaled eigenvectors (m, m+1), the scale
        factors, and the achieved minimum tilt over grid points and states.
    """
    rates = np.asarray(eigenvalues, dtype=float)
    eta = np.atleast_2d(np.asarray(mode_vectors, dtype=float))
    m = len(rates)
    if eta.shape[0] != m:
        raise ValueError("need one mode vector per nonzero eigenvalue")
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    unit = _right_eigenvectors(Q, rates)
    sup = np.max(np.abs(eta), axis=1)
    if maximize:
        if m != 1:
            raise ValueError("maximize mode is defined for single-rate chains only")
        dip = np.max(np.maximum(-np.outer(unit[0], eta[0]), 0.0))
        boundary = np.inf if dip == 0 else 1.0 / dip
        scales = np.array([kappa * boundary if np.isfinite(boundary) else 0.0])
    else:
        scales = kappa / (m * np.max(np.abs(unit), axis=1) * sup)
    vectors = unit * scales[:, None]
    alpha = 1.0 + vectors.T @ eta      # (m+1, n) tilts
    min_alpha = float(alpha.min())
    if min_alpha <= 0:
        raise AssertionError("positivity budget violated; scaling bug")
    return vectors, scales, min_alpha


@dataclass(frozen=True)
class ChainReport:
    checks: tuple
    stationary: np.ndarray
    failures: tuple = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures


def offdiagonal_nonnegative(Q: np.ndarray) -> bool:
    return bool(np.all(Q[~np.eye(Q.shape[0], dtype=bool)] >= 0))


def row_sums_zero(Q: np.ndarray) -> bool:
    """Every row sum within ROW_SUM_REL of the largest entry (at least 1)."""
    return bool(np.max(np.abs(Q.sum(axis=1))) <= ROW_SUM_REL * max(np.max(np.abs(Q)), 1.0))


def validate_chain(spec: ChainSpec) -> ChainReport:
    """Structural checks: sign pattern, zero row sums, eigen residuals,
    irreducibility; reports the stationary distribution. Each eigen residual
    is gated at 1e-10 lambda_k or, where that is smaller, at the backward-error
    floor 4 (m+1) ulp ||Q||_2 of any computed eigenvector."""
    Q = spec.Q
    n = Q.shape[0]
    checks = []
    failures = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))
        if not ok:
            failures.append(name)

    record("offdiagonal_nonnegative", offdiagonal_nonnegative(Q))
    record("row_sums_zero", row_sums_zero(Q))
    floor = 4 * n * np.finfo(float).eps * np.linalg.norm(Q, 2)
    for k, lam in enumerate(spec.rates):
        res = np.max(np.abs(Q @ spec.vectors[k] + lam * spec.vectors[k]))
        scale = np.max(np.abs(spec.vectors[k]))
        record(f"eigen_residual_{k + 1}",
               res <= max(EIG_RESIDUAL_REL * lam, floor) * max(scale, 1.0),
               f"residual={res:.2e}")
    reach = np.eye(n, dtype=bool) | (Q > 0)
    for _ in range(n):
        reach = reach | (reach @ reach)
    record("irreducible", bool(reach.all()))
    record("initial_distribution",
           abs(spec.p.sum() - 1.0) <= 1e-12 and np.all(spec.p >= 0))
    return ChainReport(checks=tuple(checks), stationary=stationary_distribution(Q),
                       failures=tuple(failures))
