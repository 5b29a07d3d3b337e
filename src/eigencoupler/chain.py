"""Finite-state Markov chain generators with a prescribed spectrum, plus
eigenvector scalings that keep the coupling tilt functions strictly positive.

Two shapes are supported: a two-state generator with a user-chosen split of
the single nonzero rate, and (for three or more states) a birth-death
generator with uniform stationary distribution whose nearest-neighbour rates
are fitted to the target eigenvalues by damped Newton iteration.
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
NEWTON_MAX_ITER = 200
NEWTON_REL_TOL = 1e-12


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


def stationary_distribution(Q: np.ndarray) -> np.ndarray:
    """Left null vector of the generator, normalized to a distribution."""
    n = Q.shape[0]
    a = np.vstack([Q.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def _two_state(rate: float, theta: float) -> np.ndarray:
    q01 = theta * rate
    q10 = (1.0 - theta) * rate
    return np.array([[-q01, q01], [q10, -q10]])


def _birth_death_uniform(targets: np.ndarray) -> np.ndarray:
    """Symmetric birth-death generator on {0..m} whose nonzero spectrum is
    {-targets}; uniform stationary distribution ties death rates to birth
    rates, leaving m nearest-neighbour rates for the m targets."""
    m = len(targets)
    scale = float(np.max(targets))
    lam = targets / scale

    if m == 2:
        # closed form: rate sum and product are linear in the spectrum
        s = 0.5 * (lam[0] + lam[1])
        prod = lam[0] * lam[1] / 3.0
        disc = s * s - 4.0 * prod
        if disc < 0:
            raise ChainSynthesisError(
                f"targets with ratio {lam[1] / lam[0]:.3f} < 3 are infeasible "
                "for a 3-state uniform-stationary birth-death chain")
        u = np.array([0.5 * (s + np.sqrt(disc)), 0.5 * (s - np.sqrt(disc))])
    else:
        # graded start breaks the rate-reversal symmetry, whose fixed points
        # make the Newton system singular
        path_eigs = np.sort(4 * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1))) ** 2)
        base = float(np.mean(lam / path_eigs))
        u = base * (1.0 + 0.5 * np.arange(m) / max(m - 1, 1))

    def assemble(u):
        q = np.zeros((m + 1, m + 1))
        idx = np.arange(m)
        q[idx, idx + 1] = u
        q[idx + 1, idx] = u
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    def spectrum_and_vectors(u):
        vals, vecs = np.linalg.eigh(-assemble(u))
        return vals[1:], vecs[:, 1:]   # drop the zero mode

    res_norm = np.inf
    for _ in range(NEWTON_MAX_ITER):
        vals, vecs = spectrum_and_vectors(u)
        res = vals - lam
        res_norm = float(np.max(np.abs(res) / lam))
        if res_norm <= NEWTON_REL_TOL:
            break
        # d lambda_k / d u_j = (v_k[j] - v_k[j+1])^2 for the edge-j rate bump
        jac = (vecs[:-1, :] - vecs[1:, :]).T ** 2
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise ChainSynthesisError(
                "singular Newton system; the target eigenvalues are infeasible "
                "for a uniform-stationary birth-death chain (try different "
                "constraints or a different eigenvalue split)") from exc
        alpha = 1.0
        while alpha > 1e-8:
            cand = u + alpha * step
            if np.all(cand > 0):
                cvals, _ = spectrum_and_vectors(cand)
                if float(np.max(np.abs(cvals - lam) / lam)) < res_norm:
                    u = cand
                    break
            alpha *= 0.5
        else:
            raise ChainSynthesisError(
                "damped Newton stalled; the target eigenvalues appear "
                "infeasible for a uniform-stationary birth-death chain")
    if res_norm > 1e-10:
        raise ChainSynthesisError(
            f"Newton did not reach the eigenvalue tolerance after "
            f"{NEWTON_MAX_ITER} iterations (relative residual {res_norm:.2e}); "
            "try different constraints")
    return assemble(u) * scale


def synth_generator(eigenvalues, shape: str = "two_state", theta: float = 0.5) -> np.ndarray:
    """Generator with spectrum {0} union {-eigenvalues}.

    shape "two_state" (one eigenvalue): rates theta*lambda_1 up and
    (1-theta)*lambda_1 down. shape "birth_death": uniform-stationary
    birth-death chain fitted by damped Newton.

    Raises:
        ChainSynthesisError: infeasible targets or non-convergent Newton.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    if lam.size == 0 or lam[0] <= 0:
        raise ValueError("eigenvalues must be positive")
    if shape == "two_state":
        if lam.size != 1:
            raise ValueError("two_state shape requires exactly one eigenvalue")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        return _two_state(float(lam[0]), theta)
    if shape == "birth_death":
        if np.any(np.diff(lam) <= 0):
            raise ChainSynthesisError(
                "birth-death spectra are simple; repeated target eigenvalues "
                "are infeasible")
        return _birth_death_uniform(lam)
    raise ValueError(f"unknown chain shape {shape!r}")


def _right_eigenvectors(Q: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Unit-sup-norm right eigenvectors for the eigenvalues -rates, first
    entry positive."""
    vals, vecs = np.linalg.eig(Q)
    order = np.argsort(-vals.real)     # 0 first, then decreasing (more negative last)
    vals = vals[order].real
    vecs = vecs[:, order].real
    out = np.empty((len(rates), Q.shape[0]))
    for k, lam in enumerate(rates):
        errs = np.abs(vals + lam)
        j = int(np.argmin(errs))
        if errs[j] > 1e-6 * max(lam, 1e-300):
            raise ChainSynthesisError(
                f"generator has no eigenvalue within relative 1e-6 of -{lam}")
        close = np.abs(vals - vals[j]) <= 1e-12 * max(abs(vals[j]), 1.0)
        if close.sum() > 1:
            raise ChainSynthesisError(
                "repeated eigenvalue: right eigenvectors are not uniquely "
                "determined (defective or degenerate generator)")
        v = vecs[:, j]
        v = v / np.max(np.abs(v))
        if v[0] == 0:
            raise ChainSynthesisError("eigenvector has a vanishing first entry")
        if v[0] < 0:
            v = -v
        out[k] = v
    return out


def scaled_eigenvectors(Q: np.ndarray, eigenvalues, mode_vectors, kappa: float,
                        maximize: bool = False):
    """Right eigenvectors of Q scaled so the tilt functions stay positive.

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
    irreducibility; reports the stationary distribution."""
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
    for k, lam in enumerate(spec.rates):
        res = np.max(np.abs(Q @ spec.vectors[k] + lam * spec.vectors[k]))
        scale = np.max(np.abs(spec.vectors[k]))
        record(f"eigen_residual_{k + 1}", res <= EIG_RESIDUAL_REL * lam * max(scale, 1.0),
               f"residual={res:.2e}")
    reach = np.eye(n, dtype=bool) | (Q > 0)
    for _ in range(n):
        reach = reach | (reach @ reach)
    record("irreducible", bool(reach.all()))
    record("initial_distribution",
           abs(spec.p.sum() - 1.0) <= 1e-12 and np.all(spec.p >= 0))
    return ChainReport(checks=tuple(checks), stationary=stationary_distribution(Q),
                       failures=tuple(failures))
