"""Exact finite-state verification by uniformization.

The joint generator is a sparse matrix on a few thousand product states, so
distributions can be evolved to near machine precision without ever forming a
dense exponential: with P = I + B/Lambda the series sum_k Poisson(Lambda*t; k)
* nu P^k is truncated at a prescribed tail. Long horizons are split into
sub-intervals with Lambda*tau <= 256: the first weight e^{-Lambda*tau} stays
a normal double for every rate-time below 708 (e^{-256} = 6.6e-112), and
each sub-interval pays its own Poisson tail of about 7 sqrt(Lambda*tau)
terms past the mean, so longer sub-intervals take fewer matrix-vector
products per unit of Lambda*t (about 1.5 at 256 against 2.1 at 64, at
the default tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
# scipy's private sparse kernel: y += A x for CSR arrays (indptr, indices,
# data); pinned against PT @ term by tests/test_oracle.py
from scipy.sparse._sparsetools import csr_matvec

from .coupling import CouplingModel
from .errors import UniformizationError, UnreachableTargetError
from .spectral import DiscreteGenerator

__all__ = [
    "DistributionVector",
    "evolve_distribution",
    "check_oracle",
    "mean_exit_times",
    "ConditionalLawReport",
    "MarginalReport",
]

DEFAULT_TOL = 1e-12
_MAX_RATE_STEP = 256.0
_MASS_FLOOR = 1e-14
# each evolution step may shed up to the truncation tolerance; allow a short
# chain of evolutions before the mass check trips
_MASS_TOL = 1e-10
# 1 - sum(weights) cannot resolve a tail below ulp(1)
_EPS = float(np.finfo(float).eps)
# the tail-bound stop waits for a tail this far below the tolerance, so it
# ends only series whose 1 - sum(weights) test rounding has stalled
_TAIL_MARGIN = 1e-3


@dataclass(frozen=True)
class DistributionVector:
    """Nonnegative weights over product states with a time stamp."""

    weights: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0):
            raise ValueError("distribution has negative mass")
        if abs(w.sum() - 1.0) > _MASS_TOL:
            raise ValueError(f"distribution mass {w.sum()} is not 1")
        object.__setattr__(self, "weights", w)


def _depth_cap(a: float) -> int:
    """Series depth past which the Poisson(a) tail is below 1e-23 for every
    a <= 256 (a right point 10 standard deviations plus 20 past the mean;
    the tail there is 5.0e-26 at a = 64 and 6.0e-25 at a = 256)."""
    return int(a + 10.0 * np.sqrt(a) + 20.0)


def _poisson_weights(a: float, tol: float) -> list:
    """Poisson(a) weights w_0..w_K, K the first depth whose remaining tail is
    at most tol.

    The tail is read as 1 - sum(w), which rounding in the sum leaves a few
    ulp off; where that stalls above tol, the series stops once the geometric
    bound on the tail is below _TAIL_MARGIN * tol, so termination never rests
    on rounding.

    Raises:
        UniformizationError: neither test stops the series by
            _depth_cap(a).
    """
    cap = _depth_cap(a)
    weight = np.exp(-a)
    weights = [weight]
    total = weight
    k = 0
    while 1.0 - total > tol:
        # sum_{j>k} w_j <= w_{k+1} / (1 - a/(k+2)) once k+2 > a
        if k + 2 > a and weight * a / ((k + 1) * (1.0 - a / (k + 2))) <= _TAIL_MARGIN * tol:
            break
        if k == cap:
            raise UniformizationError(
                f"Poisson series at rate-time {a:.6g} did not reach tail {tol:.3e} "
                f"by depth {cap}")
        k += 1
        weight *= a / k
        weights.append(weight)
        total += weight
    return weights


def _uniformize(B: sp.spmatrix, nu: np.ndarray, t: float, tol: float) -> np.ndarray:
    n = B.shape[0]
    # csr_matvec reads n entries of nu unchecked
    if nu.shape != (n,):
        raise ValueError(f"distribution of shape {nu.shape} for a generator on {n} states")
    rate = float(np.max(-B.diagonal()))
    if rate <= 0.0 or t == 0.0:
        return nu.copy()
    n_sub = max(1, int(np.ceil(rate * t / _MAX_RATE_STEP)))
    # every sub-interval has the same rate-time, hence the same weights
    tau = t / n_sub
    weights = _poisson_weights(rate * tau, max(tol / n_sub, _EPS))
    # the uniformized chain's kernel P^T, formed once in CSR with sorted
    # indices. PT @ term runs csc_matvec on P's CSR arrays, scattering row j
    # of P into every entry's sum in ascending j from zero; csr_matvec on
    # P^T's rows gathers each entry's terms in that same order, called
    # directly into one of two reused buffers without sparse @'s dispatch
    # and fresh output per step
    P = (sp.eye(n, format="csr") + B.multiply(1.0 / rate)).tocsr()
    PT = P.T.tocsr()
    PT.sort_indices()
    bufs = (np.empty(n), np.empty(n))
    tmp = np.empty(n)
    out = nu
    for _ in range(n_sub):
        term = out
        acc = weights[0] * term
        for k, weight in enumerate(weights[1:]):
            nxt = bufs[k & 1]
            nxt.fill(0.0)       # csr_matvec adds into its output
            csr_matvec(n, n, PT.indptr, PT.indices, PT.data, term, nxt)
            term = nxt
            acc += np.multiply(weight, term, out=tmp)
        out = acc
    return out


def evolve_distribution(B: sp.spmatrix, nu0, t: float,
                        tol: float = DEFAULT_TOL) -> DistributionVector:
    """Law at time t of the Markov process with generator B started from nu0.

    Mass is conserved up to the truncation tolerance (default 1e-12) per
    call, split evenly over the sub-intervals with Lambda*tau <= 256 but
    never below ulp(1) each; the truncated series is never renormalized. A zero
    generator returns the input unchanged.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    start = nu0.weights if isinstance(nu0, DistributionVector) else np.asarray(nu0, dtype=float)
    t0 = nu0.time if isinstance(nu0, DistributionVector) else 0.0
    out = _uniformize(sp.csr_matrix(B), start, t, tol)
    return DistributionVector(weights=out, time=t0 + t)


def _evolve_at(B: sp.spmatrix, nu: DistributionVector, times) -> list:
    """(t, law at t) for the sorted times, each law evolved from the last."""
    laws = []
    for t in sorted(float(t) for t in times):
        nu = evolve_distribution(B, nu, t - nu.time)
        laws.append((t, nu))
    return laws


@dataclass(frozen=True)
class ConditionalLawReport:
    max_tv: float
    entries: tuple          # ((t, state, tv), ...)
    skipped: tuple          # ((t, state, mass), ...) states below the mass floor


def _conditional_report(laws, model: CouplingModel) -> ConditionalLawReport:
    n = model.n_nodes
    m1 = model.n_states
    entries = []
    skipped = []
    for t, nu in laws:
        joint = nu.weights.reshape(m1, n)
        for j in range(m1):
            mass = joint[j].sum()
            if mass < _MASS_FLOOR:
                skipped.append((t, j, float(mass)))
                continue
            tv = 0.5 * float(np.abs(joint[j] / mass - model.cond[j]).sum())
            entries.append((t, j, tv))
    max_tv = max((e[2] for e in entries), default=0.0)
    return ConditionalLawReport(max_tv=max_tv, entries=tuple(entries),
                                skipped=tuple(skipped))


@dataclass(frozen=True)
class MarginalReport:
    max_l1: float
    entries: tuple          # ((t, l1), ...)


def _marginal_report(laws, Q: np.ndarray, p) -> MarginalReport:
    Q = np.asarray(Q, dtype=float)
    m1 = Q.shape[0]
    entries = []
    pv = DistributionVector(np.asarray(p, dtype=float).copy(), 0.0)
    for t, nu in laws:
        pv = evolve_distribution(sp.csr_matrix(Q), pv, t - pv.time)
        marginal = nu.weights.reshape(m1, -1).sum(axis=1)
        entries.append((t, float(np.abs(marginal - pv.weights).sum())))
    return MarginalReport(max_l1=max(e[1] for e in entries), entries=tuple(entries))


def check_oracle(B: sp.spmatrix, model: CouplingModel, times) -> tuple:
    """Both exact consequences of the coupling, from one evolution of the
    model's coupled initial law: (ConditionalLawReport, MarginalReport).

    The first holds the total-variation errors of the evolved conditional
    laws against the model's reference conditionals, skipping and noting
    states whose mass falls below 1e-14; the second the l1 distances between
    the chain marginal and p exp(Qt), p = model.p and Q = model.Q,
    uniformized on its own.
    """
    nu = DistributionVector(model.initial_law_for().reshape(-1), 0.0)
    laws = _evolve_at(B, nu, times)
    return _conditional_report(laws, model), _marginal_report(laws, model.Q, model.p)


def _restricted_bands(generator, keep: np.ndarray):
    """((lower, upper), ab): the generator restricted to the kept states in
    LAPACK band storage, ab[upper + i - j, j] = G[keep[i], keep[j]], at
    bandwidths never below (1, 1)."""
    if isinstance(generator, DiscreteGenerator):
        # tridiagonal: two kept nodes are coupled only if grid neighbours
        diag, lower, upper = generator.tridiagonal()
        adjacent = np.diff(keep) == 1
        ab = np.zeros((3, len(keep)))
        ab[0, 1:] = np.where(adjacent, upper[keep[:-1]], 0.0)
        ab[1] = diag[keep]
        ab[2, :-1] = np.where(adjacent, lower[keep[:-1]], 0.0)
        return (1, 1), ab
    sub = np.asarray(generator, dtype=float)[np.ix_(keep, keep)]
    i, j = np.nonzero(sub)
    lo = max(1, int(np.max(i - j, initial=0)))
    up = max(1, int(np.max(j - i, initial=0)))
    ab = np.zeros((lo + up + 1, len(keep)))
    ab[up + i - j, j] = sub[i, j]
    return (lo, up), ab


def mean_exit_times(generator, sources, targets) -> np.ndarray:
    """Expected hitting times of the target set from each source state,
    solved exactly from the generator restricted to the complement by one
    banded LAPACK solve (solve_banded).

    generator is a chain matrix (a square array, solved at its own
    bandwidth) or a DiscreteGenerator (tridiagonal); sources and targets are
    state indices.

    Raises:
        UnreachableTargetError: the restricted system is singular or yields
            non-physical (negative or non-finite) times.
    """
    n = generator.n if isinstance(generator, DiscreteGenerator) else len(generator)
    targets = np.asarray(targets, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    mask[targets] = False
    if not mask.any():
        return np.zeros(len(sources))
    keep = np.nonzero(mask)[0]
    bandwidths, ab = _restricted_bands(generator, keep)
    try:
        # a singular 1 x 1 restriction divides by zero; its non-finite
        # solution is caught below
        with np.errstate(divide="ignore", invalid="ignore"):
            u_keep = solve_banded(bandwidths, ab, -np.ones(len(keep)))
    except np.linalg.LinAlgError as exc:
        raise UnreachableTargetError(f"singular restricted generator: {exc}") from exc
    if not np.all(np.isfinite(u_keep)) or np.any(u_keep < 0):
        raise UnreachableTargetError(
            "restricted generator produced a non-physical hitting time; "
            "the target set is unreachable from part of the state space")
    u = np.zeros(n)
    u[keep] = u_keep
    return u[sources]
