"""Assembly of the coupled objects: positive tilt functions, state-dependent
jump rates, the joint generator on grid x chain states, initial laws, and the
conditional densities used as the reference law in every verification; and
the one builder of the whole pipeline, potential through coupling model.

All functions of the continuous variable are grid-sampled vectors. Off the
grid the simulator interpolates the tilt table linearly in each cell (it
interpolates the modes and applies 1 + vectors^T, the same affine function)
and forms each rate as Q_ij * tilt_j / tilt_i, which preserves the rate
identity tilt_i(x) * rate_ij(x) = Q_ij * tilt_j(x) everywhere.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .chain import (ChainSpec, offdiagonal_nonnegative, row_sums_zero, scaled_eigenvectors,
                    synth_generator)
from .errors import CouplingError
from .potential import Potential, make_potential
from .spectral import (DiscreteGenerator, SpectralDecomposition, auto_grid,
                       build_generator, decompose)

__all__ = [
    "CouplingModel",
    "Pipeline",
    "build_coupling",
    "build_pipeline",
    "build_joint_generator",
    "sample_initial",
    "conditional_density",
    "coupling_to_csv",
    "coupling_summary",
]

NORMALIZATION_TOL = 1e-12
EIG_MATCH_REL = 1e-6
MAX_JOINT_DIM = 10 ** 6


@dataclass(frozen=True)
class CouplingModel:
    """Grid-sampled coupling data shared by the oracle and the simulators.

    The fields are the independent inputs: the stationary weights and the
    spectral modes on the grid, the chain generator Q with its scaled
    eigenvectors, and the chain's initial law p. Everything else is derived
    from them on first access and cached, so a model made with
    dataclasses.replace is consistent by construction:
    tilts[i] is the density tilt of chain state i against the stationary
    weights; jump_rates[i, j] is the state-dependent i -> j rate vector;
    cond[i] = tilts[i] * weights is the conditional law of the continuous
    coordinate given chain state i. build_coupling gates that the tilts are
    strictly positive and each row of cond sums to one; a replaced model is
    not gated again, which is what lets a negative control break either.
    """

    grid_nodes: np.ndarray
    weights: np.ndarray
    modes: np.ndarray            # (m, n) spectral modes 1..m
    Q: np.ndarray
    vectors: np.ndarray          # (m, m+1) scaled chain eigenvectors
    p: np.ndarray
    eps: float

    @cached_property
    def tilts(self) -> np.ndarray:
        """(m+1, n) tilts 1 + sum_k vectors[k, i] * modes[k]."""
        return 1.0 + self.vectors.T @ self.modes

    @cached_property
    def jump_rates(self) -> np.ndarray:
        """(m+1, m+1, n) rates Q_ij * tilt_j / tilt_i, diagonal zero."""
        q = self.Q[:, :, None] * self.tilts[None] / self.tilts[:, None]
        states = np.arange(self.n_states)
        q[states, states] = 0.0
        return q

    @cached_property
    def cond(self) -> np.ndarray:
        """(m+1, n) conditional laws tilts * weights."""
        return self.tilts * self.weights

    @cached_property
    def cond_cdfs(self) -> np.ndarray:
        """(m+1, n) cumulative sums of each conditional law, divided by
        their last entry: the tables sample_initial inverts."""
        cum = np.cumsum(self.cond, axis=1)
        return cum / cum[:, -1:]

    @cached_property
    def min_alpha(self) -> float:
        return float(self.tilts.min())

    @property
    def n_states(self) -> int:
        return self.Q.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.grid_nodes)

    @property
    def joint_dim(self) -> int:
        return self.n_states * self.n_nodes

    def state_law(self) -> np.ndarray:
        """p as a float array, checked to be a distribution on the chain
        states (sum within 1e-12 of one)."""
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.n_states,) or abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
            raise ValueError("p must be a distribution on the chain states")
        return p

    def initial_law_for(self) -> np.ndarray:
        """(m+1, n) coupled initial law: p_i times state i's conditional law."""
        return self.state_law()[:, None] * self.cond


def build_coupling(dec: SpectralDecomposition, spec: ChainSpec) -> CouplingModel:
    """The coupling model of a decomposition and a chain with matching
    eigenvalues, gated on tilt positivity and conditional normalization.

    The conditional normalizations are verified to 1e-12 and never repaired:
    a failure here means the upstream quadrature (the signed-weight sums) is
    broken, which must surface, not be hidden.
    """
    m = spec.n_states - 1
    if dec.m < m:
        raise CouplingError("decomposition provides fewer modes than chain states")
    lam_dec = dec.eigenvalues[1:m + 1]
    rel = np.abs(lam_dec - spec.rates) / np.maximum(spec.rates, 1e-300)
    if np.max(rel, initial=0.0) > EIG_MATCH_REL:
        raise CouplingError(
            f"chain and decomposition eigenvalues differ by relative "
            f"{np.max(rel):.2e} (> {EIG_MATCH_REL:.0e})")

    model = CouplingModel(
        grid_nodes=dec.grid.nodes, weights=dec.weights, modes=dec.modes[1:m + 1],
        Q=spec.Q.copy(), vectors=spec.vectors.copy(), p=spec.p.copy(), eps=dec.eps)
    if model.min_alpha <= 0:
        raise CouplingError(
            f"tilt positivity violated (min {model.min_alpha:.3e}); eigenvector "
            "scaling is inconsistent with the modes")
    norms = model.cond.sum(axis=1)
    if np.max(np.abs(norms - 1.0)) > NORMALIZATION_TOL:
        raise CouplingError(
            f"conditional normalization off by {np.max(np.abs(norms - 1.0)):.3e}; "
            "renormalization is forbidden -- fix the upstream quadrature")
    return model


class Pipeline(NamedTuple):
    """Every stage of one noise level, potential through coupling model."""

    potential: Potential
    gen: DiscreteGenerator
    dec: SpectralDecomposition
    spec: ChainSpec
    model: CouplingModel


def build_pipeline(potential, eps: float, n: int, *, L=None, kappa: float = 0.9,
                   theta: float = 0.5, p=None, Q=None,
                   maximize: bool = False) -> Pipeline:
    """Potential (a Potential, or a preset name or coefficient list for
    make_potential) through coupling model on an
    n-node grid of half-width L (auto-sized if None).

    The decomposition keeps m = max(wells - 1, 1) modes, signed positive at
    the leftmost minimum. Unless Q is given, the chain is
    synth_generator's: the reflection-symmetric birth-death chain with the
    modes' eigenvalues, whose one rate theta splits when there is one mode.
    Its eigenvectors are scaled by kappa (a budget that keeps every
    tilt >= 1 - kappa, or the fraction kappa of the exact positivity boundary
    if maximize), and its initial law p defaults to uniform.

    Raises:
        ValueError: an explicit Q is not (m+1) x (m+1), has a negative
            off-diagonal entry, or has a row sum that is not zero (within
            validate_chain's tolerance).
        ChainSynthesisError (exit 2): an explicit Q has no eigenvalue within
            relative 1e-6 of some -lambda_k of the decomposition.
    """
    if not isinstance(potential, Potential):
        potential = make_potential(potential)
    m = max(potential.n_wells - 1, 1)
    if Q is not None:
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (m + 1, m + 1):
            raise ValueError(f"Q has shape {Q.shape}; a potential with "
                             f"{potential.n_wells} wells needs {(m + 1, m + 1)}")
        if not (offdiagonal_nonnegative(Q) and row_sums_zero(Q)):
            raise ValueError("Q is not a generator: it needs nonnegative off-diagonal "
                             "entries and zero row sums")
    gen = build_generator(potential, eps, auto_grid(potential, eps, n=n, L=L))
    dec = decompose(gen, m)
    lams = dec.eigenvalues[1:]
    if Q is None:
        Q = synth_generator(lams, theta=theta)
    vectors, scales, min_alpha = scaled_eigenvectors(Q, lams, dec.modes[1:],
                                                     kappa=kappa, maximize=maximize)
    p = np.full(m + 1, 1.0 / (m + 1)) if p is None else np.asarray(p, dtype=float)
    spec = ChainSpec(Q=Q, rates=lams.copy(), vectors=vectors, scales=scales, p=p,
                     min_alpha_bound=min_alpha, theta=theta if m == 1 else None)
    return Pipeline(potential, gen, dec, spec, build_coupling(dec, spec))


def build_joint_generator(model: CouplingModel, gen: DiscreteGenerator) -> sp.csr_matrix:
    """Sparse generator on product states (node, chain state), flat index
    state*n + node: one diffusion block per chain state plus node-diagonal
    jump entries. Row sums vanish by construction."""
    n = model.n_nodes
    m1 = model.n_states
    if model.joint_dim > MAX_JOINT_DIM:
        raise CouplingError(f"joint dimension {model.joint_dim} exceeds {MAX_JOINT_DIM}")
    if n != gen.n:
        raise CouplingError("coupling model and generator use different grids")

    rows, cols, vals = [], [], []
    idx = np.arange(n)
    for i in range(m1):
        base = i * n
        rows.append(base + idx[:-1]); cols.append(base + idx[1:]); vals.append(gen.birth[:-1])
        rows.append(base + idx[1:]); cols.append(base + idx[:-1]); vals.append(gen.death[1:])
        for j in range(m1):
            if j != i:
                rows.append(base + idx); cols.append(j * n + idx)
                vals.append(model.jump_rates[i, j])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    b = sp.coo_matrix((vals, (rows, cols)), shape=(m1 * n, m1 * n)).tocsr()
    b.setdiag(-np.asarray(b.sum(axis=1)).ravel())
    return b.tocsr()


def initial_uniforms(gens) -> np.ndarray:
    """The draw step of sample_initial: (len(gens), 3) uniforms, three from
    each stream in the order (state, cell, jitter), one row per stream."""
    u = np.empty((len(gens), 3))
    for g, row in zip(gens, u):
        g.random(out=row)
    return u


def sample_initial(model: CouplingModel, rng):
    """Draw (x0, y0) from the model's joint initial law: the chain state
    from model.p, then the continuous coordinate by inverse CDF over that
    state's conditional density with a uniform within-cell jitter of one
    grid spacing.

    rng is one stream, or the (n, 3) uniforms initial_uniforms drew from n
    streams, which the draws of several models can share; every draw
    consumes exactly three uniforms from its stream, in the order (state,
    cell, jitter). Returns (x0, y0), or for uniforms the arrays of them,
    elementwise the values one stream at a time gives."""
    p = model.state_law()
    single = isinstance(rng, np.random.Generator)
    u = initial_uniforms([rng]) if single else rng
    # the map step: state, cell and jitter from the uniforms
    y0 = np.searchsorted(np.cumsum(p), u[:, 0], side="right")
    np.minimum(y0, model.n_states - 1, out=y0)
    cell = np.empty(len(u), dtype=np.int64)
    for j in range(model.n_states):
        sel = y0 == j
        cell[sel] = np.searchsorted(model.cond_cdfs[j], u[sel, 1], side="right")
    np.minimum(cell, model.n_nodes - 1, out=cell)
    h = model.grid_nodes[1] - model.grid_nodes[0]
    x0 = model.grid_nodes[cell] + (u[:, 2] - 0.5) * h
    if single:
        return float(x0[0]), int(y0[0])
    return x0, y0


def conditional_density(model: CouplingModel, j: int) -> np.ndarray:
    """Reference law of the continuous coordinate given chain state j; sums
    to one up to 1e-12 and is used by every conditional-law test."""
    if not 0 <= j < model.n_states:
        raise ValueError("state out of range")
    return model.cond[j].copy()


def coupling_to_csv(model: CouplingModel, path):
    m = model.n_states - 1
    header = (["x", "weight"]
              + [f"mode_{k}" for k in range(1, m + 1)]
              + [f"tilt_{i}" for i in range(m + 1)]
              + [f"rate_{i}{j}" for i in range(m + 1) for j in range(m + 1) if i != j])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ell in range(model.n_nodes):
            row = [f"{model.grid_nodes[ell]:.12g}", f"{model.weights[ell]:.12g}"]
            row += [f"{model.modes[k, ell]:.12g}" for k in range(m)]
            row += [f"{model.tilts[i, ell]:.12g}" for i in range(m + 1)]
            row += [f"{model.jump_rates[i, j, ell]:.12g}"
                    for i in range(m + 1) for j in range(m + 1) if i != j]
            writer.writerow(row)


def coupling_summary(model: CouplingModel, path=None):
    m = model.n_states - 1
    payload = {
        "min_alpha": model.min_alpha,
        "eps": model.eps,
        "joint_dim": model.joint_dim,
        "rate_sup_norms": {f"{i}->{j}": float(np.max(model.jump_rates[i, j]))
                           for i in range(m + 1) for j in range(m + 1) if i != j},
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
    return payload
