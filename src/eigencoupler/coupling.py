"""Assembly of the coupled objects: positive tilt functions, state-dependent
jump rates, the joint generator on grid x chain states, initial laws, and the
conditional densities used as the reference law in every verification.

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

import numpy as np
import scipy.sparse as sp

from .chain import ChainSpec
from .errors import CouplingError
from .spectral import DiscreteGenerator, SpectralDecomposition

__all__ = [
    "CouplingModel",
    "build_coupling",
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

    tilts[i] is the strictly positive density tilt of chain state i against
    the stationary weights; jump_rates[i, j] is the state-dependent i -> j
    rate vector; cond[i] = tilts[i] * weights is the conditional law of the
    continuous coordinate given chain state i (each row sums to one);
    initial_law[i] = p[i] * cond[i] is the joint initial distribution.
    """

    grid_nodes: np.ndarray
    weights: np.ndarray
    modes: np.ndarray            # (m, n) spectral modes 1..m
    rates: np.ndarray            # decay rates lambda_1..lambda_m
    Q: np.ndarray
    vectors: np.ndarray          # (m, m+1) scaled chain eigenvectors
    p: np.ndarray
    tilts: np.ndarray            # (m+1, n)
    jump_rates: np.ndarray       # (m+1, m+1, n), diagonal zero
    cond: np.ndarray             # (m+1, n)
    initial_law: np.ndarray      # (m+1, n)
    eps: float
    min_alpha: float

    @property
    def n_states(self) -> int:
        return self.Q.shape[0]

    @property
    def n_nodes(self) -> int:
        return len(self.grid_nodes)

    @property
    def joint_dim(self) -> int:
        return self.n_states * self.n_nodes

    def initial_law_for(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n_states,) or abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
            raise ValueError("p must be a distribution on the chain states")
        return p[:, None] * self.cond


def _tilts_from(vectors: np.ndarray, modes: np.ndarray) -> np.ndarray:
    return 1.0 + vectors.T @ modes


def build_coupling(dec: SpectralDecomposition, spec: ChainSpec) -> CouplingModel:
    """Tilts, rates, conditionals, and initial law from a decomposition and a
    chain with matching eigenvalues.

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

    modes = dec.modes[1:m + 1]
    tilts = _tilts_from(spec.vectors, modes)
    min_alpha = float(tilts.min())
    if min_alpha <= 0:
        raise CouplingError(
            f"tilt positivity violated (min {min_alpha:.3e}); eigenvector "
            "scaling is inconsistent with the modes")

    cond = tilts * dec.weights
    norms = cond.sum(axis=1)
    if np.max(np.abs(norms - 1.0)) > NORMALIZATION_TOL:
        raise CouplingError(
            f"conditional normalization off by {np.max(np.abs(norms - 1.0)):.3e}; "
            "renormalization is forbidden -- fix the upstream quadrature")

    n = len(dec.weights)
    q = np.zeros((m + 1, m + 1, n))
    for i in range(m + 1):
        for j in range(m + 1):
            if i != j:
                q[i, j] = spec.Q[i, j] * tilts[j] / tilts[i]

    return CouplingModel(
        grid_nodes=dec.grid.nodes, weights=dec.weights, modes=modes,
        rates=spec.rates.copy(), Q=spec.Q.copy(), vectors=spec.vectors.copy(),
        p=spec.p.copy(), tilts=tilts, jump_rates=q, cond=cond,
        initial_law=spec.p[:, None] * cond, eps=dec.eps, min_alpha=min_alpha)


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


def sample_initial(model: CouplingModel, p, rng):
    """Draw (x0, y0) from the joint initial law: the chain state from p, then
    the continuous coordinate by inverse CDF over that state's conditional
    density with a uniform within-cell jitter of one grid spacing.

    Consumes exactly three uniforms from rng, in the order (state, cell,
    jitter)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (model.n_states,) or abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
        raise ValueError("p must be a distribution on the chain states")
    u = rng.random(3)
    cum_p = np.cumsum(p)
    y0 = int(np.searchsorted(cum_p, u[0], side="right"))
    y0 = min(y0, model.n_states - 1)
    cond = model.cond[y0]
    cum = np.cumsum(cond)
    cell = int(np.searchsorted(cum / cum[-1], u[1], side="right"))
    cell = min(cell, model.n_nodes - 1)
    h = model.grid_nodes[1] - model.grid_nodes[0]
    x0 = float(model.grid_nodes[cell] + (u[2] - 0.5) * h)
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
