"""Discretization of the diffusion generator eps*f'' - F'*f' on a truncated
grid and computation of its low-lying spectrum by two independent routes.

Route 1 (authoritative for the coupling): a birth-death generator with
exponential-of-midpoint-difference rates, reversible with respect to the
discrete Gibbs weights at any spacing. Route 2 (cross-check): the standard
three-point discretization of the similarity-transformed operator
-d^2/dx^2 + V with V = |F'|^2/(4 eps^2) - F''/(2 eps) and Dirichlet ends.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import GridError, TruncationError
from .potential import Potential
from .tridiag import edge_factor_eigenvalues, eigensolve_edge_factor, tridiagonal_eigenvalues

__all__ = [
    "Grid",
    "DiscreteGenerator",
    "SpectralDecomposition",
    "auto_grid",
    "build_generator",
    "build_schrodinger",
    "decompose",
    "generator_eigenvalues",
    "decomposition_to_csv",
    "eigenvalues_to_json",
]

TAIL_BOUND = 1e-12
ZERO_EIG_REL_TOL = 1e-8


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n nodes on [-L, L]."""

    L: float
    n: int

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n)

    def validate(self, potential: Potential, eps: float):
        """Truncation-safety invariants required by the pipeline."""
        if self.n < 3:
            raise GridError("grid needs at least 3 nodes")
        f = potential.value(self.nodes)
        fmin = float(np.min(f))
        tail = np.exp(-(potential.value(np.array([-self.L, self.L])) - fmin) / eps)
        if np.max(tail) > TAIL_BOUND:
            raise GridError(
                f"stationary tail {np.max(tail):.2e} at the boundary exceeds "
                f"{TAIL_BOUND:.0e}; enlarge L")
        crits = np.concatenate((potential.minima, potential.maxima))
        if crits.size and (np.min(crits) <= -self.L or np.max(crits) >= self.L):
            raise GridError("all critical points must lie strictly inside (-L, L)")
        return self


def auto_grid(potential: Potential, eps: float, n: int = 2000, L=None) -> Grid:
    """Grid with the smallest half-width satisfying the tail invariant (or a
    validated explicit L)."""
    if L is not None:
        return Grid(float(L), int(n)).validate(potential, eps)
    crits = np.concatenate((potential.minima, potential.maxima))
    lo = float(np.max(np.abs(crits))) if crits.size else 0.0
    fmin = float(np.min(potential.value(np.linspace(-lo - 1, lo + 1, 1001))))
    target = -eps * np.log(TAIL_BOUND)  # required barrier F(+-L) - Fmin

    def tail_ok(L):
        return (potential.value(-L) - fmin >= target and
                potential.value(L) - fmin >= target)

    hi = lo + 1.0
    while not tail_ok(hi):
        hi *= 1.5
    lo_search = lo
    for _ in range(60):
        mid = 0.5 * (lo_search + hi)
        if tail_ok(mid):
            hi = mid
        else:
            lo_search = mid
    # small inflation so the validated invariant holds strictly
    return Grid(hi * (1.0 + 1e-3) + 1e-9, int(n)).validate(potential, eps)


@dataclass(frozen=True)
class DiscreteGenerator:
    """Reversible birth-death generator on the grid.

    birth[i] is the i -> i+1 rate, death[i] the i -> i-1 rate (both 1/time,
    reflecting ends: birth[n-1] = death[0] = 0). weights is the stationary
    probability vector, in detailed balance with the rates by construction.
    """

    grid: Grid
    eps: float
    birth: np.ndarray
    death: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n

    def tridiagonal(self):
        """(diag, lower, upper) of the generator acting on functions."""
        return -(self.birth + self.death), self.death[1:], self.birth[:-1]

    def edge_factor(self):
        """(diag, superdiag) of the (n-1) x n bidiagonal G with
        G^T G = D^{1/2} (-A) D^{-1/2}, D = diag(weights).

        Row j of G is the edge j -> j+1: -sqrt(birth[j]) at column j and
        sqrt(death[j+1]) at column j+1. G annihilates sqrt(weights) (detailed
        balance), so the symmetrized generator has an exact null vector.
        """
        return -np.sqrt(self.birth[:-1]), np.sqrt(self.death[1:])

    def max_exit_rate(self) -> float:
        return float(np.max(self.birth + self.death))


def build_generator(potential: Potential, eps: float, grid: Grid) -> DiscreteGenerator:
    """Discrete generator with rates (eps/h^2) * exp(-+dF/(2 eps)).

    Reversible w.r.t. weights proportional to exp(-F/eps) at any h, and
    consistent with eps*f'' - F'*f' to O(h^2). Exponents are taken relative
    to min F to avoid overflow.

    Raises:
        GridError: fewer than 2 nodes, or a Gibbs weight that is 0 or not
            finite in float64, which decompose would divide by.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if grid.n < 2:
        raise GridError("need at least 2 nodes")
    x = grid.nodes
    f = potential.value(x)
    scale = eps / grid.h ** 2
    birth = np.zeros(grid.n)
    death = np.zeros(grid.n)
    # a rate or weight that over- or underflows is caught below, once
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        birth[:-1] = scale * np.exp(-(f[1:] - f[:-1]) / (2 * eps))
        death[1:] = scale * np.exp(-(f[:-1] - f[1:]) / (2 * eps))
        # accumulate the Gibbs weights from the deepest node via the rate
        # ratios: detailed balance then holds to a couple of ulp at any tail
        # depth, whereas exp(-(F - Fmin)/eps) alone loses (F - Fmin)/eps ulps
        i0 = int(np.argmin(f))
        w = np.empty(grid.n)
        w[i0] = 1.0
        if i0 + 1 < grid.n:
            w[i0 + 1:] = np.cumprod(birth[i0:-1] / death[i0 + 1:])
        if i0 > 0:
            w[:i0] = np.cumprod(death[i0:0:-1] / birth[i0 - 1::-1])[::-1]
        w /= w.sum()
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if bad.size:
        raise GridError(
            f"Gibbs weight exp(-F/eps) is {w[bad[0]]:g} at x = {x[bad[0]]:.4g}: "
            f"the grid reaches further into the tails than float64 resolves at "
            f"eps = {eps:g}; narrow the grid (grid.L) or raise eps")
    return DiscreteGenerator(grid=grid, eps=eps, birth=birth, death=death, weights=w)


def build_schrodinger(potential: Potential, eps: float, grid: Grid):
    """Dirichlet three-point discretization of -d^2/dx^2 + V on the interior
    nodes, V = |F'|^2/(4 eps^2) - F''/(2 eps).

    Returns (diag, offdiag); eigenvalues scale as lambda / eps relative to the
    generator route.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = grid.nodes[1:-1]
    h = grid.h
    v = potential.grad(x) ** 2 / (4 * eps ** 2) - potential.hess(x) / (2 * eps)
    diag = 2.0 / h ** 2 + v
    offdiag = np.full(len(x) - 1, -1.0 / h ** 2)
    return diag, offdiag


def schrodinger_eigenvalues(potential: Potential, eps: float, grid: Grid, k: int):
    """The k smallest eigenvalues of build_schrodinger's matrix."""
    return tridiagonal_eigenvalues(*build_schrodinger(potential, eps, grid), k)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Low-lying spectrum of the discrete generator.

    eigenvalues are 0 = lambda_0 < lambda_1 <= ... (1/time). modes has one
    eigenfunction per row, unit norm in L^2(weights), with modes[0] identically
    one. signed_weights[k] = modes[k] * weights sums to zero for k >= 1.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    weights: np.ndarray
    grid: Grid
    eps: float

    @property
    def m(self) -> int:
        return len(self.eigenvalues) - 1

    @property
    def signed_weights(self) -> np.ndarray:
        return self.modes * self.weights


def _leftmost_weight_peak(w: np.ndarray) -> int:
    """Node of the leftmost local maximum of the stationary weights, i.e. the
    leftmost potential minimum. Tie-breaking by argmax alone would let
    floating-point rounding pick a side between symmetric wells."""
    grad_up = np.concatenate(([True], w[1:] > w[:-1]))
    grad_dn = np.concatenate((w[:-1] >= w[1:], [True]))
    peaks = np.nonzero(grad_up & grad_dn)[0]
    return int(peaks[0]) if peaks.size else int(np.argmax(w))


def _pin_zero_eigenvalue(values: np.ndarray) -> np.ndarray:
    """The generator's eigenvalues with lambda_0 stored as exactly zero.

    Raises:
        TruncationError: the computed smallest eigenvalue deviates from zero
            by more than 1e-8 * lambda_1.
    """
    if len(values) > 1 and abs(values[0]) > ZERO_EIG_REL_TOL * values[1]:
        raise TruncationError(
            f"smallest eigenvalue {values[0]:.3e} is not numerically zero "
            f"relative to lambda_1 = {values[1]:.3e}; grid too coarse or "
            "truncation too tight")
    eigenvalues = values.copy()
    eigenvalues[0] = 0.0
    return eigenvalues


def generator_eigenvalues(gen: DiscreteGenerator, m: int) -> np.ndarray:
    """decompose(gen, m).eigenvalues, bit for bit and under the same
    TruncationError, without the eigenvectors.

    Raises:
        TruncationError: as decompose.
    """
    return _pin_zero_eigenvalue(edge_factor_eigenvalues(*gen.edge_factor(), m + 1))


def decompose(gen: DiscreteGenerator, m: int) -> SpectralDecomposition:
    """The m+1 smallest eigenpairs of the generator.

    Symmetrizes by similarity with sqrt(weights) into S = G^T G, G the
    bidiagonal edge factor, eigensolves, and maps back. The eigenvalues are
    the squared singular values of G, accurate relative to their own size
    however small lambda_1 is against ||S||. The zero mode is pinned
    exactly: sqrt(weights) is an exact null vector of S, so every excited
    eigenvector is explicitly projected against it, mode 0 is stored as the
    constant one, and eigenvalue 0 is stored exactly after the consistency
    check.

    Sign convention: modes[k] is positive at the node of the leftmost
    potential minimum, located as the leftmost peak of the weights; if within
    1e-12 of zero there, the first nonzero entry from the left is positive.

    Raises:
        TruncationError: the computed smallest eigenvalue deviates from zero
            by more than 1e-8 * lambda_1.
    """
    n = gen.n
    if m + 1 > n:
        raise ValueError("m+1 eigenpairs requested from an n-state generator")
    values, vectors = eigensolve_edge_factor(*gen.edge_factor(), m + 1)
    eigenvalues = _pin_zero_eigenvalue(values)

    u = np.sqrt(gen.weights)
    u /= np.linalg.norm(u)
    modes = np.empty((m + 1, n))
    modes[0] = 1.0
    sqrt_w = np.sqrt(gen.weights)
    for k in range(1, m + 1):
        v = vectors[:, k]
        v = v - (u @ v) * u          # exact deflation of the known null vector
        v /= np.linalg.norm(v)
        modes[k] = v / sqrt_w

    node = _leftmost_weight_peak(gen.weights)
    for k in range(1, m + 1):
        ref = modes[k, node]
        if abs(ref) <= 1e-12:
            nz = np.nonzero(np.abs(modes[k]) > 1e-12)[0]
            ref = modes[k, nz[0]] if nz.size else 1.0
        if ref < 0:
            modes[k] = -modes[k]
    return SpectralDecomposition(eigenvalues=eigenvalues, modes=modes,
                                 weights=gen.weights, grid=gen.grid, eps=gen.eps)


def decomposition_to_csv(dec: SpectralDecomposition, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "weight"] + [f"mode_{k}" for k in range(dec.m + 1)])
        for i, x in enumerate(dec.grid.nodes):
            writer.writerow([f"{x:.12g}", f"{dec.weights[i]:.12g}"]
                            + [f"{dec.modes[k, i]:.12g}" for k in range(dec.m + 1)])


def eigenvalues_to_json(dec: SpectralDecomposition, path=None,
                        schrodinger_eigenvalues=None):
    """The eigenvalues of dec and, when given, the route-2 values (lambda/eps
    units) with their eps-scaled copies."""
    payload = {
        "eps": dec.eps,
        "grid": {"L": dec.grid.L, "n": dec.grid.n},
        "eigenvalues": dec.eigenvalues.tolist(),
    }
    if schrodinger_eigenvalues is not None:
        payload["schrodinger_eigenvalues"] = schrodinger_eigenvalues.tolist()
        payload["scaled_schrodinger_eigenvalues"] = (
            (dec.eps * schrodinger_eigenvalues).tolist())
    if path is None:
        return payload
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return payload
