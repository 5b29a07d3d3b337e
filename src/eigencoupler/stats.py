"""Estimators and hypothesis checks over path ensembles: exit-time laws,
conditional histograms, tracking probabilities, and the rate-match table.

Everything here is a deterministic function of the ensembles' columns and
the parameters; re-running on the same ensemble reproduces the reports bit
for bit. The tracking and rate diagnostics report trends and ratios only --
the asymptotic claims they probe depend on how the coupling family is
chosen across noise levels, which is outside this package's scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingModel
from .oracle import mean_exit_times
from .potential import DomainPartition
from .simulate import Ensemble, _first_x_hits, _x_interval

__all__ = [
    "EstimateWithCI",
    "ks_exponential",
    "tracking_probability",
    "rate_match_report",
    "exact_exit_times",
    "tv_distance",
    "KSResult",
    "RateMatchReport",
]


@dataclass(frozen=True)
class EstimateWithCI:
    point: float
    se: float
    n: int

    @property
    def interval(self):
        return (self.point - 1.96 * self.se, self.point + 1.96 * self.se)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    critical_standard: float      # 1.358 / sqrt(n), 5% level, known-parameter null
    critical_bootstrap: float     # parametric bootstrap, mean-estimated null
    n: int
    rate: float                   # fitted 1 / sample mean

    @property
    def rejected(self) -> bool:
        return self.statistic > self.critical_bootstrap


def _ks_statistic_exponential(samples: np.ndarray, rate: float) -> float:
    s = np.sort(samples)
    n = len(s)
    cdf = 1.0 - np.exp(-rate * s)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_exponential(samples, n_bootstrap: int = 2000, seed: int = 2024) -> KSResult:
    """Kolmogorov-Smirnov test of the samples against the exponential law
    with the sample-mean rate.

    Estimating the rate from the data invalidates the textbook critical
    value, so both it and a parametric-bootstrap critical value (rate
    re-estimated per resample) are reported; the bootstrap one decides
    `rejected`.
    """
    samples = np.asarray(samples, dtype=float)
    if len(samples) < 30:
        raise ValueError("need at least 30 samples")
    if np.any(samples <= 0):
        raise ValueError("exponential samples must be positive")
    rate = 1.0 / float(np.mean(samples))
    stat = _ks_statistic_exponential(samples, rate)
    n = len(samples)
    rng = np.random.default_rng(seed)
    boot = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        resample = rng.standard_exponential(n) / rate
        boot[b] = _ks_statistic_exponential(resample, 1.0 / float(np.mean(resample)))
    return KSResult(statistic=stat,
                    critical_standard=1.358 / np.sqrt(n),
                    critical_bootstrap=float(np.quantile(boot, 0.95)),
                    n=n, rate=rate)


def tracking_probability(ensemble: Ensemble, partition: DomainPartition, t: float,
                         model: CouplingModel):
    """Per-state tracking estimates P(X(t) in D_j | Y(t) = j) with binomial
    standard errors, next to the exact model value (the conditional mass of
    D_j under state j's reference law). t must be a stored time.

    Returns a dict state -> (EstimateWithCI | None, oracle_value); the
    estimate is None when no path occupies the state at time t.
    """
    m1 = model.n_states
    ys = ensemble.y_at(t)
    xs = ensemble.x_at_stored(t)
    located = partition.locate(xs)
    out = {}
    for j in range(m1):
        nodes_in = _nodes_in_interval(model.grid_nodes, partition.intervals[j])
        oracle_value = float(model.cond[j][nodes_in].sum())
        sel = ys == j
        n_j = int(sel.sum())
        if n_j == 0:
            out[j] = (None, oracle_value)
            continue
        hits = int((located[sel] == j).sum())
        p_hat = hits / n_j
        se = np.sqrt(p_hat * (1.0 - p_hat) / n_j)
        out[j] = (EstimateWithCI(point=p_hat, se=float(se), n=n_j), oracle_value)
    return out


def _nodes_in_interval(nodes: np.ndarray, interval) -> np.ndarray:
    lo, hi = interval
    return (nodes > lo) & (nodes < hi)


@dataclass(frozen=True)
class RateMatchReport:
    rows: tuple
    rho: float
    note: str

    def to_json(self) -> dict:
        return {
            "rho": self.rho,
            "note": self.note,
            "rows": [dict(r) for r in self.rows],
        }

    def to_text(self) -> str:
        header = (f"{'i->j':>6} {'chain_exact':>14} {'mc_estimate':>14} "
                  f"{'mc_se':>10} {'diffusion_exact':>16} {'ratio':>10} {'censored':>9}")
        lines = [header]
        for r in self.rows:
            mc = "n/a" if r["mc_estimate"] is None else f"{r['mc_estimate']:14.6g}"
            se = "n/a" if r["mc_se"] is None else f"{r['mc_se']:10.3g}"
            lines.append(
                f"{r['from']:>3}->{r['to']:<2} {r['chain_exact']:14.6g} {mc:>14} "
                f"{se:>10} {r['diffusion_exact']:16.6g} {r['ratio']:10.4g} "
                f"{r['censored']:>9}")
        return "\n".join(lines)


def rate_match_report(ensembles: dict, chain_Q: np.ndarray,
                      partition: DomainPartition, rho: float,
                      gen, minima: np.ndarray) -> RateMatchReport:
    """Exit-time comparison table between the chain and the diffusion.

    ensembles maps a source state i to an Ensemble started at the minimum x_i;
    for each ordered pair (i, j) the table holds the exact chain hitting time
    E^i[tau_j] (linear solve on Q), the Monte Carlo estimate of the diffusion
    hitting time of the rho-ball around x_j with its CI, the exact value for
    the discretized diffusion (linear solve on the grid generator), and the
    ratio chain/diffusion. Censored paths produce a flagged lower bound, not
    an estimate. No pass/fail is attached: how the two columns relate as the
    noise vanishes is a property of the coupling family, not of one run.
    """
    m1 = chain_Q.shape[0]
    if not all(_ball_inside(minima[j], rho, partition.intervals[j]) for j in range(m1)):
        raise ValueError("rho-ball is not contained in its domain of attraction")
    exact = exact_exit_times(chain_Q, gen, minima, rho)
    rows = []
    for i in sorted(ensembles):
        ens = ensembles[i]
        targets = [j for j in range(m1) if j != i]
        balls = [_x_interval((minima[j] - rho, minima[j] + rho)) for j in targets]
        # every target's first hits from one pass over the source's rows
        taus = np.full((len(targets), len(ens)), np.nan)
        for a, b in ens.row_chunks():
            chunk = ens.rows(a, b)
            for tau, (lo, hi) in zip(taus, balls):
                path, times = _first_x_hits(chunk, lo, hi)
                tau[a + path] = times
        for j, tau in zip(targets, taus):
            chain_exact, diffusion_exact = exact[i, j]
            censored = np.isnan(tau)
            hit = tau[~censored]
            n_censored = int(np.count_nonzero(censored))
            if len(hit) == 0:
                # a path's last time: its exit time if absorbed, else T
                horizon = float(np.max(np.where(np.isnan(ens.exit_time), ens.times[-1],
                                                ens.exit_time)))
                rows.append({"from": i, "to": j, "chain_exact": chain_exact,
                             "mc_estimate": None, "mc_se": None,
                             "mc_lower_bound": horizon,
                             "diffusion_exact": diffusion_exact,
                             "ratio": chain_exact / diffusion_exact,
                             "censored": n_censored})
                continue
            point = float(np.mean(hit))
            se = float(np.std(hit, ddof=1) / np.sqrt(len(hit))) if len(hit) > 1 else 0.0
            rows.append({"from": i, "to": j, "chain_exact": chain_exact,
                         "mc_estimate": point, "mc_se": se,
                         "mc_n": int(len(hit)),
                         "diffusion_exact": diffusion_exact,
                         "ratio": chain_exact / diffusion_exact,
                         "censored": n_censored})
    note = ("diffusion target reads the ball around the destination minimum x_j; "
            "the source-minimum reading of the asymptotic rate comparison is "
            "ambiguous in its original statement and is not hard-coded")
    return RateMatchReport(rows=tuple(rows), rho=rho, note=note)


def exact_exit_times(chain_Q: np.ndarray, gen, minima: np.ndarray, rho: float) -> dict:
    """The exact mean exit times of the chain and of the diffusion for every
    ordered pair of chain states: {(i, j): (chain, diffusion)}, i != j.

    chain is the chain's E^i[tau_j] (a linear solve on chain_Q); diffusion is
    the hitting time of the grid nodes in the rho-ball around the minimum
    x_j from the node nearest x_i (a linear solve on the grid generator).
    """
    m1 = chain_Q.shape[0]
    nodes = gen.grid.nodes
    table = {}
    for i in range(m1):
        source_node = int(np.argmin(np.abs(nodes - minima[i])))
        for j in range(m1):
            if j == i:
                continue
            target_nodes = np.nonzero((nodes >= minima[j] - rho) & (nodes <= minima[j] + rho))[0]
            table[i, j] = (float(mean_exit_times(chain_Q, [i], [j])[0]),
                           float(mean_exit_times(gen, [source_node], target_nodes)[0]))
    return table


def _ball_inside(center: float, rho: float, interval) -> bool:
    lo, hi = interval
    return lo < center - rho and center + rho < hi


def tv_distance(samples, reference: np.ndarray, grid_nodes: np.ndarray,
                bins: int = 50) -> float:
    """Total variation between the binned empirical law of the samples and a
    reference probability vector living on the grid.

    Both are binned on `bins` equal cells covering the grid range; samples
    outside the range are clipped into the end cells.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples")
    lo, hi = float(grid_nodes[0]), float(grid_nodes[-1])
    edges = np.linspace(lo, hi, bins + 1)
    emp = np.histogram(np.clip(samples, lo, hi), bins=edges)[0] / samples.size
    idx = np.clip(np.searchsorted(edges, grid_nodes, side="right") - 1, 0, bins - 1)
    ref = np.zeros(bins)
    np.add.at(ref, idx, reference)
    ref = ref / ref.sum()
    return 0.5 * float(np.abs(emp - ref).sum())
