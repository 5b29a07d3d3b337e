"""Config-driven command line: builds the pipeline and emits reports, CSV
data, and SVG plots.

    eigencoupler <spectrum|synth|oracle|simulate|verify|sweep>
                 --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]

Exit codes: 0 success, 1 validation problem, 2 numerical failure (running
out of memory included), 3 verification-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from statistics import NormalDist

try:
    import resource
except ImportError:         # not on every platform
    resource = None

import numpy as np
import scipy
from scipy.linalg import expm

from . import __version__
from .chain import validate_chain
from .config import ExperimentConfig, apply_overrides, parse_config
from .coupling import (Pipeline, build_joint_generator, build_pipeline, coupling_summary,
                       coupling_table)
from .errors import ConfigError, EigencouplerError, GrowthAssumptionError
from .oracle import check_oracle
from .potential import (Potential, domains_of_attraction, make_potential,
                        require_coupling_ready)
from .simulate import EnsembleConfig, ensemble_chunks, simulate_ensemble, simulate_ensembles
from .spectral import (Grid, auto_grid, build_generator, decompose, decomposition_table,
                       eigenvalues_to_json, generator_eigenvalues, schrodinger_eigenvalues)
from .stats import exact_exit_times, tv_distance, tracking_probability
from . import svgplot

CROSS_ROUTE_N = 4000
CROSS_ROUTE_REL = 1e-4
ORACLE_TOL = 1e-8
MC_TV_BASE = 0.05        # contract at the default 20000 paths
MC_TV_REF_PATHS = 20000


class VerificationFailure(EigencouplerError):
    """One or more checks failed."""


class _Artifacts:
    """The one writer of a command's files under out_dir: every path it
    hands out is recorded, in order, as the manifest's outputs."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.paths = []

    def path(self, name) -> str:
        path = os.path.join(self.out_dir, name)
        self.paths.append(path)
        return path

    def write_json(self, name, payload):
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2)

    def write_csv(self, name, rows):
        with open(self.path(name), "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def _build_pipeline(cfg: ExperimentConfig, potential: Potential, eps: float,
                    n: int) -> Pipeline:
    """The library pipeline for one noise level, configured by cfg, on the
    invocation's one potential, whose critical points and audit are found
    once."""
    require_coupling_ready(potential)
    return build_pipeline(potential, eps, n, L=cfg.grid_L, kappa=cfg.kappa,
                          theta=cfg.theta, p=cfg.chain_p, Q=cfg.explicit_Q,
                          maximize=cfg.maximize_scale)


def _peak_rss_mb(usage) -> float:
    """The process's own peak RSS so far, in MB. On Linux that is VmHWM:
    ru_maxrss keeps, across exec, the high-water mark of the process that
    spawned it. Elsewhere ru_maxrss, which counts KiB, and bytes on macOS."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 2 ** 10, 1)     # kB
    except OSError:             # no /proc
        pass
    unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10
    return round(usage.ru_maxrss / unit, 1)


def _cmd_spectrum(cfg: ExperimentConfig, potential: Potential, out: _Artifacts):
    require_coupling_ready(potential, spectral_only=True,
                           override=cfg.allow_assumption_violation)
    for eps in cfg.epsilons:
        grid = auto_grid(potential, eps, n=cfg.grid_n, L=cfg.grid_L)
        m = max(potential.n_wells - 1, 1) + 2
        dec = decompose(build_generator(potential, eps, grid), m)
        tag = f"eps{eps:g}"
        if "json" in cfg.formats:
            hat = schrodinger_eigenvalues(potential, eps, grid, m + 1)
            out.write_json(f"eigenvalues_{tag}.json",
                           eigenvalues_to_json(dec, schrodinger_eigenvalues=hat))
        if "csv" in cfg.formats:
            out.write_csv(f"decomposition_{tag}.csv", decomposition_table(dec))
        if "svg" in cfg.formats:
            svgplot.line_chart(out.path(f"modes_{tag}.svg"), dec.grid.nodes,
                               {f"mode_{k}": dec.modes[k] for k in range(dec.m + 1)},
                               title=f"generator eigenfunctions, eps={eps:g}",
                               xlabel="x", ylabel="mode value")


def _cmd_synth(cfg: ExperimentConfig, potential: Potential, out: _Artifacts):
    for eps in cfg.epsilons:
        *_, spec, model = _build_pipeline(cfg, potential, eps, cfg.grid_n)
        out.write_json(f"chain_eps{eps:g}.json", spec.to_json())
        if "csv" in cfg.formats:
            out.write_csv(f"coupling_eps{eps:g}.csv", coupling_table(model))
        out.write_json(f"coupling_summary_eps{eps:g}.json", coupling_summary(model))


def _oracle_run(cfg: ExperimentConfig, potential: Potential, eps: float):
    _, gen, _, spec, model = _build_pipeline(cfg, potential, eps, cfg.oracle_n)
    B = build_joint_generator(model, gen)
    t0 = time.time()
    cond, marg = check_oracle(B, model, cfg.oracle_times)
    return {
        "eps": eps,
        "oracle_n": cfg.oracle_n,
        "times": list(cfg.oracle_times),
        "max_tv": cond.max_tv,
        "max_l1": marg.max_l1,
        "tv_entries": [list(e) for e in cond.entries],
        "l1_entries": [list(e) for e in marg.entries],
        "skipped_states": [list(s) for s in cond.skipped],
        "chain": spec.to_json(),
        "runtime_s": round(time.time() - t0, 3),
    }


def _cmd_oracle(cfg: ExperimentConfig, potential: Potential, out: _Artifacts):
    out.write_json("oracle_report.json",
                   {"runs": [_oracle_run(cfg, potential, eps) for eps in cfg.epsilons]})


def _ensemble_config(cfg: ExperimentConfig, ends_only=False) -> EnsembleConfig:
    """The ensemble parameters every noise level of cfg shares. With
    ends_only, x is stored at 0 and T only: sweep and verify read x at T
    alone, and y from the jump log."""
    stride = round(cfg.T / cfg.dt) if ends_only else cfg.store_stride
    return EnsembleConfig(n_paths=cfg.n_paths, dt=cfg.dt, horizon=cfg.T, seed=cfg.seed,
                          store_stride=stride, workers=cfg.threads)


def _write_simulate_csvs(chunks, traj_path, jump_path):
    """The trajectory and jump CSVs of the ensembles chunks, in order, with
    the bytes csv.writer gives for these fields (nothing needs quoting). Each
    chunk is written as it comes, one % call formatting the rows of each
    bounded run of its paths, and each of its stored times formatted once."""
    with open(traj_path, "w", newline="") as traj, open(jump_path, "w", newline="") as jumps:
        traj.write("path_id,t,x,y\r\n")
        jumps.write("path_id,t,from,to\r\n")
        for ens in chunks:
            stored_t = np.array(["%.10g" % t for t in ens.times.tolist()], dtype=object)
            for a, b in ens.row_chunks():
                rows = ens.rows(a, b)
                t = stored_t[rows.grid]
                inserted = rows.grid < 0
                t[inserted] = ["%.10g" % v for v in rows.t[inserted].tolist()]
                path_id = np.repeat(ens.path_index[a:b], np.diff(rows.offsets))
                traj.write(_format_rows("%d,%s,%.10g,%d\r\n", path_id, t, rows.x, rows.y))
                j = slice(ens.jump_offsets[a], ens.jump_offsets[b])
                path_id = np.repeat(ens.path_index[a:b], np.diff(ens.jump_offsets[a:b + 1]))
                jumps.write(_format_rows("%d,%.10g,%d,%d\r\n", path_id, ens.jump_t[j],
                                         ens.jump_from[j], ens.jump_to[j]))


def _format_rows(row_format, *columns) -> str:
    """One % call on row_format repeated once per row, fields row-major."""
    fields = [None] * (len(columns) * len(columns[0]))
    for k, col in enumerate(columns):
        fields[k::len(columns)] = col.tolist()
    return (row_format * len(columns[0])) % tuple(fields)


def _cmd_simulate(cfg: ExperimentConfig, potential: Potential, out: _Artifacts):
    for eps in cfg.epsilons:
        pipe = _build_pipeline(cfg, potential, eps, cfg.grid_n)
        paths = out.path(f"trajectories_eps{eps:g}.csv"), out.path(f"jumps_eps{eps:g}.csv")
        chunks = ensemble_chunks(_ensemble_config(cfg), [pipe.model], potential)
        try:
            _write_simulate_csvs((level[0] for level in chunks), *paths)
        except BaseException:
            # a run that fails part way leaves no CSV that could pass for a
            # whole one
            for path in paths:
                if os.path.exists(path):
                    os.remove(path)
            raise


def _two_route_gaps(lams, potential, eps, grid: Grid):
    """Largest relative gaps between the generator eigenvalues lams[1:] and
    eps times the Schrodinger eigenvalues: (against the Richardson value,
    raw). The Schrodinger route's discretization error is O(h^2), so
    (4 hat(h/2) - hat(h)) / 3, with h/2 from the same L and 2n - 1 nodes,
    removes its leading term; the raw gap at h is the size of that error."""
    hat = schrodinger_eigenvalues(potential, eps, grid, len(lams))
    half = schrodinger_eigenvalues(potential, eps, Grid(grid.L, 2 * grid.n - 1), len(lams))

    def gap(ref):
        return float(np.max(np.abs(lams[1:] - eps * ref[1:]) / (eps * ref[1:])))

    return gap((4.0 * half - hat) / 3.0), gap(hat)


def _binom_pmf(n: int, q) -> np.ndarray:
    """(n + 1, len(q)) Binomial(n, q_j) pmfs over the counts 0..n, one column
    per probability, evaluated in logs so that no term underflows early.
    (scipy.stats has them, but importing it takes longer than a whole
    verify invocation.)"""
    k = np.arange(n + 1)[:, None]
    q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log(np.arange(n, 0, -1))
                                                  - np.log(np.arange(1, n + 1)))))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (log_choose[:, None] + np.where(k > 0, k * np.log(q), 0.0)
                   + np.where(k < n, (n - k) * np.log1p(-q), 0.0))
    return np.exp(log_pmf)


def _count_z(counts, trials, probs) -> float:
    """Largest z of the exact two-sided tests of counts[j], each against the
    sum over i of independent Binomial(trials[i], probs[i, j]).

    A test's z is the standard normal quantile of 1 - p/2, p the doubled
    smaller tail (at most 1), so z <= 3 is p >= 2 Phi(-3) ~ 0.0027; a count
    the law cannot give reads infinity."""
    pmfs = [_binom_pmf(n_i, q_i) for n_i, q_i in zip(trials, probs)]
    z = 0.0
    for j, count in enumerate(counts):
        pmf = np.ones(1)
        for table in pmfs:
            pmf = np.convolve(pmf, table[:, j])
        p = min(1.0, 2.0 * min(pmf[:count + 1].sum(), pmf[count:].sum()))
        z = max(z, -NormalDist().inv_cdf(p / 2) if p > 0 else math.inf)
    return z


def _verify_one(cfg: ExperimentConfig, potential: Potential, eps: float):
    checks = []

    def record(name, passed, value, threshold, **extra):
        checks.append({"name": name, "passed": bool(passed), "value": value,
                       "threshold": threshold, **extra})

    growth = potential.growth
    record("growth_assumptions", growth.passed, growth.a1, "a2 < 2*a1 - 2")

    # two-route spectral consistency at the reference resolution, on the
    # eigenvalues alone
    grid4 = auto_grid(potential, eps, n=CROSS_ROUTE_N, L=cfg.grid_L)
    lams4 = generator_eigenvalues(build_generator(potential, eps, grid4), 3)
    rel, raw = _two_route_gaps(lams4, potential, eps, grid4)
    record("two_route_eigenvalues_rel", rel <= CROSS_ROUTE_REL, rel, CROSS_ROUTE_REL,
           raw_value=raw)

    # exact oracle identities
    orun = _oracle_run(cfg, potential, eps)
    record("oracle_conditional_law_tv", orun["max_tv"] <= ORACLE_TOL,
           orun["max_tv"], ORACLE_TOL)
    record("oracle_y_marginal_l1", orun["max_l1"] <= ORACLE_TOL,
           orun["max_l1"], ORACLE_TOL)

    # chain structure of the grid_n pipeline, whose ensemble the Monte Carlo
    # checks below read
    pipe = _build_pipeline(cfg, potential, eps, cfg.grid_n)
    spec, model = pipe.spec, pipe.model
    ens = simulate_ensemble(_ensemble_config(cfg, ends_only=True), model, potential)
    chain_rep = validate_chain(spec)
    record("chain_structure", chain_rep.passed, list(chain_rep.failures), "no failures")
    record("tilt_positivity", model.min_alpha > 0 and
           model.min_alpha >= (1 - cfg.kappa) - 1e-12, model.min_alpha, 1 - cfg.kappa)

    # Monte Carlo checks
    tv_threshold = MC_TV_BASE * np.sqrt(MC_TV_REF_PATHS / cfg.n_paths)
    xT = ens.x[-1]
    yT = ens.y_at(ens.times[-1])
    for j in range(model.n_states):
        sel = yT == j
        if sel.sum() < 50:
            continue
        tv = tv_distance(xT[sel], model.cond[j], model.grid_nodes, bins=50)
        record(f"mc_conditional_tv_state{j}", tv <= tv_threshold, tv, tv_threshold)

    # The initial chain states are tested against p. Later occupations are
    # tested against their law given those initial states: the paths are
    # independent and each chain is Markov with generator Q from its start,
    # so the initial draw's sampling error does not carry into the later
    # checks and only the dynamics are tested there. Given the initial
    # states, a state's count is a sum of independent binomials, one per
    # initial state, and is tested against that exact law: a normal
    # approximation overstates z when only a few paths change state.
    m1 = model.n_states
    counts0 = np.bincount(ens.y_at(0.0), minlength=m1)
    z = _count_z(counts0, [len(ens)], model.p[None])
    record("mc_y_marginal_t0", z <= 3.0, z, 3.0)
    for t in (cfg.T / 4, cfg.T / 2, cfg.T):
        counts = np.bincount(ens.y_at(t), minlength=m1)
        z = _count_z(counts, counts0, expm(spec.Q * t))
        record(f"mc_y_marginal_t{t:g}", z <= 3.0, z, 3.0)

    # of the est.n paths in state j at T, the count in well j is tested
    # against the exact Binomial(est.n, oracle value)
    part = domains_of_attraction(potential)
    tr = tracking_probability(ens, part, cfg.T, model)
    for j, (est, oracle_val) in tr.items():
        if est is None:
            continue
        z = _count_z([round(est.point * est.n)], [est.n], [[oracle_val]])
        record(f"mc_tracking_state{j}", z <= 3.0, z, 3.0)

    return {"eps": eps, "checks": checks,
            "passed": all(c["passed"] for c in checks), "oracle": orun}


def _cmd_verify(cfg: ExperimentConfig, potential: Potential, out: _Artifacts):
    runs = [_verify_one(cfg, potential, eps) for eps in cfg.epsilons]
    report = {"runs": runs, "passed": all(r["passed"] for r in runs)}
    out.write_json("verify_report.json", report)
    for run in runs:
        for c in run["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            print(f"[{status}] eps={run['eps']:g} {c['name']}: value={c['value']} "
                  f"threshold={c['threshold']}")
    if not report["passed"]:
        raise VerificationFailure("one or more verification checks failed")


def _cmd_sweep(cfg: ExperimentConfig, potential: Potential, out: _Artifacts):
    pipes = [_build_pipeline(cfg, potential, eps, cfg.grid_n) for eps in cfg.epsilons]
    ensembles = simulate_ensembles(_ensemble_config(cfg, ends_only=True),
                                   [pipe.model for pipe in pipes], potential)
    rows = []
    for eps, (_, gen, dec, spec, model), ens in zip(cfg.epsilons, pipes, ensembles):
        part = domains_of_attraction(potential)
        tr = tracking_probability(ens, part, cfg.T, model)
        minima = potential.minima
        rho = 0.5 * float(np.min(np.abs(minima[:, None] - part.boundaries[None, :])))
        rates = {f"{i}->{j}": {"chain": c, "diffusion": d, "ratio": c / d}
                 for (i, j), (c, d) in exact_exit_times(spec.Q, gen, minima, rho).items()}
        row = {"eps": eps, "lambdas": dec.eigenvalues[1:].tolist(),
               "rho": rho, "exit_times": rates}
        for j, (est, oracle_val) in tr.items():
            row[f"tracking_oracle_{j}"] = oracle_val
            row[f"tracking_mc_{j}"] = None if est is None else est.point
            row[f"tracking_se_{j}"] = None if est is None else est.se
        rows.append(row)
    out.write_json("sweep_report.json", {"rows": rows})
    if "csv" in cfg.formats:
        keys = [k for k in rows[0] if k not in ("exit_times", "lambdas")]
        out.write_csv("sweep.csv", [keys] + [[row[k] for k in keys] for row in rows])
    if "svg" in cfg.formats and len(rows) > 1:
        epss = [r["eps"] for r in rows]
        n_states = len([k for k in rows[0] if k.startswith("tracking_oracle_")])
        series = {f"oracle_{j}": [r[f"tracking_oracle_{j}"] for r in rows]
                  for j in range(n_states)}
        svgplot.line_chart(out.path("tracking_trend.svg"), epss, series,
                           title="tracking vs noise level",
                           xlabel="eps", ylabel="P(X in D_j | Y = j)")


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "synth": _cmd_synth,
    "oracle": _cmd_oracle,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def execute(command: str, cfg: ExperimentConfig, out_dir=None) -> int:
    """Run one subcommand; returns the exit code and writes artifacts plus a
    reproducibility manifest under the output directory."""
    t0 = time.time()
    out = _Artifacts(out_dir or cfg.out_dir)
    os.makedirs(out.out_dir, exist_ok=True)
    try:
        _COMMANDS[command](cfg, make_potential(cfg.potential), out)
        out.write_json("config_resolved.json", cfg.resolved())
        code = 0
    except VerificationFailure as exc:
        # the manifest still lists the report that names the failed checks
        print(f"verification failed: {exc}", file=sys.stderr)
        code = 3
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numerical failure, not a bad input
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # e.g. an ensemble too large to hold: a resource failure, not a
        # bad input and not worth a traceback
        print(f"numerical failure: out of memory{f' ({exc})' if str(exc) else ''}",
              file=sys.stderr)
        return 2
    except (ConfigError, GrowthAssumptionError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except EigencouplerError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    manifest = {
        "command": command,
        "config": cfg.resolved(),
        "outputs": list(out.paths),     # the manifest itself is not one
        "versions": {
            "eigencoupler": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_clock_s": round(time.time() - t0, 3),
    }
    if resource is not None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        manifest["peak_rss_mb"] = _peak_rss_mb(usage)
        manifest["minor_faults"] = usage.ru_minflt
    out.write_json("manifest.json", manifest)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eigencoupler",
        description="eigenfunction coupling of a metastable diffusion to a "
                    "finite Markov chain: spectra, exact conditional-law "
                    "verification, and Monte Carlo diagnostics")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path or inline JSON")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--seed", type=int, default=None, help="override simulation seed")
    parser.add_argument("--threads", type=int, default=None, help="worker threads")
    args = parser.parse_args(argv)
    try:
        cfg = apply_overrides(parse_config(args.config), seed=args.seed,
                              threads=args.threads)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    return execute(args.command, cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
