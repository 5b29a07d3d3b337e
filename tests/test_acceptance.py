"""Acceptance gate: every release criterion at its pinned tolerance, one
pass/fail line printed per criterion."""

import dataclasses
import time

import numpy as np
import pytest

from eigencoupler.coupling import build_joint_generator, build_pipeline
from eigencoupler.oracle import check_oracle, mean_exit_times
from eigencoupler.potential import Potential, domains_of_attraction, make_potential
from eigencoupler.simulate import EnsembleConfig, simulate_ensemble
from eigencoupler.spectral import Grid, build_generator, decompose, schrodinger_eigenvalues
from eigencoupler.stats import ks_exponential, rate_match_report, tracking_probability, tv_distance

ORACLE_TIMES = (0.1, 1.0, 10.0)


def report(num, description, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {description} ({detail})")
    assert passed, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def crit1_setup():
    # default double well, eps = 0.1, oracle grid n = 200, two states
    pipe = build_pipeline("double_well", 0.1, 200, kappa=0.9, theta=0.5)
    B = build_joint_generator(pipe.model, pipe.gen)
    return pipe, B


def test_criterion_1_exact_conditional_law(crit1_setup):
    pipe, B = crit1_setup
    t0 = time.monotonic()
    rep, _ = check_oracle(B, pipe.model, pipe.spec.p, ORACLE_TIMES)
    elapsed = time.monotonic() - t0
    report(1, "exact conditional law, max TV <= 1e-8 in < 10 s",
           rep.max_tv <= 1e-8 and elapsed < 10.0,
           f"max TV = {rep.max_tv:.3e}, runtime = {elapsed:.2f} s")


def test_criterion_2_y_marginality(crit1_setup):
    pipe, B = crit1_setup
    _, rep = check_oracle(B, pipe.model, pipe.spec.p, ORACLE_TIMES)
    report(2, "chain marginality, max l1 <= 1e-8",
           rep.max_l1 <= 1e-8, f"max l1 = {rep.max_l1:.3e}")


def test_criterion_3_spectral_cross_validation():
    t0 = time.monotonic()
    dw = make_potential("double_well")
    from eigencoupler.spectral import auto_grid
    grid = auto_grid(dw, 0.1, n=4000)
    gen = build_generator(dw, 0.1, grid)
    dec = decompose(gen, 3)
    hat = schrodinger_eigenvalues(dw, 0.1, grid, 4)
    rel = np.max(np.abs(dec.eigenvalues[1:] - 0.1 * hat[1:]) / (0.1 * hat[1:]))
    elapsed = time.monotonic() - t0
    report(3, "two-route eigenvalues agree to rel 1e-4 (k <= 3, n = 4000) in < 30 s",
           rel <= 1e-4 and elapsed < 30.0,
           f"max rel = {rel:.3e}, runtime = {elapsed:.2f} s")


def test_criterion_4_ou_analytic_spectrum():
    quad = make_potential("quadratic")
    gen = build_generator(quad, 0.5, Grid(L=8.0, n=2000))
    dec = decompose(gen, 4)
    lam = dec.eigenvalues
    errs = [abs(lam[0])] + [abs(lam[k] - k) / k for k in range(1, 5)]
    report(4, "harmonic-well spectrum lambda_k = k to rel 1e-3 (k <= 4)",
           max(errs) <= 1e-3, f"worst error = {max(errs):.3e}")


def test_criterion_5_monte_carlo_conditional_law():
    t0 = time.monotonic()
    pipe = build_pipeline("double_well", 0.1, 2000, kappa=0.9, theta=0.5)
    cfg = EnsembleConfig(n_paths=20000, dt=1e-4, horizon=5.0, eps=0.1, seed=42,
                         store_stride=500)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential, pipe.spec)
    xT = np.array([r.x[-1] for r in recs])
    yT = np.array([r.y[-1] for r in recs])
    tvs = {j: tv_distance(xT[yT == j], pipe.model.cond[j],
                          pipe.model.grid_nodes, bins=50)
           for j in (0, 1)}
    elapsed = time.monotonic() - t0
    report(5, "Monte Carlo conditional law, TV <= 0.05 per state in < 5 min",
           max(tvs.values()) <= 0.05 and elapsed < 300.0,
           f"TV = {tvs[0]:.4f}/{tvs[1]:.4f}, runtime = {elapsed:.0f} s")


def test_criterion_6_exit_time_exponentiality():
    # constant-rate control (zero eigenvector scale) on a single-well
    # potential whose spectral gap makes the chain fast
    pot = Potential(np.array([0.0, 0.0, 1.0]), name="x^2")
    pipe = build_pipeline(pot, 0.5, 400, kappa=0.0, p=(1.0, 0.0))
    q01 = pipe.spec.Q[0, 1]
    passes = 0
    details = []
    for s in range(20):
        cfg = EnsembleConfig(n_paths=5000, dt=4e-3, horizon=round(12.0 / q01, 2),
                             eps=0.5, seed=1000 + s, initial_kind="fixed",
                             x0=0.0, y0=0, store_stride=500)
        recs = simulate_ensemble(cfg, pipe.model, pipe.potential, pipe.spec)
        taus = np.array([r.jumps[0][0] for r in recs if r.jumps])
        res = ks_exponential(taus, n_bootstrap=2000, seed=77)
        passes += not res.rejected
        details.append(f"{res.statistic:.4f}{'<' if not res.rejected else '>'}"
                       f"{res.critical_bootstrap:.4f}")
    report(6, "chain holding times exponential in >= 18 of 20 seeds (bootstrap 5%)",
           passes >= 18, f"{passes}/20 below the bootstrap critical value")


def test_criterion_7_tracking_trend():
    oracle_vals = []
    mc_ok = True
    detail = []
    for eps in (0.15, 0.10, 0.07):
        pipe = build_pipeline("double_well", eps, 2000, kappa=0.9, theta=0.5)
        part = domains_of_attraction(pipe.potential)
        cfg = EnsembleConfig(n_paths=4000, dt=1e-4, horizon=1.0, eps=eps,
                             seed=71, store_stride=100)
        recs = simulate_ensemble(cfg, pipe.model, pipe.potential, pipe.spec)
        out = tracking_probability(recs, part, 1.0, pipe.model)
        vals = []
        for j, (est, oracle_val) in out.items():
            vals.append(oracle_val)
            z = abs(est.point - oracle_val) / max(est.se, 1e-12)
            mc_ok &= z <= 3.0
            detail.append(f"eps={eps} j={j} oracle={oracle_val:.4f} "
                          f"mc={est.point:.4f} z={z:.2f}")
        oracle_vals.append(min(vals))
    monotone = all(oracle_vals[i] <= oracle_vals[i + 1] + 1e-12
                   for i in range(len(oracle_vals) - 1))
    report(7, "tracking nondecreasing as eps shrinks; MC within 3 SE of oracle",
           monotone and mc_ok,
           f"oracle trend = {[f'{v:.4f}' for v in oracle_vals]}; " + "; ".join(detail))


def test_criterion_8_rate_match():
    eps = 0.15
    pipe = build_pipeline("double_well", eps, 2000, kappa=0.9, theta=0.5)
    part = domains_of_attraction(pipe.potential)
    rho = 0.5
    minima = pipe.potential.minima
    chain_exact = float(mean_exit_times(pipe.spec.Q, [0], [1])[0])
    exact_ok = chain_exact == 1.0 / pipe.spec.Q[0, 1]

    nodes = pipe.gen.grid.nodes
    ball = (minima[1] - rho, minima[1] + rho)
    tgt = np.nonzero((nodes >= ball[0]) & (nodes <= ball[1]))[0]
    src = int(np.argmin(np.abs(nodes - minima[0])))
    ref = float(mean_exit_times(pipe.gen, [src], tgt)[0])
    cfg = EnsembleConfig(n_paths=1000, dt=1e-3, horizon=round(15 * ref, 1),
                         eps=eps, seed=5, initial_kind="fixed", x0=float(minima[0]),
                         y0=0, store_stride=100, absorb=ball)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential, pipe.spec)
    rep = rate_match_report({0: recs}, pipe.spec.Q, part, rho, pipe.gen, minima)
    row = next(r for r in rep.rows if r["from"] == 0 and r["to"] == 1)
    z = abs(row["mc_estimate"] - row["diffusion_exact"]) / row["mc_se"]

    # determinism: regenerating a small ensemble from the same seed must give
    # a byte-identical report
    cfg_small = dataclasses.replace(cfg, n_paths=150)
    rep_a = rate_match_report(
        {0: simulate_ensemble(cfg_small, pipe.model, pipe.potential, pipe.spec)},
        pipe.spec.Q, part, rho, pipe.gen, minima).to_json()
    rep_b = rate_match_report(
        {0: simulate_ensemble(cfg_small, pipe.model, pipe.potential, pipe.spec)},
        pipe.spec.Q, part, rho, pipe.gen, minima).to_json()
    report(8, "rate match: exact chain value, MC within 3 SE of grid solve, "
              "deterministic report",
           exact_ok and z <= 3.0 and rep_a == rep_b and row["censored"] == 0,
           f"E0[tau1] = {chain_exact:.4f}, MC = {row['mc_estimate']:.3f} "
           f"vs exact {row['diffusion_exact']:.3f} (z = {z:.2f})")


def test_criterion_9_negative_controls(crit1_setup):
    pipe, B = crit1_setup
    model, spec, gen = pipe.model, pipe.spec, pipe.gen
    times = ORACLE_TIMES

    def max_tv(B, model):
        return check_oracle(B, model, spec.p, times)[0].max_tv

    baseline = max_tv(B, model)

    vec = spec.vectors.copy()
    vec[0, 0] *= 1.01
    m1_bad = dataclasses.replace(model, vectors=vec)
    tv1 = max_tv(build_joint_generator(m1_bad, gen), m1_bad)

    m2_bad = dataclasses.replace(model, Q=1.01 * model.Q)
    tv2 = max_tv(build_joint_generator(m2_bad, gen), m2_bad)

    # corrupted quadrature measure: reference laws and the initial law are
    # built from distorted weights while the dynamics stay true
    w_bad = model.weights * (1.0 + 0.01 * (model.grid_nodes > 0))
    w_bad /= w_bad.sum()
    m3_bad = dataclasses.replace(model, weights=w_bad)
    tv3 = max_tv(B, m3_bad)

    report(9, "fault injection drives criterion-1 TV above 1e-4",
           baseline <= 1e-8 and min(tv1, tv2, tv3) > 1e-4,
           f"baseline = {baseline:.2e}; perturbed vector = {tv1:.2e}, "
           f"mismatched eigenvalue = {tv2:.2e}, broken normalization = {tv3:.2e}")
