import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencoupler.coupling import build_pipeline
from eigencoupler.potential import domains_of_attraction
from eigencoupler.simulate import EnsembleConfig, simulate_ensemble
from eigencoupler.stats import (
    EstimateWithCI,
    ks_exponential,
    rate_match_report,
    tracking_probability,
    tv_distance,
)


def test_estimate_interval():
    est = EstimateWithCI(point=0.5, se=0.1, n=100)
    np.testing.assert_allclose(est.interval, (0.304, 0.696))


def test_ks_exponential_self_consistency():
    # true-exponential samples pass the bootstrap gate in >= 9 of 10 seeds
    passes = 0
    for s in range(10):
        rng = np.random.default_rng(100 + s)
        samples = rng.standard_exponential(5000) / 2.0
        res = ks_exponential(samples, n_bootstrap=500, seed=50)
        passes += not res.rejected
    assert passes >= 9


def test_ks_rejects_constant_samples():
    res = ks_exponential(np.full(200, 3.0))
    assert res.rejected
    assert res.statistic > 0.5


def test_ks_rejects_uniform_samples():
    rng = np.random.default_rng(8)
    res = ks_exponential(rng.uniform(0, 1, 5000), n_bootstrap=500)
    assert res.rejected


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_exponential(np.ones(10))
    with pytest.raises(ValueError):
        ks_exponential(np.concatenate((np.ones(50), [-1.0])))


def test_ks_deterministic():
    rng = np.random.default_rng(0)
    samples = rng.standard_exponential(1000)
    a = ks_exponential(samples, n_bootstrap=200, seed=4)
    b = ks_exponential(samples, n_bootstrap=200, seed=4)
    assert a == b


def test_tv_distance_self_sample():
    pipe = build_pipeline("double_well", 0.1, 300, kappa=0.0)
    model = pipe.model
    rng = np.random.default_rng(1)
    cum = np.cumsum(model.weights)
    idx = np.searchsorted(cum, rng.random(100000))
    h = model.grid_nodes[1] - model.grid_nodes[0]
    samples = model.grid_nodes[np.clip(idx, 0, len(cum) - 1)] + (rng.random(100000) - 0.5) * h
    assert tv_distance(samples, model.weights, model.grid_nodes, 50) <= 0.02


def test_tv_distance_point_mass():
    grid = np.linspace(-1, 1, 101)
    ref = np.zeros(101)
    ref[0] = 1.0
    tv = tv_distance(np.full(1000, 1.0), ref, grid, 50)
    assert tv > 0.95


def test_tv_distance_validation():
    grid = np.linspace(-1, 1, 11)
    ref = np.full(11, 1 / 11)
    with pytest.raises(ValueError):
        tv_distance(np.array([]), ref, grid, 10)
    with pytest.raises(ValueError):
        tv_distance(np.ones(5), ref, grid, 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), bins=st.integers(2, 80))
def test_tv_distance_bounded(seed, bins):
    rng = np.random.default_rng(seed)
    grid = np.linspace(-2, 2, 60)
    ref = rng.random(60)
    ref /= ref.sum()
    samples = rng.uniform(-3, 3, 500)
    tv = tv_distance(samples, ref, grid, bins)
    assert 0.0 <= tv <= 1.0


@pytest.fixture(scope="module")
def tracking_ensemble():
    pipe = build_pipeline("double_well", 0.1, 500)
    cfg = EnsembleConfig(n_paths=3000, dt=5e-4, horizon=1.0, seed=12,
                         store_stride=200)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    return pipe, recs


def test_tracking_symmetric_decoupled_half():
    pipe = build_pipeline("double_well", 0.1, 300, kappa=0.0)
    part = domains_of_attraction(pipe.potential)
    cfg = EnsembleConfig(n_paths=400, dt=1e-3, horizon=0.2, seed=3,
                         store_stride=100)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    out = tracking_probability(recs, part, 0.2, pipe.model)
    for j, (est, oracle_val) in out.items():
        assert oracle_val == pytest.approx(0.5, abs=1e-10)


def test_tracking_mc_matches_oracle(tracking_ensemble):
    pipe, recs = tracking_ensemble
    part = domains_of_attraction(pipe.potential)
    out = tracking_probability(recs, part, 1.0, pipe.model)
    for j, (est, oracle_val) in out.items():
        assert est is not None
        assert abs(est.point - oracle_val) <= 3 * est.se


def test_tracking_deterministic(tracking_ensemble):
    pipe, recs = tracking_ensemble
    part = domains_of_attraction(pipe.potential)
    a = tracking_probability(recs, part, 1.0, pipe.model)
    b = tracking_probability(recs, part, 1.0, pipe.model)
    assert a == b


def test_tracking_empty_state_flagged():
    pipe = build_pipeline("double_well", 0.1, 200, p=(1.0, 0.0))
    part = domains_of_attraction(pipe.potential)
    cfg = EnsembleConfig(n_paths=60, dt=1e-3, horizon=0.05, seed=6,
                         x0=-1.0, y0=0, store_stride=10)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    out = tracking_probability(recs, part, 0.05, pipe.model)
    assert out[1][0] is None          # nobody occupies state 1 yet
    assert out[0][0] is not None


@pytest.fixture(scope="module")
def exit_setup():
    pipe = build_pipeline("double_well", 0.2, 800)
    part = domains_of_attraction(pipe.potential)
    ens = {}
    for i, x0 in enumerate(pipe.potential.minima):
        ball_j = pipe.potential.minima[1 - i]
        cfg = EnsembleConfig(n_paths=300, dt=1e-3, horizon=120.0, seed=40 + i,
                             x0=float(x0), y0=i, store_stride=100,
                             absorb=(ball_j - 0.5, ball_j + 0.5))
        ens[i] = simulate_ensemble(cfg, pipe.model, pipe.potential)
    return pipe, part, ens


def test_rate_match_report(exit_setup):
    pipe, part, ens = exit_setup
    report = rate_match_report(ens, pipe.spec.Q, part, 0.5, pipe.gen,
                               pipe.potential.minima)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["ratio"] > 0 and np.isfinite(row["ratio"])
        # chain side is the exact linear-solve value
        i, j = row["from"], row["to"]
        assert row["chain_exact"] == pytest.approx(
            1.0 / pipe.spec.Q[i, j], rel=1e-12)
        # MC diffusion estimate agrees with the grid linear solve
        assert row["censored"] == 0
        assert abs(row["mc_estimate"] - row["diffusion_exact"]) <= 3 * row["mc_se"]
    text = report.to_text()
    assert "chain_exact" in text


def test_rate_match_deterministic(exit_setup):
    pipe, part, ens = exit_setup
    a = rate_match_report(ens, pipe.spec.Q, part, 0.5, pipe.gen,
                          pipe.potential.minima).to_json()
    b = rate_match_report(ens, pipe.spec.Q, part, 0.5, pipe.gen,
                          pipe.potential.minima).to_json()
    assert a == b


def test_rate_match_censoring_flagged(exit_setup):
    pipe, part, _ = exit_setup
    cfg = EnsembleConfig(n_paths=30, dt=1e-3, horizon=0.5, seed=90,
                         x0=-1.0, y0=0, store_stride=10, absorb=(0.5, 1.5))
    short = simulate_ensemble(cfg, pipe.model, pipe.potential)
    report = rate_match_report({0: short}, pipe.spec.Q, part, 0.5,
                               pipe.gen, pipe.potential.minima)
    row = report.rows[0]
    assert row["censored"] > 0
    if row["mc_estimate"] is None:
        assert row["mc_lower_bound"] > 0


def test_rate_match_rho_validation(exit_setup):
    pipe, part, ens = exit_setup
    with pytest.raises(ValueError):
        rate_match_report(ens, pipe.spec.Q, part, 1.5, pipe.gen,
                          pipe.potential.minima)
