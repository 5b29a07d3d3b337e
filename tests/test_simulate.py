import dataclasses
import hashlib

import numpy as np
import pytest

from eigencoupler.coupling import build_pipeline, sample_initial
from eigencoupler.errors import BlowUpError
from eigencoupler.potential import make_potential
from eigencoupler.simulate import (
    EnsembleConfig,
    clock_stream,
    first_exit_time,
    max_stable_dt,
    path_stream,
    simulate_ensemble,
    simulate_ensembles,
    simulate_x,
    simulate_y_given_x,
)
from eigencoupler.stats import tv_distance

DW = make_potential("double_well")


def test_zero_noise_fixed_point():
    rng = path_stream(0, 0)
    x = simulate_x(DW, 0.0, 1.0, 1e-3, 1.0, rng)
    np.testing.assert_allclose(x, 1.0, atol=1e-13)


def test_zero_noise_gradient_flow_monotone():
    rng = path_stream(0, 0)
    x = simulate_x(DW, 0.0, 0.5, 1e-3, 20.0, rng)
    assert np.all(np.diff(x) >= -1e-15)
    assert abs(x[-1] - 1.0) < 1e-6


def test_dt_precondition():
    rng = path_stream(0, 0)
    with pytest.raises(ValueError):
        simulate_x(DW, 0.1, 0.0, 0.5, 1.0, rng)    # above 1e-2 / F''(min)
    assert max_stable_dt(DW) == pytest.approx(5e-3)
    with pytest.warns(UserWarning):
        simulate_x(DW, 0.0, 1.0, 6e-3, 0.1, rng, allow_large_dt=True)


def test_blowup_guard():
    rng = path_stream(0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(UserWarning), pytest.raises(BlowUpError):
            # gross overstepping makes the quartic drift oscillate and explode
            simulate_x(DW, 0.1, 2.5, 0.5, 2.0, rng, bound=20.0,
                       allow_large_dt=True)


@pytest.mark.parametrize("preset,eps", [("double_well", 0.1), ("triple_well", 0.05),
                                        ("quadratic", 0.5)])
def test_simulate_x_default_bound_is_the_ensemble_bound(preset, eps):
    # one escape rule: ten times the larger of |x0| and the grid's half-width
    import eigencoupler.simulate as sim
    pipe = build_pipeline(make_potential(preset), eps, 300)
    ensemble_bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(pipe.model.grid_nodes)))
    assert sim._escape_bound(pipe.potential, eps) == ensemble_bound
    x0 = -3 * ensemble_bound
    assert sim._escape_bound(pipe.potential, eps, x0) == sim.ESCAPE_FACTOR * abs(x0)
    assert sim._escape_bound(pipe.potential, 0.0) > 0


def test_blowup_guard_catches_nan():
    # NaN fails every comparison, so a guard reading `max > bound` lets a NaN
    # path run to the horizon
    with pytest.raises(BlowUpError):
        simulate_x(DW, 0.1, np.nan, 1e-3, 1.0, path_stream(0, 0), bound=20.0)


def test_ou_variance_matches_closed_form():
    # stationary variance eps, relaxation rate 1: Var X(T) = eps (1 - e^{-2T})
    quad = make_potential("quadratic")
    eps, T, dt, n = 0.5, 5.0, 1e-3, 10000
    import eigencoupler.simulate as sim
    n_steps = int(T / dt)
    noise = sim._NoiseTape([path_stream(3, i) for i in range(n)], n_steps, sim._NOISE_BLOCK)
    path = sim._Diffusion(quad, eps, np.zeros(n), noise, dt, 100.0,
                          np.array([0, n_steps]))
    for _ in path.windows(sim._NOISE_BLOCK):
        pass
    var = path.stored[-1].var()
    target = eps * (1 - np.exp(-2 * T))
    se = target * np.sqrt(2.0 / (n - 1))
    assert abs(var - target) <= 3 * se


def test_holding_time_exponential(fast_chain_decoupled):
    # constant rates: the first holding time in state 0 is exactly
    # budget / q01, an exponential; compare against the known-rate critical
    # value 1.36/sqrt(n)
    pipe = fast_chain_decoupled
    q01 = pipe.spec.Q[0, 1]
    cfg = EnsembleConfig(n_paths=5000, dt=4e-3, horizon=round(12.0 / q01, 2),
                         seed=7, x0=0.0, y0=0, store_stride=500)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    taus = np.array([r.jumps[0][0] for r in recs if r.jumps])
    assert len(taus) >= 4995
    s = np.sort(taus)
    n = len(s)
    cdf = 1.0 - np.exp(-q01 * s)
    d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert d < 1.36 / np.sqrt(n)


def test_absorbing_state_never_leaves(fast_chain_decoupled):
    # zeroing the outgoing generator row makes the state absorbing
    pipe = fast_chain_decoupled
    Q = pipe.model.Q.copy()
    Q[0] = 0.0
    model = dataclasses.replace(pipe.model, Q=Q)
    cfg = EnsembleConfig(n_paths=50, dt=2e-3, horizon=3.0, seed=1,
                         x0=0.0, y0=0, store_stride=10)
    recs = simulate_ensemble(cfg, model, pipe.potential)
    assert all(len(r.jumps) == 0 for r in recs)
    assert all((r.y == 0).all() for r in recs)


def test_jump_count_matches_closed_form(fast_chain_decoupled):
    # two-state constant rates: E[N(T)] = T (pi . r) + (1 - e^{-lam T})/lam
    # * ((p0 - pi) . r)
    pipe = fast_chain_decoupled
    Q = pipe.spec.Q
    lam = Q[0, 1] + Q[1, 0]
    r = np.array([Q[0, 1], Q[1, 0]])
    piv = np.array([Q[1, 0], Q[0, 1]]) / lam
    p0 = np.array([1.0, 0.0])
    T = 4.0
    expected = T * (piv @ r) + (1 - np.exp(-lam * T)) / lam * ((p0 - piv) @ r)
    cfg = EnsembleConfig(n_paths=4000, dt=2e-3, horizon=T, seed=21,
                         x0=0.0, y0=0, store_stride=200)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    counts = np.array([len(r.jumps) for r in recs])
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - expected) <= 3 * se


def test_ensemble_deterministic(fast_chain):
    pipe = fast_chain
    cfg = EnsembleConfig(n_paths=4, dt=2e-3, horizon=2.0, seed=5,
                         store_stride=1)
    a = simulate_ensemble(cfg, pipe.model, pipe.potential)
    b = simulate_ensemble(cfg, pipe.model, pipe.potential)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.x, rb.x)
        np.testing.assert_array_equal(ra.times, rb.times)
        assert ra.jumps == rb.jumps


def test_ensemble_matches_sequential_composition(fast_chain):
    # the ensemble is bit-identical to drawing each path's stream and running
    # the single-path operations in order
    pipe = fast_chain
    model, pot = pipe.model, pipe.potential
    cfg = EnsembleConfig(n_paths=5, dt=2e-3, horizon=6.0, seed=11,
                         store_stride=1)
    recs = simulate_ensemble(cfg, model, pot)
    assert sum(len(r.jumps) for r in recs) > 0
    for i, rec in enumerate(recs):
        g = path_stream(11, i)
        x0, y0 = sample_initial(model, g)
        x = simulate_x(pot, 0.5, x0, 2e-3, 6.0, g)
        ref = simulate_y_given_x(x, model, y0, clock_stream(11, i), 2e-3)
        np.testing.assert_array_equal(rec.times, ref.times)
        np.testing.assert_array_equal(rec.x, ref.x)
        np.testing.assert_array_equal(rec.y, ref.y)
        assert rec.jumps == ref.jumps
        np.testing.assert_array_equal(rec.clocks, ref.clocks)


def test_ensemble_chunking_and_workers_invariant(fast_chain, monkeypatch):
    import eigencoupler.simulate as sim
    pipe = fast_chain
    cfg = EnsembleConfig(n_paths=6, dt=2e-3, horizon=2.0, seed=5,
                         store_stride=1)
    ref = simulate_ensemble(cfg, pipe.model, pipe.potential)
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 16.0 * 1000 * 2)
    cfg2 = dataclasses.replace(cfg, workers=3)
    out = simulate_ensemble(cfg2, pipe.model, pipe.potential)
    for ra, rb in zip(ref, out):
        np.testing.assert_array_equal(ra.x, rb.x)
        assert ra.jumps == rb.jumps


def test_ensemble_tiles_and_noise_blocks_invariant(fast_chain, monkeypatch):
    # y-kernel tiles, noise blocks and noise groups narrower than the ensemble,
    # none dividing it evenly, change no bit of any record
    import eigencoupler.simulate as sim
    pipe = fast_chain
    model, pot = pipe.model, pipe.potential
    # dt gives blocks of more than 8 steps, where numpy's pairwise sums
    # would round differently at width one
    cfg = EnsembleConfig(n_paths=23, dt=5e-4, horizon=2.0, seed=13,
                         store_stride=1)
    ref = simulate_ensemble(cfg, model, pot)
    block = sim._y_block_size(model, cfg.dt)
    monkeypatch.setattr(sim, "_Y_TILE_ELEMS", 5 * (block + 1))
    monkeypatch.setattr(sim, "_NOISE_BLOCK", 7)
    monkeypatch.setattr(sim, "_NOISE_GROUP", 4)
    assert block > 8 and cfg.n_steps % 7 != 0
    recs = simulate_ensemble(cfg, model, pot)
    assert sum(len(r.jumps) for r in recs) > 0
    for i, (rec, r0) in enumerate(zip(recs, ref)):
        g = path_stream(13, i)
        x0, y0 = sample_initial(model, g)
        x = simulate_x(pot, 0.5, x0, 5e-4, 2.0, g)
        one = simulate_y_given_x(x, model, y0, clock_stream(13, i), 5e-4)
        for other in (one, r0):
            np.testing.assert_array_equal(rec.times, other.times)
            np.testing.assert_array_equal(rec.x, other.x)
            np.testing.assert_array_equal(rec.y, other.y)
            assert rec.jumps == other.jumps
            np.testing.assert_array_equal(rec.clocks, other.clocks)


def test_chunk_peak_memory_excludes_noise(dw_small):
    # the chunk holds its full-resolution x and nothing of its size besides:
    # a (n_steps, C) noise array would double the peak
    import tracemalloc
    import eigencoupler.simulate as sim
    model, pot = dw_small.model, dw_small.potential
    bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(model.grid_nodes)))
    for absorb in (None, (0.5, 1.5)):
        cfg = EnsembleConfig(n_paths=64, dt=1e-3, horizon=20.0, seed=3,
                             x0=0.0, y0=0, store_stride=1000, absorb=absorb)
        tracemalloc.start()
        try:
            recs = sim._run_chunk(cfg, [model], pot, np.arange(64), [bound])[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 8 * (cfg.n_steps + 1) * cfg.n_paths
        if absorb is not None:
            n_absorbed = sum(r.exit_time is not None for r in recs)
            assert 0 < n_absorbed < cfg.n_paths


def test_chunk_peak_memory_independent_of_steps(dw_small):
    # x and y advance window by window, so ten times the steps add only the
    # longer stored rows to a chunk's peak; the slack covers the records and
    # jump log, which grow with the horizon by tens of kB here
    import tracemalloc
    import eigencoupler.simulate as sim
    model, pot = dw_small.model, dw_small.potential
    bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(model.grid_nodes)))
    for absorb in (None, (0.5, 1.5)):
        peaks = []
        for horizon in (2.0, 20.0):
            cfg = EnsembleConfig(n_paths=64, dt=1e-3, horizon=horizon, seed=3,
                                 x0=0.0, y0=0, store_stride=1000, absorb=absorb)
            tracemalloc.start()
            try:
                sim._run_chunk(cfg, [model], pot, np.arange(64), [bound])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        stored_bytes = 8 * cfg.n_paths * (cfg.n_steps // cfg.store_stride + 1)
        assert peaks[1] <= peaks[0] + stored_bytes + 2 ** 16


def test_clock_stream_is_the_jumped_path_stream():
    # clock_stream starts the Philox counter where .jumped() moves it: the
    # same exponentials and normals, over many refills of Philox's 4-word
    # buffer and both kinds of draw interleaved
    for seed, i in [(0, 0), (601, 17), (2 ** 64 - 1, 2 ** 63 + 5)]:
        a = clock_stream(seed, i)
        b = np.random.Generator(path_stream(seed, i).bit_generator.jumped())
        drawn = 0
        for n in [1, 2, 3, 5, 7] * 40:
            np.testing.assert_array_equal(a.standard_exponential(n),
                                          b.standard_exponential(n))
            np.testing.assert_array_equal(a.standard_normal(n), b.standard_normal(n))
            drawn += 2 * n
        assert drawn > 1000
        np.testing.assert_array_equal(a.bit_generator.random_raw(9),
                                      b.bit_generator.random_raw(9))


@pytest.mark.parametrize("eps, dt, horizon, block", [(0.5, 4e-3, 8.0, 2),
                                                     (0.1, 1e-4, 0.4, 256)])
def test_scan_reuses_its_tile_buffers(monkeypatch, eps, dt, horizon, block):
    # the busy regime (blocks of 2 steps) and the quiet one (blocks of 256):
    # once the first window has sized the walk's tile buffers, a window
    # allocates less than one tile of float64 temporaries
    import tracemalloc
    import eigencoupler.simulate as sim
    pipe = build_pipeline("double_well", eps, 400)
    model, pot = pipe.model, pipe.potential
    bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(model.grid_nodes)))
    cfg = EnsembleConfig(n_paths=512, dt=dt, horizon=horizon, seed=3,
                         store_stride=50)
    assert sim._y_block_size(model, dt) == block
    advance, peaks = sim._ChainWalk.advance, []

    def traced(self, *args):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        advance(self, *args)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(sim._ChainWalk, "advance", traced)
    tracemalloc.start()
    try:
        sim._run_chunk(cfg, [model], pot, np.arange(512), [bound])
    finally:
        tracemalloc.stop()
    assert len(peaks) > 3
    assert max(peaks[1:]) < 8 * sim._Y_TILE_ELEMS


def test_ensemble_mean_chain_state(fast_chain_decoupled):
    # E[Y(T)] for the two-state chain follows the scalar relaxation formula
    pipe = fast_chain_decoupled
    Q = pipe.spec.Q
    lam = Q[0, 1] + Q[1, 0]
    pi1 = Q[0, 1] / lam
    T = 1.5
    expected = pi1 + (0.0 - pi1) * np.exp(-lam * T)
    cfg = EnsembleConfig(n_paths=4000, dt=2e-3, horizon=T, seed=33,
                         x0=0.0, y0=0, store_stride=150)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    yT = np.array([r.y[-1] for r in recs], dtype=float)
    se = yT.std(ddof=1) / np.sqrt(len(yT))
    assert abs(yT.mean() - expected) <= 3 * se


def test_first_exit_time_semantics(fast_chain_decoupled):
    pipe = fast_chain_decoupled
    q01 = pipe.spec.Q[0, 1]
    cfg = EnsembleConfig(n_paths=400, dt=2e-3, horizon=8.0, seed=2,
                         x0=0.0, y0=0, store_stride=100)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    # never-hit region -> None
    assert first_exit_time(recs[0], (50.0, 60.0), target="x") is None
    # chain hitting {1} is the first jump time
    taus = []
    for r in recs:
        t = first_exit_time(r, {1}, target="y")
        if r.jumps:
            assert t == r.jumps[0][0]
            taus.append(t)
        else:
            assert t is None
    taus = np.array(taus)
    se = taus.std(ddof=1) / np.sqrt(len(taus))
    assert abs(taus.mean() - 1.0 / q01) <= 3 * se


def test_first_exit_interpolates_crossing(fast_chain):
    pipe = fast_chain
    cfg = EnsembleConfig(n_paths=1, dt=2e-3, horizon=4.0, seed=9,
                         store_stride=1)
    rec = simulate_ensemble(cfg, pipe.model, pipe.potential)[0]
    # threshold strictly above the start so the hit happens mid-path
    lo = max(float(np.quantile(rec.x, 0.8)), float(rec.x[0]) + 0.05)
    assert float(np.max(rec.x)) > lo
    tau = first_exit_time(rec, (lo, np.inf), target="x")
    assert tau is not None and tau > 0
    k = int(np.searchsorted(rec.times, tau))
    assert rec.times[k - 1] <= tau <= rec.times[k]


def test_dt_refinement_tv_stable():
    pipe = build_pipeline("double_well", 0.1, 1000)
    model, pot = pipe.model, pipe.potential
    tvs = {}
    for dt in (2e-4, 1e-4):
        cfg = EnsembleConfig(n_paths=4000, dt=dt, horizon=1.0, seed=9,
                             store_stride=int(round(0.5 / dt)))
        recs = simulate_ensemble(cfg, model, pot)
        xT = np.array([r.x[-1] for r in recs])
        yT = np.array([r.y[-1] for r in recs])
        tvs[dt] = max(tv_distance(xT[yT == j], model.cond[j], model.grid_nodes, 50)
                      for j in (0, 1))
    assert tvs[2e-4] <= 0.12 and tvs[1e-4] <= 0.12
    assert abs(tvs[2e-4] - tvs[1e-4]) <= 0.03


def test_absorb_mode_stops_paths():
    pipe = build_pipeline("double_well", 0.2, 500)
    ball = (0.5, 1.5)
    cfg = EnsembleConfig(n_paths=100, dt=1e-3, horizon=80.0, seed=4,
                         x0=-1.0, y0=0, store_stride=50, absorb=ball)
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    absorbed = [r for r in recs if r.exit_time is not None]
    assert len(absorbed) >= 95
    for r in absorbed:
        assert r.times[-1] == r.exit_time
        assert ball[0] <= r.x[-1] <= ball[1]
        tau = first_exit_time(r, ball, target="x")
        assert tau == pytest.approx(r.exit_time, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(n_paths=0, dt=1e-3, horizon=1.0, seed=0)
    with pytest.raises(ValueError):
        EnsembleConfig(n_paths=1, dt=-1e-3, horizon=1.0, seed=0)
    # a fixed start needs both coordinates
    with pytest.raises(ValueError):
        EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=0, x0=0.0)
    with pytest.raises(ValueError):
        EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=0, y0=0)
    # a stride below one fails here, not as a division or index error deep
    # in the run
    for stride in (0, -1):
        with pytest.raises(ValueError, match="store_stride"):
            EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=0, store_stride=stride)


def _crossing_fraction(qa, qb, t0, budget, dt):
    """Scalar crossing time: smallest t in (t0, 1] with the segment depletion
    equal to the budget, or None; an exhausted budget fires at t0."""
    if budget <= 0.0:
        return t0
    a = 0.5 * (qb - qa)
    b = qa
    g = budget / dt + a * t0 * t0 + b * t0
    disc = b * b + 4.0 * a * g
    denom = b + np.sqrt(max(disc, 0.0))
    if denom <= 0.0:
        return None
    t = 2.0 * g / denom
    return float(t) if t0 < t <= 1.0 else None


def _reference_walk(x, model, y0, gen, dt, exit_step, exit_frac):
    """The chain walk one path and one block at a time, replaying a block
    that holds a crossing or the exit one step and one clock at a time: the
    rule the lockstep walk must reproduce bit for bit. Returns (jumps,
    clocks)."""
    import eigencoupler.simulate as sim
    tilts, m1, n = sim._Tilts(model), model.n_states, len(x) - 1
    qz = model.Q.copy()
    np.fill_diagonal(qz, 0.0)
    budgets = np.full((m1, m1), np.inf)
    budgets[~np.eye(m1, dtype=bool)] = gen.standard_exponential(m1 * (m1 - 1))
    y, jumps = y0, []
    block = sim._y_block_size(model, dt)
    for b0 in range(0, n, block):
        if b0 > exit_step:
            break
        nb = min(block, n - b0)
        xb = x[b0:b0 + nb + 1]
        if exit_step >= b0 + nb:
            to = np.array([j for j in range(m1) if j != y])
            mv = tilts.modes(xb)
            q = qz[y, to][:, None] * (tilts.of(to[:, None], mv) / tilts.of(y, mv))
            dep = sim._segment_depletion(q[:, :-1], q[:, 1:], 0.0, 1.0, dt)
            total = np.cumsum(dep, axis=1)[:, -1]
            if not (total >= budgets[y, to]).any():
                budgets[y, to] -= total
                continue
        tl = tilts(xb)
        for k in range(min(nb, exit_step - b0 + 1)):
            step = b0 + k
            fend = exit_frac if step == exit_step else 1.0
            t0 = 0.0
            while True:
                qa = qz[y] * tl[:, k] / tl[y, k]
                qb = qz[y] * tl[:, k + 1] / tl[y, k + 1]
                best = None
                for j in range(m1):
                    tj = None if j == y else _crossing_fraction(qa[j], qb[j], t0,
                                                                budgets[y, j], dt)
                    if tj is not None and tj <= fend and (best is None or tj < best[0]):
                        best = (tj, j)
                t1 = fend if best is None else best[0]
                for j in range(m1):
                    if j != y and (best is None or j != best[1]):
                        budgets[y, j] -= sim._segment_depletion(qa[j], qb[j], t0, t1, dt)
                if best is None:
                    break
                budgets[y, best[1]] = gen.standard_exponential()
                jumps.append(((step + t1) * dt, y, best[1]))
                y, t0 = best[1], t1
    return jumps, budgets


@pytest.mark.parametrize("case", ["steps", "blocks", "three_states", "exits"])
def test_ensemble_matches_reference_walk(fast_chain, monkeypatch, case):
    # regimes the lockstep walk handles beyond one jump per block: several
    # jumps in one step, several in one block, three states (two clocks per
    # state) and an exit inside a block that also holds a crossing; the
    # rates are scaled up, which the walk does not check against the spectrum
    import eigencoupler.simulate as sim
    pipe = build_pipeline("triple_well", 0.3, 400) if case == "three_states" else fast_chain
    scale, budget, dt, absorb = {"steps": (400.0, 0.04, 2e-3, None),
                                 "blocks": (20.0, 1.0, 2e-3, None),
                                 "three_states": (100.0, 1.0, 1e-3, None),
                                 "exits": (20.0, 1.0, 2e-3, (0.5, 50.0))}[case]
    model = dataclasses.replace(pipe.model, Q=pipe.model.Q * scale)
    monkeypatch.setattr(sim, "_Y_REPLAY_BUDGET", budget)
    block = sim._y_block_size(model, dt)
    cfg = EnsembleConfig(n_paths=40, dt=dt, horizon=1.0, seed=17,
                         store_stride=1, absorb=absorb)
    recs = simulate_ensemble(cfg, model, pipe.potential)
    bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(model.grid_nodes)))
    shared_step = shared_block = exit_crossing = 0
    for i, rec in enumerate(recs):
        g = path_stream(17, i)
        x0, y0 = sample_initial(model, g)
        path = sim._Diffusion(pipe.potential, model.eps, np.array([x0]),
                              sim._NoiseTape([g], cfg.n_steps, sim._NOISE_BLOCK), dt, bound,
                              np.arange(cfg.n_steps + 1), absorb)
        for _ in path.windows(sim._NOISE_BLOCK):
            pass
        exit_step = int(path.exit_steps[0])
        jumps, clocks = _reference_walk(path.stored[:, 0], model, y0, clock_stream(17, i),
                                        dt, exit_step, float(path.exit_fracs[0]))
        assert rec.jumps == tuple(jumps)
        np.testing.assert_array_equal(rec.clocks, clocks)
        if absorb is None:
            one = simulate_y_given_x(path.stored[:, 0], model, y0, clock_stream(17, i), dt)
            assert one.jumps == rec.jumps
            np.testing.assert_array_equal(one.clocks, clocks)
        steps = [int(t / dt) for t, _, _ in jumps]
        shared_step += sum(a == b for a, b in zip(steps, steps[1:]))
        shared_block += sum(a // block == b // block for a, b in zip(steps, steps[1:]))
        exit_crossing += any(s // block == exit_step // block for s in steps)
    if case == "steps":
        assert shared_step > 0
    elif case == "exits":
        assert exit_crossing > 0 and sum(r.exit_time is not None for r in recs) > 20
    else:
        assert block > 1 and shared_block > 0


def _record_digest(recs):
    h = hashlib.sha256()
    for r in recs:
        for a in (r.times, r.x, r.y, r.clocks):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        h.update(repr([(float(t), int(i), int(j)) for t, i, j in r.jumps]).encode())
        h.update(repr(r.exit_time).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name, digest", [
    ("jumps", "aea8c5abb1033cbc"),          # blocks of 2 steps, 818 jumps
    ("triple_well", "552fef0faf529c54"),    # 3 states, 154 jumps
    ("absorbing", "3a7750d9d477f16e"),      # 87 of 100 paths absorbed
    ("quiet", "b13b7b5c0a98bacf"),          # blocks of 256 steps, 55 jumps
])
def test_records_match_pinned_digests(name, digest):
    # every field of every record, pinned from the walk that replayed each
    # flagged path alone with a scalar cascade, which the lockstep walk
    # replaced without changing a bit; the quiet case from the walk that
    # allocated every tile's temporaries anew
    import eigencoupler.simulate as sim
    if name == "jumps":
        pipe = build_pipeline("double_well", 0.5, 400)
        cfg = EnsembleConfig(n_paths=200, dt=4e-3, horizon=20.0, seed=601,
                             store_stride=50)
    elif name == "triple_well":
        pipe = build_pipeline("triple_well", 0.2, 400)
        cfg = EnsembleConfig(n_paths=200, dt=1e-3, horizon=10.0, seed=5,
                             store_stride=100)
    elif name == "quiet":
        # the small-noise regime, where a block holds more steps than a
        # window holds blocks: _block_sums takes its cumsum branch
        pipe = build_pipeline("double_well", 0.1, 400)
        cfg = EnsembleConfig(n_paths=200, dt=4e-4, horizon=16.0, seed=601,
                             store_stride=100)
        assert sim._y_block_size(pipe.model, cfg.dt) == 256
    else:
        pipe = build_pipeline("double_well", 0.15, 400)
        m = pipe.potential.minima
        cfg = EnsembleConfig(n_paths=100, dt=1e-3, horizon=40.0, seed=5,
                             x0=float(m[0]), y0=0, store_stride=100,
                             absorb=(m[1] - 0.5, m[1] + 0.5))
    recs = simulate_ensemble(cfg, pipe.model, pipe.potential)
    assert _record_digest(recs) == digest


def _probe_times(ens):
    """t = 0, every jump time, the midpoints between a path's jumps and T."""
    t = ens.jump_t
    same_path = np.diff(np.repeat(np.arange(len(ens)), np.diff(ens.jump_offsets))) == 0
    mid = 0.5 * (t[:-1] + t[1:])[same_path]
    return [0.0, *t.tolist(), *mid.tolist(), float(ens.times[-1])]


@pytest.mark.parametrize("case", ["three_states", "absorbing"])
def test_ensemble_y_at_matches_records(fast_chain, case):
    # the vectorized y_at reads the flat jump log as every record's own
    # y_at reads its jumps, at t = 0, exactly at jump times, between jumps
    # and at T; the stored x columns are the records' stored rows
    if case == "three_states":
        pipe = build_pipeline("triple_well", 0.3, 400)
        model = dataclasses.replace(pipe.model, Q=pipe.model.Q * 100.0)
        cfg = EnsembleConfig(n_paths=30, dt=1e-3, horizon=1.0, seed=17,
                             store_stride=10)
    else:
        pipe = fast_chain
        model = dataclasses.replace(pipe.model, Q=pipe.model.Q * 20.0)
        cfg = EnsembleConfig(n_paths=30, dt=2e-3, horizon=1.0, seed=17,
                             store_stride=10, absorb=(0.5, 50.0))
    ens = simulate_ensemble(cfg, model, pipe.potential)
    recs = list(ens)
    assert len(ens.jump_t) > 2 * len(ens) and len(recs) == len(ens)
    if case == "absorbing":
        assert 0 < sum(r.exit_time is not None for r in recs) < len(ens)
    for t in _probe_times(ens):
        np.testing.assert_array_equal(ens.y_at(t), [r.y_at(t) for r in recs])
    # past some path's exit time, x_at_stored raises as that record's does
    raised = 0
    for t in ens.times[::7]:
        gone = [r for r in recs if r.exit_time is not None and r.exit_time < t]
        if gone:
            raised += 1
            with pytest.raises(ValueError):
                ens.x_at_stored(t)
            with pytest.raises(ValueError):
                gone[0].x_at_stored(t)
        else:
            np.testing.assert_array_equal(ens.x_at_stored(t),
                                          [r.x_at_stored(t) for r in recs])
    assert 0 < raised < len(ens.times[::7]) if case == "absorbing" else raised == 0


@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_absorbed_paths_hold_their_exit_point(fast_chain, x0):
    # stored x after an exit reads the exit point; from x0 = 1 every path
    # exits at once, and the chunk stops after its first window
    pipe = fast_chain
    cfg = EnsembleConfig(n_paths=20, dt=2e-3, horizon=4.0, seed=3,
                         x0=x0, y0=0, store_stride=10, absorb=(0.5, 50.0))
    ens = simulate_ensemble(cfg, pipe.model, pipe.potential)
    assert (~np.isnan(ens.exit_time)).sum() >= 10
    after = ens.times[:, None] > ens.exit_time           # never where NaN
    np.testing.assert_array_equal(ens.x[after],
                                  np.broadcast_to(ens.exit_x, ens.x.shape)[after])


def test_chunk_peak_memory_independent_of_blocks_per_window(monkeypatch):
    # blocks of 2 steps: a window of W steps holds W / 2 blocks per path, yet
    # the chain's temporaries are tiled over a fixed number of path-steps, so
    # four times the window adds only the chunk's own window and noise rows
    import tracemalloc
    import eigencoupler.simulate as sim
    pipe = build_pipeline("double_well", 0.5, 400)
    model, pot = pipe.model, pipe.potential
    bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(model.grid_nodes)))
    cfg = EnsembleConfig(n_paths=512, dt=4e-3, horizon=8.0, seed=3,
                         store_stride=50)
    assert sim._y_block_size(model, cfg.dt) == 2
    peaks = []
    for window in (512, 2048):
        monkeypatch.setattr(sim, "_NOISE_BLOCK", window)
        tracemalloc.start()
        try:
            recs = sim._run_chunk(cfg, [model], pot, np.arange(512), [bound])[0]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert sum(len(r.jumps) for r in recs) > 500
    grown = 8 * 1536 * (2 * cfg.n_paths + sim._NOISE_GROUP)   # window, noise, buffer
    assert peaks[1] <= peaks[0] + grown + 2 ** 16


def test_replay_reads_only_written_window_rows(fast_chain, monkeypatch):
    # the regime of the reference walk's "blocks" case: 500 steps in blocks
    # of 8, one window of 512 steps, so the last block runs past n_steps.
    # With every fresh float array NaN-filled, a read of a window row past
    # the window's last written one casts a NaN position to an index, which
    # the suite's RuntimeWarning filter (pyproject.toml) turns into a failure.
    import eigencoupler.simulate as sim
    model = dataclasses.replace(fast_chain.model, Q=fast_chain.model.Q * 20.0)
    monkeypatch.setattr(sim, "_Y_REPLAY_BUDGET", 1.0)
    cfg = EnsembleConfig(n_paths=40, dt=2e-3, horizon=1.0, seed=17,
                         store_stride=1)
    block = sim._y_block_size(model, cfg.dt)
    assert block == 8 and cfg.n_steps % block and cfg.n_steps < sim._NOISE_BLOCK
    ref = simulate_ensemble(cfg, model, fast_chain.potential)
    empty = np.empty

    def poisoned(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(sim.np, "empty", poisoned)
    recs = simulate_ensemble(cfg, model, fast_chain.potential)
    assert _record_digest(recs) == _record_digest(ref)
    assert sum(len(r.jumps) for r in recs) > 0


def _assert_same_ensemble(a, b):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb, err_msg=field.name)
        else:
            assert va == vb, field.name


# noise levels, dt, horizon and the levels' y-blocks
_LOCKSTEP = {
    # the sweep_quiet shape: three levels of 256-step blocks and windows
    "quiet": ((0.15, 0.1, 0.07), 1e-4, 1.0, [256, 256, 256]),
    # windows of 162, 155 and 125 steps, which never align: the tape holds
    # rows of two windows and wraps around its ring
    "mixed": ((0.5, 0.2, 0.1), 1e-3, 2.0, [9, 31, 125]),
}


@pytest.mark.parametrize("case", ["quiet", "mixed", "chunks"])
def test_ensembles_match_one_level_runs(monkeypatch, case):
    # every field of every level equals that of the level's own
    # simulate_ensemble, one chunk or several on two workers; the normals
    # of a chunk are drawn once for all its levels
    import eigencoupler.simulate as sim
    levels, dt, horizon, blocks = _LOCKSTEP["mixed" if case == "chunks" else case]
    pipes = [build_pipeline("double_well", eps, 400) for eps in levels]
    assert [sim._y_block_size(p.model, dt) for p in pipes] == blocks
    cfg = EnsembleConfig(n_paths=100, dt=dt, horizon=horizon, seed=601, store_stride=50)
    refs = [simulate_ensemble(cfg, p.model, p.potential) for p in pipes]
    chunks, drawn = [], []
    run_chunk, draw = sim._run_chunk, sim._NoiseTape._draw
    monkeypatch.setattr(sim, "_run_chunk", lambda *args: chunks.append(1) or run_chunk(*args))
    monkeypatch.setattr(sim._NoiseTape, "_draw",
                        lambda self, a, nb: drawn.append(nb) or draw(self, a, nb))
    if case == "chunks":
        monkeypatch.setattr(sim, "_CHUNK_BYTES", 2 ** 15)
        cfg = dataclasses.replace(cfg, workers=2)
    got = simulate_ensembles(cfg, [p.model for p in pipes], pipes[0].potential)
    assert len(got) == len(levels) and sum(len(e.jump_t) for e in got) > 0
    for ens, ref in zip(got, refs):
        _assert_same_ensemble(ens, ref)
    assert len(chunks) > 2 if case == "chunks" else len(chunks) == 1
    assert sum(drawn) == len(chunks) * cfg.n_steps


def test_ensembles_blow_up_at_one_level(monkeypatch):
    # NaN starts at the second level only: its first window raises, after
    # the first level has run its own
    import eigencoupler.simulate as sim
    pipes = [build_pipeline("double_well", eps, 400) for eps in (0.2, 0.1)]
    initial = sim.sample_initial

    def nan_at_second(model, rng):
        x0, y0 = initial(model, rng)
        return (x0 * np.nan if model is pipes[1].model else x0), y0

    monkeypatch.setattr(sim, "sample_initial", nan_at_second)
    cfg = EnsembleConfig(n_paths=10, dt=1e-3, horizon=0.5, seed=3)
    with pytest.raises(BlowUpError):
        simulate_ensembles(cfg, [p.model for p in pipes], pipes[0].potential)


def test_ensembles_need_a_model(fast_chain):
    cfg = EnsembleConfig(n_paths=4, dt=2e-3, horizon=0.1, seed=5)
    with pytest.raises(ValueError, match="at least one coupling model"):
        simulate_ensembles(cfg, [], fast_chain.potential)


def test_tilt_modes_allocate_nothing_with_scratch(dw_small):
    # the cell is found in floats, so with its temporaries in scratch a call
    # on a 513 x 127 tile allocates nothing of its size; the values are
    # bitwise those of the int64 cell over the whole escape bound
    import tracemalloc
    import eigencoupler.simulate as sim
    model = dw_small.model
    tilts = sim._Tilts(model)
    bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(model.grid_nodes)))
    x = np.random.default_rng(1).uniform(-bound, bound, (513, 127))
    x[0, :len(model.grid_nodes)] = model.grid_nodes[:127]
    x[1, :3] = (-bound, bound, 0.0)
    pos = (x - tilts.origin) / tilts.h
    idx = np.clip(pos.astype(np.int64), 0, tilts.left.shape[1] - 1)
    frac = np.clip(pos - idx, 0.0, 1.0)
    want = tilts.slope[:, idx] * frac + tilts.left[:, idx]
    scratch, out = sim._Scratch(), np.empty((len(tilts.left),) + x.shape)
    tilts.modes(x, out, scratch)           # sizes the scratch arrays
    tracemalloc.start()
    try:
        tilts.modes(x, out, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(tilts.modes(x), want)
