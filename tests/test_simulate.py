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


def test_blowup_guard():
    rng = path_stream(0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError):
            # far out, the quartic drift oversteps even at an allowed dt:
            # the path oscillates and explodes
            simulate_x(DW, 0.1, 25.0, 4e-3, 2.0, rng)


@pytest.mark.parametrize("preset,eps", [("double_well", 0.1), ("triple_well", 0.05),
                                        ("quadratic", 0.5)])
def test_simulate_x_default_bound_is_the_ensemble_bound(preset, eps):
    # one escape rule: ten times the larger of |x0| and the grid's half-width
    import eigencoupler.simulate as sim
    pipe = build_pipeline(make_potential(preset), eps, 300)
    ensemble_bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(pipe.model.grid_nodes)))
    assert sim._escape_bound(pipe.potential, eps, 0.0) == ensemble_bound
    x0 = -3 * ensemble_bound
    assert sim._escape_bound(pipe.potential, eps, x0) == sim.ESCAPE_FACTOR * abs(x0)
    assert sim._escape_bound(pipe.potential, 0.0, 0.0) > 0


def test_blowup_guard_catches_nan():
    # NaN fails every comparison, so a guard reading `max > bound` lets a NaN
    # path run to the horizon
    with pytest.raises(BlowUpError):
        simulate_x(DW, 0.1, np.nan, 1e-3, 1.0, path_stream(0, 0))


def test_blowup_guard_runs_before_the_chain_reads_a_window(monkeypatch):
    # an inf in one path's gradient at Euler step 300, between two 256-step
    # checks: the guard raises at its window's last step, numpy warns of
    # nothing (the suite turns RuntimeWarnings into errors), and the chain
    # reads no window holding a non-finite x
    import eigencoupler.simulate as sim
    from eigencoupler.potential import Potential
    pipe = build_pipeline("double_well", 0.2, 400)
    grad_into, advance, steps, finite = Potential.grad_into, sim._ChainWalk.advance, [], []

    def inf_at_step_300(self, x, out):
        grad_into(self, x, out)
        if len(steps) == 300:
            out[3] = np.inf
        steps.append(len(steps))
        return out

    def read(self, win, r0, w0, w1, *args):
        finite.append(bool(np.isfinite(win[:w1 - r0 + 1]).all()))
        return advance(self, win, r0, w0, w1, *args)

    monkeypatch.setattr(Potential, "grad_into", inf_at_step_300)
    monkeypatch.setattr(sim._ChainWalk, "advance", read)
    cfg = EnsembleConfig(n_paths=10, dt=1e-3, horizon=1.0, seed=3)
    with pytest.raises(BlowUpError):
        simulate_ensemble(cfg, pipe.model, pipe.potential)
    assert 300 < len(steps) < 1000 and all(finite)


def test_ou_variance_matches_closed_form():
    # stationary variance eps, relaxation rate 1: Var X(T) = eps (1 - e^{-2T})
    quad = make_potential("quadratic")
    eps, T, dt, n = 0.5, 5.0, 1e-3, 10000
    import eigencoupler.simulate as sim
    n_steps = int(T / dt)
    noise = sim._NoiseTape([path_stream(3, i) for i in range(n)], n_steps, sim._NOISE_BLOCK)
    path = sim._Diffusion(quad, eps, np.zeros(n), noise, dt, 100.0,
                          np.array([0, n_steps]))
    win = np.empty((sim._NOISE_BLOCK + 2, n))      # the caller's window buffer
    while path.w0 < n_steps:
        path.advance(win)
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
    taus = first_exit_time(simulate_ensemble(cfg, pipe.model, pipe.potential), {1}, "y")
    taus = taus[~np.isnan(taus)]
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
    ens = simulate_ensemble(cfg, model, pipe.potential)
    assert len(ens.jump_t) == 0
    assert (ens.y0 == 0).all() and (ens.y_at(cfg.horizon) == 0).all()


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
    counts = np.diff(simulate_ensemble(cfg, pipe.model, pipe.potential).jump_offsets)
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - expected) <= 3 * se


def test_ensemble_deterministic(fast_chain):
    pipe = fast_chain
    cfg = EnsembleConfig(n_paths=4, dt=2e-3, horizon=2.0, seed=5,
                         store_stride=1)
    a = simulate_ensemble(cfg, pipe.model, pipe.potential)
    b = simulate_ensemble(cfg, pipe.model, pipe.potential)
    _assert_same_ensemble(a, b)


def test_ensemble_matches_sequential_composition(fast_chain):
    # the ensemble is bit-identical to drawing each path's stream and running
    # the single-path operations in order
    pipe = fast_chain
    model, pot = pipe.model, pipe.potential
    cfg = EnsembleConfig(n_paths=5, dt=2e-3, horizon=6.0, seed=11,
                         store_stride=1)
    ens = simulate_ensemble(cfg, model, pot)
    assert len(ens.jump_t) > 0
    for i, one in enumerate(ens):
        g = path_stream(11, i)
        x0, y0 = sample_initial(model, g)
        x = simulate_x(pot, 0.5, x0, 2e-3, 6.0, g)
        _assert_same_path(one, simulate_y_given_x(x, model, y0, clock_stream(11, i), 2e-3))


def test_fixed_start_beyond_the_grid_matches_sequential_composition():
    # a start twelve grid half-widths out: simulate_x widens its escape
    # bound to |x0|, and so does the ensemble, which equals the composition
    pipe = build_pipeline("double_well", 0.2, 400)
    model, pot = pipe.model, pipe.potential
    x0 = 12 * float(np.max(np.abs(model.grid_nodes)))
    cfg = EnsembleConfig(n_paths=3, dt=1e-4, horizon=0.1, seed=5, x0=x0, y0=0)
    ens = simulate_ensemble(cfg, model, pot)
    assert (np.abs(ens.x[-1]) < 3.0).all()
    for i, one in enumerate(ens):
        x = simulate_x(pot, 0.2, x0, cfg.dt, cfg.horizon, path_stream(5, i))
        _assert_same_path(one, simulate_y_given_x(x, model, 0, clock_stream(5, i), cfg.dt))


def test_ensemble_chunking_and_workers_invariant(fast_chain, monkeypatch):
    import eigencoupler.simulate as sim
    pipe = fast_chain
    cfg = EnsembleConfig(n_paths=6, dt=2e-3, horizon=2.0, seed=5,
                         store_stride=1)
    ref = simulate_ensemble(cfg, pipe.model, pipe.potential)
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 16.0 * 1000 * 2)
    # three usable CPUs, so the threads run on a machine with fewer
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    cfg2 = dataclasses.replace(cfg, workers=3)
    _assert_same_ensemble(simulate_ensemble(cfg2, pipe.model, pipe.potential), ref)


def test_ensemble_threads_capped_at_usable_cpus(fast_chain, monkeypatch):
    # a worker count far above the CPUs gets one thread per CPU the process
    # may use (the affinity set, else the CPU count), not one per path; a
    # serial stand-in for the pool records its size and starts no thread
    import eigencoupler.simulate as sim
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sim, "ThreadPoolExecutor", SerialPool)
    pipe = fast_chain
    cfg = EnsembleConfig(n_paths=4, dt=2e-3, horizon=0.2, seed=5, store_stride=1)
    ref = simulate_ensemble(cfg, pipe.model, pipe.potential)
    many = dataclasses.replace(cfg, workers=10 ** 6)
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    _assert_same_ensemble(simulate_ensemble(many, pipe.model, pipe.potential), ref)
    monkeypatch.delattr(sim.os, "sched_getaffinity")
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    _assert_same_ensemble(simulate_ensemble(many, pipe.model, pipe.potential), ref)
    assert sizes == [3, 2]


def test_ensemble_tiles_and_noise_blocks_invariant(fast_chain, monkeypatch):
    # y-kernel tiles, noise blocks and noise groups narrower than the ensemble,
    # none dividing it evenly, change no bit of any record; in the quiet
    # regime (blocks of 256 steps) the scan runs on 1-path tiles
    import eigencoupler.simulate as sim
    # dt gives blocks of more than 8 steps, where numpy's pairwise sums
    # would round differently at width one
    busy = EnsembleConfig(n_paths=23, dt=5e-4, horizon=2.0, seed=13, store_stride=1)
    quiet = EnsembleConfig(n_paths=12, dt=4e-4, horizon=8.0, seed=13, store_stride=1)
    cases = ((fast_chain, busy), (build_pipeline("double_well", 0.1, 400), quiet))
    refs = [simulate_ensemble(cfg, pipe.model, pipe.potential) for pipe, cfg in cases]
    monkeypatch.setattr(sim, "_NOISE_BLOCK", 7)
    monkeypatch.setattr(sim, "_NOISE_GROUP", 4)
    for (pipe, cfg), ref in zip(cases, refs):
        model, pot = pipe.model, pipe.potential
        block = sim._y_block_size(model, cfg.dt)
        assert block > 8 and cfg.n_steps % 7 != 0
        assert cfg is busy or block == 256
        monkeypatch.setattr(sim, "_Y_TILE_ELEMS", 5 * (block + 1) if cfg is busy else 1)
        ens = simulate_ensemble(cfg, model, pot)
        assert len(ens.jump_t) > 0
        _assert_same_ensemble(ens, ref)
        if cfg is busy:
            for i, one in enumerate(ens):
                g = path_stream(13, i)
                x0, y0 = sample_initial(model, g)
                x = simulate_x(pot, model.eps, x0, cfg.dt, cfg.horizon, g)
                _assert_same_path(one, simulate_y_given_x(x, model, y0, clock_stream(13, i),
                                                          cfg.dt))


def test_chunk_peak_memory_excludes_noise(dw_small):
    # the chunk holds its full-resolution x and nothing of its size besides:
    # a (n_steps, C) noise array would double the peak
    import tracemalloc
    import eigencoupler.simulate as sim
    model, pot = dw_small.model, dw_small.potential
    for absorb in (None, (0.5, 1.5)):
        cfg = EnsembleConfig(n_paths=64, dt=1e-3, horizon=20.0, seed=3,
                             x0=0.0, y0=0, store_stride=1000, absorb=absorb)
        tracemalloc.start()
        try:
            ens = sim._run_chunk(cfg, [model], pot, np.arange(64))[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 8 * (cfg.n_steps + 1) * cfg.n_paths
        if absorb is not None:
            n_absorbed = np.count_nonzero(~np.isnan(ens.exit_time))
            assert 0 < n_absorbed < cfg.n_paths


def test_chunk_peak_memory_independent_of_steps(dw_small):
    # x and y advance window by window, so ten times the steps add only the
    # longer stored rows to a chunk's peak; the slack covers the jump log,
    # which grows with the horizon by tens of kB here
    import tracemalloc
    import eigencoupler.simulate as sim
    model, pot = dw_small.model, dw_small.potential
    for absorb in (None, (0.5, 1.5)):
        peaks = []
        for horizon in (2.0, 20.0):
            cfg = EnsembleConfig(n_paths=64, dt=1e-3, horizon=horizon, seed=3,
                                 x0=0.0, y0=0, store_stride=1000, absorb=absorb)
            tracemalloc.start()
            try:
                sim._run_chunk(cfg, [model], pot, np.arange(64))
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
        sim._run_chunk(cfg, [model], pot, np.arange(512))
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
    ens = simulate_ensemble(cfg, pipe.model, pipe.potential)
    yT = ens.y_at(ens.times[-1]).astype(float)
    se = yT.std(ddof=1) / np.sqrt(len(yT))
    assert abs(yT.mean() - expected) <= 3 * se


def test_first_exit_time_semantics(fast_chain_decoupled):
    pipe = fast_chain_decoupled
    q01 = pipe.spec.Q[0, 1]
    cfg = EnsembleConfig(n_paths=400, dt=2e-3, horizon=8.0, seed=2,
                         x0=0.0, y0=0, store_stride=100)
    ens = simulate_ensemble(cfg, pipe.model, pipe.potential)
    # never-hit region -> NaN
    assert np.isnan(first_exit_time(ens, (50.0, 60.0), target="x")).all()
    # chain hitting {1} is the first jump time
    taus = first_exit_time(ens, {1}, target="y")
    moved = np.diff(ens.jump_offsets) > 0
    np.testing.assert_array_equal(taus[moved], ens.jump_t[ens.jump_offsets[:-1][moved]])
    assert np.isnan(taus[~moved]).all()
    taus = taus[moved]
    se = taus.std(ddof=1) / np.sqrt(len(taus))
    assert abs(taus.mean() - 1.0 / q01) <= 3 * se


def test_first_exit_interpolates_crossing(fast_chain):
    pipe = fast_chain
    cfg = EnsembleConfig(n_paths=1, dt=2e-3, horizon=4.0, seed=9,
                         store_stride=1)
    ens = simulate_ensemble(cfg, pipe.model, pipe.potential)
    rows = ens.rows(0, 1)
    # threshold strictly above the start so the hit happens mid-path
    lo = max(float(np.quantile(rows.x, 0.8)), float(rows.x[0]) + 0.05)
    assert float(np.max(rows.x)) > lo
    tau = first_exit_time(ens, (lo, np.inf), target="x")[0]
    assert tau > 0
    k = int(np.searchsorted(rows.t, tau))
    assert rows.t[k - 1] <= tau <= rows.t[k]


def _first_exit_reference(one, region, target):
    """One path's first hit: the first jump into the set of states, or the
    first of its rows inside the interval, interpolated from the row before
    it; 0 from inside, NaN for none."""
    if target == "y":
        if int(one.y0[0]) in region:
            return 0.0
        return next((t for t, to in zip(one.jump_t, one.jump_to) if to in region), np.nan)
    lo, hi = region
    rows = one.rows(0, 1)
    inside = np.flatnonzero((rows.x >= lo) & (rows.x <= hi))
    if not inside.size:
        return np.nan
    k = inside[0]
    if k == 0:
        return 0.0
    prev, cur = rows.x[k - 1], rows.x[k]
    boundary = lo if prev < lo else hi
    denom = cur - prev
    frac = 0.0 if denom == 0 else (boundary - prev) / denom
    t0, t1 = rows.t[k - 1], rows.t[k]
    return float(t0 + np.clip(frac, 0.0, 1.0) * (t1 - t0))


@pytest.mark.parametrize("case", ["absorbing", "busy", "three_states"])
def test_first_exit_time_matches_records(fast_chain, case):
    # the columnar first hit is each path's alone, bit for bit: on absorbed
    # paths, where a jump row is one of the two straddling the boundary,
    # from inside, never, and into a set of states holding y0
    if case == "three_states":
        pipe = build_pipeline("triple_well", 0.3, 400)
        model = dataclasses.replace(pipe.model, Q=pipe.model.Q * 100.0)
        cfg = EnsembleConfig(n_paths=40, dt=1e-3, horizon=1.0, seed=17, store_stride=10)
    else:
        pipe = fast_chain
        model = dataclasses.replace(pipe.model, Q=pipe.model.Q * 20.0)
        cfg = EnsembleConfig(n_paths=40, dt=2e-3, horizon=1.0, seed=17, store_stride=10,
                             absorb=(0.5, 50.0) if case == "absorbing" else None)
    ens = simulate_ensemble(cfg, model, pipe.potential)
    paths = list(ens)
    regions = [((0.5, 50.0), "x"), ((-0.3, 0.3), "x"), ((50.0, 60.0), "x"),
               ((0.2, np.inf), "x"), ({0}, "y"), ({1, 2}, "y")]
    found = {}
    for region, target in regions:
        got = first_exit_time(ens, region, target)
        want = np.array([_first_exit_reference(one, region, target) for one in paths])
        np.testing.assert_array_equal(got, want)
        found[str(region)] = got
    assert np.isnan(found["(50.0, 60.0)"]).all()
    assert 0 < np.count_nonzero(found["(-0.3, 0.3)"] == 0.0) < len(ens)
    assert 0 < np.count_nonzero(found["{0}"] == 0.0) < len(ens)
    if case == "busy":
        # some hit of x >= 0.2 is interpolated across a jump row
        inserted = 0
        for one in paths:
            rows = one.rows(0, 1)
            k = np.flatnonzero(rows.x >= 0.2)
            if k.size and k[0] > 0:
                inserted += not np.isin(rows.t[k[0] - 1:k[0] + 1], ens.times).all()
        assert inserted > 0
    if case == "absorbing":
        assert 0 < np.count_nonzero(~np.isnan(ens.exit_time)) < len(ens)


def test_dt_refinement_tv_stable():
    pipe = build_pipeline("double_well", 0.1, 1000)
    model, pot = pipe.model, pipe.potential
    tvs = {}
    for dt in (2e-4, 1e-4):
        cfg = EnsembleConfig(n_paths=4000, dt=dt, horizon=1.0, seed=9,
                             store_stride=int(round(0.5 / dt)))
        ens = simulate_ensemble(cfg, model, pot)
        xT, yT = ens.x[-1], ens.y_at(ens.times[-1])
        tvs[dt] = max(tv_distance(xT[yT == j], model.cond[j], model.grid_nodes, 50)
                      for j in (0, 1))
    assert tvs[2e-4] <= 0.12 and tvs[1e-4] <= 0.12
    assert abs(tvs[2e-4] - tvs[1e-4]) <= 0.03


def test_absorb_mode_stops_paths():
    pipe = build_pipeline("double_well", 0.2, 500)
    ball = (0.5, 1.5)
    cfg = EnsembleConfig(n_paths=100, dt=1e-3, horizon=80.0, seed=4,
                         x0=-1.0, y0=0, store_stride=50, absorb=ball)
    ens = simulate_ensemble(cfg, pipe.model, pipe.potential)
    taus = first_exit_time(ens, ball, target="x")
    absorbed = np.flatnonzero(~np.isnan(ens.exit_time))
    assert len(absorbed) >= 95
    rows = ens.rows(0, len(ens))
    last = rows.offsets[1:][absorbed] - 1          # each absorbed path's last row
    np.testing.assert_array_equal(rows.t[last], ens.exit_time[absorbed])
    assert ((ball[0] <= rows.x[last]) & (rows.x[last] <= ball[1])).all()
    np.testing.assert_allclose(taus[absorbed], ens.exit_time[absorbed], rtol=0, atol=1e-12)


@pytest.mark.parametrize("key, value, ok", [
    ("n_paths", 0, False), ("n_paths", 2 ** 63 - 1, True), ("n_paths", 2 ** 63, False),
    ("n_paths", 2.5, False), ("seed", -1, False), ("seed", 2 ** 64 - 1, True),
    ("seed", 2 ** 64, False), ("store_stride", 0, False),
    ("store_stride", 2 ** 63 - 1, True), ("store_stride", 2 ** 63, False),
    ("T", 2.0 ** 62, True), ("T", 2.0 ** 63, False),
])
def test_config_file_and_ensemble_config_share_each_rule(key, value, ok):
    # a config file and an EnsembleConfig accept the same sizes, seeds and
    # step counts
    from eigencoupler.config import parse_config
    from eigencoupler.errors import ConfigError
    sim = {"dt": 1.0, "T": 2.0, "n_paths": 1, "seed": 0, "store_stride": 1, key: value}
    try:
        parse_config({"potential": "double_well", "epsilon": 0.1, "simulation": sim})
        file_ok = True
    except ConfigError:
        file_ok = False
    try:
        EnsembleConfig(n_paths=sim["n_paths"], dt=sim["dt"], horizon=sim["T"],
                       seed=sim["seed"], store_stride=sim["store_stride"])
        ensemble_ok = True
    except ValueError:
        ensemble_ok = False
    assert file_ok == ensemble_ok == ok


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
    # an empty or unordered absorbing interval would absorb nothing, and no
    # workers would run as one
    for absorb in ((1.5, 0.5), (0.5, 0.5), (0.0, np.inf), (np.nan, 1.0), (0.0,),
                   (0.0, 1.0, 2.0), ("a", "b"), 1.0):
        with pytest.raises(ValueError, match="absorb"):
            EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=0, absorb=absorb)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=0, workers=workers)
    EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=0, absorb=(-1.0, 0.5))
    # a horizon off the dt grid would run to round(horizon / dt) * dt
    with pytest.raises(ValueError, match="horizon 0.2 is not a whole number"):
        EnsembleConfig(n_paths=4, dt=3e-4, horizon=0.2, seed=1, store_stride=1000)
    EnsembleConfig(n_paths=4, dt=4e-4, horizon=0.2, seed=1)
    # non-finite or overflowing step counts, fractional sizes, seeds that
    # are not u64 and non-finite starts fail here, before any work
    for dt, horizon in ((np.nan, 1.0), (np.inf, 1.0), (1e-3, np.nan), (1e-3, np.inf),
                        (1e-300, 1e300)):
        with pytest.raises(ValueError, match="dt"):
            EnsembleConfig(n_paths=1, dt=dt, horizon=horizon, seed=0)
    with pytest.raises(ValueError, match="n_paths"):
        EnsembleConfig(n_paths=2.5, dt=1e-3, horizon=1.0, seed=0)
    with pytest.raises(ValueError, match="store_stride"):
        EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=0, store_stride=2.5)
    for seed in (-1, 2 ** 64, 1.5):
        with pytest.raises(ValueError, match="seed"):
            EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=seed)
    for x0, y0 in ((np.nan, 0), (np.inf, 0), (0.0, -1), (0.0, 0.5)):
        with pytest.raises(ValueError, match="fixed start"):
            EnsembleConfig(n_paths=1, dt=1e-3, horizon=1.0, seed=0, x0=x0, y0=y0)


def test_fixed_start_outside_the_chain_fails_before_the_run(dw_small):
    # a fixed y0 = 5 names no state of the two-state chain
    pipe = dw_small
    cfg = EnsembleConfig(n_paths=3, dt=1e-3, horizon=0.1, seed=0, x0=0.0, y0=5)
    with pytest.raises(ValueError, match="y0 = 5"):
        simulate_ensemble(cfg, pipe.model, pipe.potential)


@pytest.mark.parametrize("width", [1, 2, 3, 255])
@pytest.mark.parametrize("block", [1, 2, 8, 9, 256])
def test_block_sums_add_each_block_step_by_step(width, block):
    # every block total is its first step, plus the second, and so on, bit
    # for bit, with and without a trailing partial block; at width one a
    # reduce along steps would sum pairwise and round differently
    import eigencoupler.simulate as sim
    rng = np.random.default_rng(width * 1000 + block)
    for n in (3 * block, 3 * block + 5, max(1, block - 4)):
        dep = rng.standard_cauchy((2, n, width)) * 10.0 ** rng.integers(-6, 7, (2, n, width))
        nb = -(-n // block)
        ref = np.empty((2, nb, width))
        for i, b in enumerate(range(0, n, block)):
            acc = dep[:, b].copy()
            for s in range(b + 1, min(n, b + block)):
                acc = acc + dep[:, s]
            ref[:, i] = acc
        cat = np.full((2, nb + 1, width), np.nan)    # out is a strided view
        got = sim._block_sums(dep, block, cat[:, 1:])
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def _settle_reference(walk, rows, s0, w1, tp, rel, exits):
    """_ChainWalk._settle's block test in its direct form, the reference
    _settle is held to: both masks applied to every tile, the crossing
    plane reduced over the targets by any, and the event found by any and
    argmax."""
    y, to, left = walk._pairs(tp)
    x = rows[:, tp]
    cat = np.empty((len(to), -(-(len(rows) - 1) // walk.block) + 1, len(tp)))
    cat[:, 0] = left
    total = walk._block_totals(x, y, to, cat[:, 1:])
    nb = total.shape[1]
    blocks = np.arange(nb)[:, None]
    if rel.any():
        total[:, blocks < rel] = 0.0
    start = np.subtract.accumulate(cat, axis=1)
    exit_block = np.where(exits < w1, (exits - s0) // walk.block, nb)
    crossed = ((total >= start[:, :-1]).any(axis=0)
               & (blocks >= rel) & (blocks < exit_block))
    event = np.where(crossed.any(axis=0), crossed.argmax(axis=0), exit_block)
    walk.budgets[tp, y, to] = start[:, event, np.arange(len(tp))]
    return event < nb, event


@pytest.mark.parametrize("preset, eps", [("double_well", 0.2), ("triple_well", 0.1)])
@pytest.mark.parametrize("block", [2, 16])
def test_settle_matches_the_reference_block_test(preset, eps, block):
    # k = 1 and k = 2 targets, blocks that take the strided adds and the
    # reduce: on random tiles, with and without late starts and exits inside
    # the window, in runs and gathers of paths, _settle finds the reference's
    # events and writes its budgets bit for bit; spent budgets make the
    # block before a late start cross unless it is masked
    import copy
    import eigencoupler.simulate as sim
    model = build_pipeline(preset, eps, 200).model
    m1, n_paths, dt, s0, w1 = model.n_states, 40, 0.25, 64, 192
    rng = np.random.default_rng(block * 10 + m1)
    clocks = sim._Clocks(lambda p, row, start: clock_stream(9, p).standard_exponential(out=row),
                         n_paths, 8)
    walk = sim._ChainWalk(model, rng.integers(0, m1, n_paths), clocks, dt, 4096)
    walk.block = block
    nb = (w1 - s0) // block
    scale = 0.5 * float(np.max(-np.diag(model.Q))) * dt * (w1 - s0)
    seen = {"late": 0, "exit": 0, "fired": 0, "quiet": 0}
    for trial in range(12):
        rows = rng.uniform(-1.6, 1.6, (w1 - s0 + 1, n_paths))
        off = ~np.eye(m1, dtype=bool)
        budgets = rng.exponential(scale, (n_paths, m1 * (m1 - 1)))
        budgets[rng.random(budgets.shape) < 0.05] = 0.0     # spent: crossed at once
        walk.budgets[:, off] = budgets
        walk.y = rng.integers(0, m1, n_paths)
        if trial % 3 == 0:
            tp = np.arange(5, 5 + 24)                          # a run: a view
        else:
            tp = np.sort(rng.choice(n_paths, 24, replace=False))
        rel = np.zeros(len(tp), dtype=np.int64)
        if trial % 2:
            rel[::3] = rng.integers(1, nb, len(rel[::3]))
        exits = np.full(len(tp), 4097, dtype=np.int64)
        if trial % 4 >= 2:
            inside = rng.random(len(tp)) < 0.4
            exits[inside] = s0 + rel[inside] * block + rng.integers(
                0, w1 - s0 - rel[inside] * block)
        ref = copy.deepcopy(walk)
        fired, event = walk._settle(rows, s0, w1, tp, rel, exits)
        want_fired, want_event = _settle_reference(ref, rows, s0, w1, tp, rel, exits)
        np.testing.assert_array_equal(fired, want_fired)
        np.testing.assert_array_equal(event, want_event)
        np.testing.assert_array_equal(walk.budgets.view(np.uint64),
                                      ref.budgets.view(np.uint64))
        seen["late"] += int(rel.any())
        seen["exit"] += int((exits < w1).any())
        seen["fired"] += int((fired & (exits >= w1)).sum())
        seen["quiet"] += int((~fired).sum())
    assert min(seen.values()) > 0


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
    ens = simulate_ensemble(cfg, model, pipe.potential)
    bound = sim.ESCAPE_FACTOR * float(np.max(np.abs(model.grid_nodes)))
    shared_step = shared_block = exit_crossing = 0
    for i, one in enumerate(ens):
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
        for k, column in enumerate((one.jump_t, one.jump_from, one.jump_to)):
            np.testing.assert_array_equal(column, [jump[k] for jump in jumps])
        np.testing.assert_array_equal(one.clocks[0], clocks)
        if absorb is None:
            _assert_same_path(one, simulate_y_given_x(path.stored[:, 0], model, y0,
                                                      clock_stream(17, i), dt))
        steps = [int(t / dt) for t, _, _ in jumps]
        shared_step += sum(a == b for a, b in zip(steps, steps[1:]))
        shared_block += sum(a // block == b // block for a, b in zip(steps, steps[1:]))
        exit_crossing += any(s // block == exit_step // block for s in steps)
    if case == "steps":
        assert shared_step > 0
    elif case == "exits":
        assert exit_crossing > 0 and np.count_nonzero(~np.isnan(ens.exit_time)) > 20
    else:
        assert block > 1 and shared_block > 0


def _record_digest(ens):
    """sha256 over each path's rows, clocks, jump triples and exit time
    (None where not absorbed), path by path."""
    h = hashlib.sha256()
    for k, one in enumerate(ens):
        rows = one.rows(0, 1)
        for a in (rows.t, rows.x, rows.y, ens.clocks[k]):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        h.update(repr(list(one.jumps)).encode())
        exit_time = float(one.exit_time[0])
        h.update(repr(None if np.isnan(exit_time) else exit_time).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name, digest", [
    ("jumps", "aea8c5abb1033cbc"),          # blocks of 2 steps, 818 jumps
    ("triple_well", "49309776c0ad64a7"),    # 3 states, 115 jumps
    ("absorbing", "7cc2561fb3680266"),      # 87 of 100 paths absorbed
    ("quiet", "36acde671c2ad57b"),          # blocks of 256 steps, 55 jumps
])
def test_records_match_pinned_digests(name, digest):
    # every path's rows, clocks, jumps and exit, pinned from the walk that replayed each
    # flagged path alone with a scalar cascade, which the lockstep walk
    # replaced without changing a bit; the quiet case from the walk that
    # allocated every tile's temporaries anew; all but jumps re-pinned when
    # the chain's eigenvectors became SVD null vectors (a few ulp); triple_well
    # and absorbing again when the critical points became exact (the
    # triple_well grid's L moved one ulp, the absorbing ball is centred on
    # the right minimum, 1.0000000000004547 before)
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
        # window holds blocks
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
    assert _record_digest(simulate_ensemble(cfg, pipe.model, pipe.potential)) == digest


def _probe_times(ens):
    """t = 0, every jump time, the midpoints between a path's jumps and T."""
    t = ens.jump_t
    same_path = np.diff(np.repeat(np.arange(len(ens)), np.diff(ens.jump_offsets))) == 0
    mid = 0.5 * (t[:-1] + t[1:])[same_path]
    return [0.0, *t.tolist(), *mid.tolist(), float(ens.times[-1])]


@pytest.mark.parametrize("case", ["three_states", "absorbing"])
def test_ensemble_y_at_matches_records(fast_chain, case):
    # the vectorized y_at reads the flat jump log as each path alone reads
    # its jumps, at t = 0, exactly at jump times, between jumps and at T;
    # the stored x columns are the paths' stored rows
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
    paths = list(ens)
    rows = [one.rows(0, 1) for one in paths]
    assert len(ens.jump_t) > 2 * len(ens) and len(paths) == len(ens)
    if case == "absorbing":
        assert 0 < np.count_nonzero(~np.isnan(ens.exit_time)) < len(ens)
    for t in _probe_times(ens):
        # a path's state at t: its first, then each jump at or before t
        np.testing.assert_array_equal(
            ens.y_at(t), [[one.y0[0], *(to for tj, to in zip(one.jump_t, one.jump_to)
                                        if tj <= t)][-1] for one in paths])
    # past some path's exit time, x_at_stored raises, as that path has no
    # row at t
    raised = 0
    for t in ens.times[::7]:
        at = [np.flatnonzero(np.abs(r.t - t) <= 1e-9) for r in rows]
        if not all(k.size for k in at):
            raised += 1
            with pytest.raises(ValueError):
                ens.x_at_stored(t)
        else:
            np.testing.assert_array_equal(ens.x_at_stored(t),
                                          [r.x[k[0]] for r, k in zip(rows, at)])
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
    cfg = EnsembleConfig(n_paths=512, dt=4e-3, horizon=8.0, seed=3,
                         store_stride=50)
    assert sim._y_block_size(model, cfg.dt) == 2
    peaks = []
    for window in (512, 2048):
        monkeypatch.setattr(sim, "_NOISE_BLOCK", window)
        tracemalloc.start()
        try:
            ens = sim._run_chunk(cfg, [model], pot, np.arange(512))[0]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(ens.jump_t) > 500
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
    ens = simulate_ensemble(cfg, model, fast_chain.potential)
    _assert_same_ensemble(ens, ref)
    assert len(ens.jump_t) > 0


def _assert_same_ensemble(a, b, skip=()):
    for field in dataclasses.fields(a):
        if field.name in skip:
            continue
        va, vb = getattr(a, field.name), getattr(b, field.name)
        np.testing.assert_array_equal(va, vb, err_msg=field.name, strict=True)


def _assert_same_path(one, ref):
    """Every column of a one-path ensemble but its path index equals that of
    a reference path, bit for bit."""
    _assert_same_ensemble(one, ref, skip=("path_index",))


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


def test_clock_refills_are_exact(monkeypatch):
    # a busy chain over a horizon long enough that some path reads past its
    # first fill of clock draws: the refill gives the draws the path's clock
    # stream gives next, one chunk or several on two workers, and
    # simulate_y_given_x draws on from its own rng
    import eigencoupler.simulate as sim
    pipes = [build_pipeline("double_well", eps, 400) for eps in (0.5, 0.4)]
    models, pot = [p.model for p in pipes], pipes[0].potential
    cfg = EnsembleConfig(n_paths=8, dt=4e-3, horizon=20.0, seed=23, store_stride=1)
    refs = [simulate_ensemble(cfg, model, pot) for model in models]
    first = sim._first_draws(models, cfg.horizon)
    assert max(2 + np.diff(ens.jump_offsets).max() for ens in refs) > first
    chunks = []
    run_chunk = sim._run_chunk
    monkeypatch.setattr(sim, "_run_chunk", lambda *args: chunks.append(1) or run_chunk(*args))
    for split in (False, True):
        if split:
            monkeypatch.setattr(sim, "_CHUNK_BYTES", 2 ** 17)
            cfg = dataclasses.replace(cfg, workers=2)
        chunks.clear()
        got = simulate_ensembles(cfg, models, pot)
        assert len(chunks) > 2 if split else len(chunks) == 1
        for ens, ref in zip(got, refs):
            _assert_same_ensemble(ens, ref)
    for model, ens in zip(models, refs):
        for i, one in enumerate(ens):
            g = path_stream(23, i)
            x0, y0 = sample_initial(model, g)
            x = simulate_x(pot, model.eps, x0, cfg.dt, cfg.horizon, g)
            _assert_same_path(one, simulate_y_given_x(x, model, y0, clock_stream(23, i),
                                                      cfg.dt))


def test_rekeyed_clock_refills_are_the_clock_streams():
    # one re-keyed Philox per chunk fills every path's row: rows refilled
    # two or more times (widths 3, 6, 12, ...), interleaved across paths and
    # across two chunks' tables, hold the draws clock_stream(seed, index)
    # gives from the first
    import eigencoupler.simulate as sim
    seed, indices = 2 ** 64 - 5, np.array([0, 7, 2 ** 40, 2 ** 63 + 1], dtype=np.uint64)
    tables = [sim._Clocks(sim._clock_refill(seed, indices), len(indices), 3),
              sim._Clocks(sim._clock_refill(seed, indices[::-1]), len(indices), 3)]
    cursors = [np.zeros(len(indices), dtype=np.int64) for _ in tables]
    order = np.random.default_rng(0)
    for _ in range(4 * 13):
        for clocks, cursor in zip(tables, cursors):
            clocks.take(np.sort(order.choice(len(indices), 2, replace=False)), cursor)
    for clocks, idx, cursor in zip(tables, (indices, indices[::-1]), cursors):
        assert np.sum(clocks.filled > 6) >= 2
        for p, i in enumerate(idx.tolist()):
            want = clock_stream(seed, i).standard_exponential(clocks.filled[p])
            np.testing.assert_array_equal(clocks.draws[p, :clocks.filled[p]], want)


def _clock_generators():
    """The live Generators on a clock stream: Philox counters in the
    jumped half, which no main stream reaches."""
    import gc
    return sum(isinstance(o, np.random.Generator)
               and isinstance(o.bit_generator, np.random.Philox)
               and o.bit_generator.state["state"]["counter"][2] == 1
               for o in gc.get_objects())


def test_chunk_levels_share_one_window_and_one_clock_table(monkeypatch):
    # three levels whose windows are equal: the chunk holds one window and
    # one table of clock draws, not a window and a clock stream per path
    # for each level, so it peaks below a one-level run of the same paths
    # with the same window, plus one window
    import tracemalloc
    import eigencoupler.simulate as sim
    pipes = [build_pipeline("double_well", eps, 400) for eps in (0.15, 0.1, 0.07)]
    models, pot = [p.model for p in pipes], pipes[0].potential
    cfg = EnsembleConfig(n_paths=400, dt=1e-4, horizon=0.2, seed=3, store_stride=2000)
    widths = {sim._window_steps(sim._y_block_size(m, cfg.dt), 3) for m in models}
    assert widths == {256}
    peaks = []
    for levels, noise_block in ((models, sim._NOISE_BLOCK), (models[1:2], 256)):
        # a 256-step noise block gives one level the three levels' window
        monkeypatch.setattr(sim, "_NOISE_BLOCK", noise_block)
        tracemalloc.start()
        try:
            sim._run_chunk(cfg, levels, pot, np.arange(cfg.n_paths))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] + 8 * (256 + 2) * cfg.n_paths
    held = []
    walk = sim._ChainWalk.__init__

    def counted(self, *args, **kwargs):
        walk(self, *args, **kwargs)
        held.append(_clock_generators())

    monkeypatch.setattr(sim._ChainWalk, "__init__", counted)
    sim._run_chunk(cfg, models, pot, np.arange(8))
    assert held == [0] * 3


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
