import dataclasses
import json

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigencoupler.cli as cli
import eigencoupler.coupling as coupling
from eigencoupler.config import parse_config
from eigencoupler.errors import ConfigError
from eigencoupler.potential import make_potential
from eigencoupler.spectral import auto_grid, build_generator, decompose

LIGHT = {
    "potential": "double_well",
    "epsilon": 0.1,
    "grid": {"n": 400},
    "oracle": {"n": 150, "times": [0.1, 1.0, 10.0]},
    "simulation": {"dt": 1e-3, "T": 2.0, "n_paths": 2000, "seed": 42,
                   "store_stride": 100},
}


def light_config(tmp_path, **overrides):
    data = json.loads(json.dumps(LIGHT))
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_minimal_fills_defaults():
    cfg = parse_config({"potential": "double_well", "epsilon": 0.1})
    assert cfg.theta == 0.5 and cfg.kappa == 0.9
    assert cfg.grid_n == 2000
    assert cfg.dt == 1e-4 and cfg.T == 10.0
    assert cfg.n_paths == 20000 and cfg.seed == 42
    assert cfg.epsilons == (0.1,)


def test_parse_rejects_negative_epsilon():
    with pytest.raises(ConfigError):
        parse_config({"potential": "double_well", "epsilon": -0.1})


def test_parse_rejects_unknown_keys_everywhere():
    with pytest.raises(ConfigError) as err:
        parse_config({"potential": "double_well", "epsilon": 0.1,
                      "grid": {"n": 100, "spacing": 0.1}, "horizon": 5})
    text = str(err.value)
    assert "spacing" in text and "horizon" in text   # all problems at once


def test_parse_collects_multiple_problems():
    with pytest.raises(ConfigError) as err:
        parse_config({"potential": "no_such_preset", "epsilon": [],
                      "chain": {"theta": 2.0}})
    assert len(err.value.problems) >= 3


@pytest.mark.parametrize("section, key, value", [
    ("oracle", "times", 1.0),                   # a scalar, not a list
    ("oracle", "times", []),
    ("simulation", "n_paths", True),            # a bool is not an integer
    ("simulation", "seed", False),
    ("simulation", "dt", True),
    ("chain", "Q", [[-1.0, 1.0], [1.0]]),       # ragged
    ("chain", "p", ["a", "b"]),
    ("outputs", "formats", 1),
])
def test_parse_rejects_malformed_values(section, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config({"potential": "double_well", "epsilon": 0.1,
                      section: {key: value}})
    assert any(p.startswith(f"{section}.{key}") for p in err.value.problems)


def test_malformed_config_exits_1_without_traceback(tmp_path, capsys):
    path = light_config(tmp_path, oracle={"times": 1.0})
    assert cli.main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, section, value", [
    ("oracle", "chain", {"p": [NAN, 1.0]}),
    ("oracle", "oracle", {"times": [INF]}),
    ("simulate", "simulation", {"T": INF}),
    ("synth", "epsilon", INF),
    ("synth", "grid", {"L": INF}),
])
def test_non_finite_config_numbers_exit_1(tmp_path, capsys, command, section, value):
    # json reads NaN and Infinity; each must be a validation problem, never a
    # NaN report, an overflow traceback or a numerical failure
    path = light_config(tmp_path, **{section: value})
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [
    ("simulation", {"store_stride": 10 ** 400}),
    ("simulation", {"n_paths": 2 ** 70}),
    ("simulation", {"T": 1e300, "dt": 1e-300}),     # round(T / dt) past int64
    ("grid", {"n": 10 ** 30}),
    ("oracle", {"n": 2 ** 63}),
])
def test_oversized_config_integers_exit_1(tmp_path, capsys, section, value):
    # every size becomes a numpy index or shape, so one past int64 is a
    # validation problem, rejected before anything is allocated
    data = json.loads(json.dumps(LIGHT))
    data[section].update(value)
    path = light_config(tmp_path, **{section: data[section]})
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err


_numbers = st.one_of(st.integers(-3, 2 ** 70), st.integers(10 ** 308, 10 ** 400),
                     st.floats(0.0, 1.0), st.floats(), st.booleans())
_configs = st.fixed_dictionaries(
    {"potential": st.one_of(st.sampled_from(["double_well", "triple_well"]),
                            st.lists(_numbers, min_size=1, max_size=5)),
     "epsilon": st.one_of(_numbers, st.lists(_numbers, min_size=1, max_size=3))},
    optional={
        "grid": st.fixed_dictionaries({}, optional={"n": _numbers,
                                                     "L": st.none() | _numbers}),
        "chain": st.fixed_dictionaries({}, optional={
            "theta": _numbers, "kappa": _numbers,
            "p": st.lists(_numbers, min_size=1, max_size=3),
            "Q": st.lists(st.lists(_numbers, min_size=2, max_size=2),
                          min_size=2, max_size=2)}),
        "simulation": st.fixed_dictionaries({}, optional={
            k: _numbers for k in ("dt", "T", "n_paths", "seed", "store_stride")}),
        "oracle": st.fixed_dictionaries({}, optional={
            "n": _numbers, "times": st.lists(_numbers, max_size=3)}),
        "threads": _numbers,
    })


def _all_finite(value):
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


@settings(max_examples=300, deadline=None)
@given(data=_configs)
def test_parse_config_rejects_or_returns_finite_numbers(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    assert _all_finite(cfg.resolved())
    sizes = (cfg.grid_n, cfg.oracle_n, cfg.n_paths, cfg.store_stride, round(cfg.T / cfg.dt))
    assert all(size < 2 ** 63 for size in sizes)


def test_spectrum_on_ou_preset(tmp_path):
    path = light_config(tmp_path, potential="quadratic",
                        epsilon=0.5, grid={"n": 1000, "L": 8.0},
                        allow_assumption_violation=True)
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "eigenvalues_eps0.5.json").read_text())
    lams = payload["eigenvalues"]
    for k in range(1, 4):
        assert abs(lams[k] - k) <= 2e-3 * k
    assert (out / "modes_eps0.5.svg").exists()
    assert (out / "manifest.json").exists()


def test_spectrum_requires_override_for_quadratic(tmp_path):
    path = light_config(tmp_path, potential="quadratic", epsilon=0.5,
                        grid={"n": 500, "L": 8.0})
    assert cli.main(["spectrum", "--config", path, "--out", str(tmp_path / "o")]) == 1


def test_synth_writes_chain_json(tmp_path):
    path = light_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", path, "--out", str(out)]) == 0
    chain = json.loads((out / "chain_eps0.1.json").read_text())
    Q = np.array(chain["Q"])
    np.testing.assert_allclose(Q.sum(axis=1), 0, atol=1e-12)
    assert chain["min_alpha_bound"] > 0
    assert (out / "coupling_eps0.1.csv").exists()


def test_oracle_report(tmp_path):
    path = light_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["oracle", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "oracle_report.json").read_text())
    run = report["runs"][0]
    assert run["max_tv"] <= 1e-8
    assert run["max_l1"] <= 1e-8


def test_simulate_deterministic_artifacts(tmp_path):
    path = light_config(tmp_path, simulation={"dt": 1e-3, "T": 1.0,
                                              "n_paths": 50, "seed": 7,
                                              "store_stride": 100})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", path, "--out", str(out2)]) == 0
    for name in ("trajectories_eps0.1.csv", "jumps_eps0.1.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_seed_override_changes_output(tmp_path):
    path = light_config(tmp_path, simulation={"dt": 1e-3, "T": 1.0,
                                              "n_paths": 50, "seed": 7,
                                              "store_stride": 100})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", path, "--out", str(out2),
                     "--seed", "8"]) == 0
    a = (out1 / "trajectories_eps0.1.csv").read_text()
    b = (out2 / "trajectories_eps0.1.csv").read_text()
    assert a != b


def test_verify_passes_light_config(tmp_path):
    path = light_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"]
    checks = {c["name"]: c for c in report["runs"][0]["checks"]}
    assert "oracle_conditional_law_tv" in checks
    assert checks["two_route_eigenvalues_rel"]["raw_value"] > 0


def test_two_route_gap_is_extrapolated_and_still_gates():
    # triple_well eps 0.05 at n = 4000: the raw gap is the Schrodinger route's
    # O(h^2) discretization error, far above the gate; the Richardson value
    # passes it, and generator eigenvalues off by 1e-3 still fail it
    pot = make_potential("triple_well")
    grid = auto_grid(pot, 0.05, n=cli.CROSS_ROUTE_N)
    lams = decompose(build_generator(pot, 0.05, grid), 3).eigenvalues
    rel, raw = cli._two_route_gaps(lams, pot, 0.05, grid)
    assert raw > 0.1 and rel <= cli.CROSS_ROUTE_REL
    assert cli._two_route_gaps(lams * (1 + 1e-3), pot, 0.05, grid)[0] > cli.CROSS_ROUTE_REL


def test_verify_y_marginal_flags_biased_chain(tmp_path, monkeypatch):
    # the simulated chain leaves state 0 at three times Q's rate; the initial
    # draw is unchanged, so t = 0 passes and every later y-marginal check fails
    real = cli.simulate_ensemble

    def biased(ens, model, potential, spec):
        Q = model.Q.copy()
        Q[0, 1] *= 3.0
        Q[0, 0] = -Q[0, 1]
        return real(ens, dataclasses.replace(model, Q=Q), potential, spec)

    monkeypatch.setattr(cli, "simulate_ensemble", biased)
    path = light_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    passed = {c["name"]: c["passed"] for c in report["runs"][0]["checks"]}
    assert passed["mc_y_marginal_t0"]
    assert not any(passed[f"mc_y_marginal_t{t}"] for t in ("0.5", "1", "2"))


def test_verify_fails_with_exit_code_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ORACLE_TOL", 1e-20)
    path = light_config(tmp_path)
    assert cli.main(["verify", "--config", path,
                     "--out", str(tmp_path / "o")]) == 3


def test_numerical_failure_exit_code_2(tmp_path):
    # an explicit Q whose spectrum cannot match the diffusion eigenvalues
    path = light_config(tmp_path, chain={"Q": [[-1.0, 1.0], [1.0, -1.0]]})
    assert cli.main(["synth", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_nan_path_exit_code_2(tmp_path, monkeypatch):
    # a NaN start trips the blow-up guard, a numerical failure
    import eigencoupler.simulate as sim
    monkeypatch.setattr(sim, "sample_initial", lambda model, p, rng: (np.nan, 0))
    path = light_config(tmp_path, simulation={"dt": 1e-3, "T": 0.1, "n_paths": 20})
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_validation_exit_code_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"potential": "double_well"}))
    assert cli.main(["synth", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1


def test_sweep_artifacts(tmp_path):
    path = light_config(tmp_path, epsilon=[0.2, 0.15],
                        simulation={"dt": 1e-3, "T": 0.5, "n_paths": 200,
                                    "seed": 3, "store_stride": 50})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert row["tracking_oracle_0"] > 0
        assert "0->1" in row["exit_times"]
    assert (out / "sweep.csv").exists()
    assert (out / "tracking_trend.svg").exists()


def test_manifest_reproducibility_fields(tmp_path):
    path = light_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["oracle", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["simulation"]["seed"] == 42
    assert "numpy" in manifest["versions"]
    assert manifest["command"] == "oracle"
    resolved = json.loads((out / "config_resolved.json").read_text())
    assert resolved["chain"]["theta"] == 0.5


def test_simulate_csv_bytes_match_csv_writer(tmp_path):
    # the joined per-record writes give the bytes of one csv.writer row per
    # line, \r\n endings included
    import csv
    import io
    path = light_config(tmp_path, epsilon=0.5,
                        simulation={"dt": 4e-3, "T": 3.0, "n_paths": 30,
                                    "seed": 9, "store_stride": 7})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    *_, records = cli._run_ensemble(parse_config(path), 0.5)
    assert sum(len(r.jumps) for r in records) > 0
    traj, jumps = io.StringIO(newline=""), io.StringIO(newline="")
    tw, jw = csv.writer(traj), csv.writer(jumps)
    tw.writerow(["path_id", "t", "x", "y"])
    jw.writerow(["path_id", "t", "from", "to"])
    for rec in records:
        for t, x, y in zip(rec.times, rec.x, rec.y):
            tw.writerow([rec.path_index, f"{t:.10g}", f"{x:.10g}", y])
        for t, i, j in rec.jumps:
            jw.writerow([rec.path_index, f"{t:.10g}", i, j])
    assert (out / "trajectories_eps0.5.csv").read_bytes() == traj.getvalue().encode()
    assert (out / "jumps_eps0.5.csv").read_bytes() == jumps.getvalue().encode()


def test_linalg_error_exit_code_2(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError; a LAPACK failure is numerical, not a
    # validation problem
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("stebz failed to converge")
    monkeypatch.setattr(coupling, "decompose", fail)
    path = light_config(tmp_path)
    assert cli.main(["synth", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_oracle_evolves_joint_law_once_per_time(monkeypatch):
    # both oracle checks read one evolution of the joint law, and report
    # exactly what the two separate checks report
    import eigencoupler.oracle as oracle
    cfg = parse_config(LIGHT)
    _, gen, _, spec, model = cli._build_pipeline(cfg, 0.1, cfg.oracle_n)
    B = cli.build_joint_generator(model, gen)
    cond = oracle.check_conditional_law(B, model, spec.p, cfg.oracle_times)
    nu0 = oracle.DistributionVector(model.initial_law_for(spec.p).reshape(-1))
    marg = oracle.check_y_marginal(B, nu0, spec.Q, spec.p, cfg.oracle_times)
    calls = []
    evolve = oracle.evolve_distribution

    def counting(M, nu, t, tol=oracle.DEFAULT_TOL):
        calls.append(M.shape)
        return evolve(M, nu, t, tol=tol)
    monkeypatch.setattr(oracle, "evolve_distribution", counting)
    run = cli._oracle_run(cfg, 0.1)
    assert calls.count(B.shape) == len(cfg.oracle_times)
    assert run["max_tv"] == cond.max_tv and run["max_l1"] == marg.max_l1
    assert run["tv_entries"] == [list(e) for e in cond.entries]
    assert run["l1_entries"] == [list(e) for e in marg.entries]


def test_parse_config_huge_p_is_a_config_error():
    # chain.p is range-checked before it is summed: a sum that overflows
    # would warn, and under -W error replace the ConfigError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            parse_config({"potential": "double_well", "epsilon": 0.1,
                          "chain": {"p": [1e308, 1e308]}})
    assert any(p.startswith("chain.p") for p in err.value.problems)


def test_tracking_z_uses_the_binomial_se_under_the_null():
    # every path agreeing gives a zero sample SE; the gate reads the SE of
    # the oracle value instead, so a correct estimate passes and a biased
    # one still fails
    from eigencoupler.stats import EstimateWithCI
    assert cli._tracking_z(EstimateWithCI(point=1.0, se=0.0, n=40), 0.99) <= 3.0
    assert cli._tracking_z(EstimateWithCI(point=1.0, se=0.0, n=500), 0.9) > 3.0
    biased = EstimateWithCI(point=0.85, se=math.sqrt(0.85 * 0.15 / 500), n=500)
    assert cli._tracking_z(biased, 0.9) > 3.0
    # an oracle value rounded just past 1 is read as 1, not as a NaN SE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli._tracking_z(EstimateWithCI(point=1.0, se=0.0, n=500), 1 + 1e-13) == 0.0


def _simulate_ensemble(tmp_path, n_paths, T=3.0):
    path = light_config(tmp_path, epsilon=0.5,
                        simulation={"dt": 4e-3, "T": T, "n_paths": n_paths,
                                    "seed": 9, "store_stride": 7})
    return cli._run_ensemble(parse_config(path), 0.5)[1]


def test_simulate_csv_peak_memory_independent_of_paths(tmp_path, monkeypatch):
    # the CSVs are formatted a bounded chunk of rows at a time, so four
    # times the paths write four times the rows at about the same peak: the
    # largest chunk's (and path ids are new int objects past 256, so both
    # ensembles are mostly past it)
    import tracemalloc
    import eigencoupler.simulate as sim
    monkeypatch.setattr(sim, "_ROW_CHUNK", 250)
    peaks = []
    for n_paths in (1200, 4800):
        ens = _simulate_ensemble(tmp_path, n_paths, T=1.0)
        tracemalloc.start()
        try:
            cli._write_simulate_csvs(ens, tmp_path / "t.csv", tmp_path / "j.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 40 * peaks[1]
    assert peaks[1] <= 1.25 * peaks[0]


def test_simulate_builds_no_records(tmp_path, monkeypatch):
    # simulate writes its CSVs from the ensemble's columns
    import eigencoupler.simulate as sim
    built = []

    class Counting(sim.TrajectoryRecord):
        def __init__(self, **fields):
            built.append(fields["path_index"])
            super().__init__(**fields)

    monkeypatch.setattr(sim, "TrajectoryRecord", Counting)
    path = light_config(tmp_path, epsilon=0.5,
                        simulation={"dt": 4e-3, "T": 3.0, "n_paths": 30,
                                    "seed": 9, "store_stride": 7})
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert built == []
    ens = _simulate_ensemble(tmp_path, 30)
    assert len(list(ens)) == 30 and built == list(range(30))
