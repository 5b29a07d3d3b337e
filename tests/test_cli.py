import dataclasses
import hashlib
import json

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigencoupler.cli as cli
import eigencoupler.coupling as coupling
from eigencoupler.config import DEFAULTS, ExperimentConfig, apply_overrides, parse_config
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


@pytest.mark.parametrize("args, env, problem", [
    (["--seed", "-5"], None, "--seed: must be a u64"),
    (["--seed", str(2 ** 64)], None, "--seed: must be a u64"),
    (["--threads", "0"], None, "--threads: must be a positive integer"),
    (["--threads", "0"], "abc", "--threads: must be a positive integer"),
])
def test_cli_overrides_follow_the_config_rules(tmp_path, monkeypatch, capsys,
                                               args, env, problem):
    # --seed and --threads are checked as the keys they override: one line,
    # exit 1, before any work or artifact; EIGENCOUPLER_THREADS is no longer
    # read, so a malformed value left in the environment is never reported
    def never(*args, **kwargs):
        raise AssertionError("pipeline built")

    monkeypatch.setattr(cli, "_build_pipeline", never)
    monkeypatch.setattr(coupling, "build_pipeline", never)
    if env is None:
        monkeypatch.delenv("EIGENCOUPLER_THREADS", raising=False)
    else:
        monkeypatch.setenv("EIGENCOUPLER_THREADS", env)
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", light_config(tmp_path),
                     "--out", str(out), *args]) == 1
    assert capsys.readouterr().err == f"invalid configuration: {problem}\n"
    assert not out.exists()


def test_cli_overrides_apply_in_order():
    cfg = parse_config(LIGHT)
    assert apply_overrides(cfg) == cfg
    assert apply_overrides(cfg, seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    assert apply_overrides(cfg, threads=3).threads == 3


_TOP_LEVEL = ("allow_assumption_violation, chain, epsilon, grid, oracle, outputs, "
              "potential, simulation, threads")
_PRESETS = "double_well, tilted_double_well, triple_well, quadratic"
_MISSING = object()


@pytest.mark.parametrize("data, problem", [
    # one case per declared key
    ({"grid": {"n": 2}}, "grid.n: must be an integer in [3, 2**63 - 1]"),
    ({"grid": {"L": -1}}, "grid.L: must be a positive number or null"),
    ({"oracle": {"n": 2.0}}, "oracle.n: must be an integer in [3, 2**63 - 1]"),
    ({"oracle": {"times": []}},
     "oracle.times: must be a nonempty list of nonnegative numbers"),
    ({"chain": {"theta": 1}}, "chain.theta: must lie in (0, 1)"),
    ({"chain": {"kappa": 1.0}}, "chain.kappa: must lie in [0, 1)"),
    ({"chain": {"Q": [[1, 2]]}}, "chain.Q: must be a finite square matrix"),
    ({"chain": {"p": [0.5, 0.6]}}, "chain.p: must be a probability vector"),
    ({"chain": {"maximize_scale": 1}}, "chain.maximize_scale: must be a boolean"),
    ({"simulation": {"dt": 0}}, "simulation.dt: must be positive"),
    ({"simulation": {"T": -1}}, "simulation.T: must be positive"),
    ({"simulation": {"n_paths": 0}},
     "simulation.n_paths: must be an integer in [1, 2**63 - 1]"),
    ({"simulation": {"seed": -1}}, "simulation.seed: must be a u64"),
    ({"simulation": {"store_stride": 1.5}},
     "simulation.store_stride: must be an integer in [1, 2**63 - 1]"),
    ({"outputs": {"directory": None}}, "outputs.directory: must be a string"),
    ({"outputs": {"formats": "json"}}, "outputs.formats: must be a list of format names"),
    ({"allow_assumption_violation": "yes"}, "allow_assumption_violation: must be a boolean"),
    ({"threads": 0}, "threads: must be a positive integer"),
    # the rules spelt out in parse_config
    ({"potential": _MISSING}, "potential: required (preset name or coefficient list)"),
    ({"potential": None}, "potential: required (preset name or coefficient list)"),
    ({"potential": "nope"}, f"potential: unknown preset 'nope' (known: {_PRESETS})"),
    ({"potential": [1, "a"]}, "potential: coefficient list must be numeric"),
    ({"potential": 3}, "potential: must be a preset name or coefficient list"),
    ({"epsilon": _MISSING}, "epsilon: required (number or list for a sweep)"),
    ({"epsilon": None}, "epsilon: required (number or list for a sweep)"),
    ({"epsilon": []}, "epsilon: every value must be a positive number"),
    ({"epsilon": -0.1}, "epsilon: every value must be a positive number"),
    ({"grid": [1]}, "grid: must be an object"),
    ({"horizon": 5}, f"top level: unknown key 'horizon' (allowed: {_TOP_LEVEL})"),
    ({"chain": {"shape": 1}},
     "chain: unknown key 'shape' (allowed: Q, kappa, maximize_scale, p, theta)"),
    ({"simulation": {"dt": 0.3, "T": 1.0}}, "simulation.T: must be a whole number of dt steps"),
    ({"simulation": {"dt": 1e-300, "T": 1e300}},
     "simulation: T / dt steps must be fewer than 2**63 - 1"),
    ({"outputs": {"formats": ["json", "png", "gif"]}},
     "outputs.formats: unknown formats ['gif', 'png']"),
])
def test_config_problem_lines(data, problem):
    # each rule prints its exact line, and nothing else fails
    config = {"potential": "double_well", "epsilon": 0.1, **data}
    with pytest.raises(ConfigError) as err:
        parse_config({k: v for k, v in config.items() if v is not _MISSING})
    assert err.value.problems == [problem]


_EVERY_KEY = {
    "potential": [0.0, -1.0, 0.0, 0.25], "epsilon": [0.3, 0.2],
    "grid": {"n": 300, "L": 2.5},
    "oracle": {"n": 50, "times": [0, 2]},
    "chain": {"theta": 0.3, "kappa": 0, "Q": [[-1.0, 1.0], [2.0, -2.0]],
              "p": [0.25, 0.75], "maximize_scale": True},
    "simulation": {"dt": 0.002, "T": 3, "n_paths": 77, "seed": 9, "store_stride": 7},
    "outputs": {"directory": "out", "formats": ["csv"]},
    "allow_assumption_violation": True, "threads": 2,
}


@pytest.mark.parametrize("data", [{"potential": "double_well", "epsilon": 0.1}, _EVERY_KEY])
def test_resolved_config_parses_back_to_itself(data):
    cfg = parse_config(data)
    assert parse_config(cfg.resolved()) == cfg
    assert parse_config(json.dumps(cfg.resolved())) == cfg


def test_every_config_key_has_a_default():
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert names[:2] == ["potential", "epsilons"]
    assert list(DEFAULTS) == names[2:]
    assert parse_config({"potential": "double_well", "epsilon": 0.1}) == ExperimentConfig(
        "double_well", (0.1,), **DEFAULTS)


@pytest.mark.parametrize("directory", [None, ["a", 1]])
def test_output_directory_must_be_a_string(tmp_path, monkeypatch, capsys, directory):
    monkeypatch.chdir(tmp_path)
    path = light_config(tmp_path, outputs={"directory": directory, "formats": ["json"]})
    assert cli.main(["spectrum", "--config", path]) == 1
    assert capsys.readouterr().err == (
        "invalid configuration: outputs.directory: must be a string\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_missing_config_path_is_named(tmp_path, capsys):
    missing = str(tmp_path / "nope" / "missing.json")
    assert cli.main(["spectrum", "--config", missing]) == 1
    assert capsys.readouterr().err == (
        f"invalid configuration: no such file: {missing!r} "
        "(nor valid JSON: Expecting value: line 1 column 1 (char 0))\n")
    long = "x" * 200
    with pytest.raises(ConfigError) as err:
        parse_config(long)
    assert err.value.problems == [
        f"no such file: '{'x' * 77}...' (nor valid JSON: Expecting value: "
        "line 1 column 1 (char 0))"]


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

    def biased(ens, model, potential):
        Q = model.Q.copy()
        Q[0, 1] *= 3.0
        Q[0, 0] = -Q[0, 1]
        return real(ens, dataclasses.replace(model, Q=Q), potential)

    monkeypatch.setattr(cli, "simulate_ensemble", biased)
    path = light_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    passed = {c["name"]: c["passed"] for c in report["runs"][0]["checks"]}
    assert passed["mc_y_marginal_t0"]
    assert not any(passed[f"mc_y_marginal_t{t}"] for t in ("0.5", "1", "2"))


def test_verify_y_marginal_exact_at_small_counts(tmp_path):
    # triple_well eps 0.1, 500 paths to T = 0.2, seed 825: at t = 0.05 a few
    # paths have left their wells, and the normal approximation, whose
    # variance is near zero there, read z = 5.0 for a count of ordinary size
    config = {"potential": "triple_well", "epsilon": 0.1,
              "simulation": {"n_paths": 500, "T": 0.2}, "threads": 1}
    out = tmp_path / "out"
    cli.main(["verify", "--config", json.dumps(config), "--out", str(out), "--seed", "825"])
    report = json.loads((out / "verify_report.json").read_text())
    z = {c["name"]: c["value"] for c in report["runs"][0]["checks"]
         if c["name"].startswith("mc_y_marginal")}
    assert len(z) == 4 and max(z.values()) <= 3.0


def test_count_z_is_the_exact_poisson_binomial_test():
    # the convolved binomials give the law of the count of independent
    # paths with per-path probabilities, scipy's Poisson binomial
    from scipy.stats import norm, poisson_binom
    trials = np.array([40, 25, 35])
    probs = np.array([[0.9, 0.07, 0.03], [0.2, 0.7, 0.1], [0.01, 0.04, 0.95]])
    law = poisson_binom(np.repeat(probs[:, 1], trials))
    for count in (10, 20, 27, 35):
        p = min(1.0, 2.0 * min(law.cdf(count), law.sf(count - 1)))
        z = cli._count_z([count], trials, probs[:, [1]])
        assert z == pytest.approx(norm.isf(p / 2), rel=1e-9, abs=1e-9)
        # several states: the largest of their z
        counts = [60, count, 100 - 60 - count]
        assert cli._count_z(counts, trials, probs) == max(
            cli._count_z([c], trials, probs[:, [j]]) for j, c in enumerate(counts))
    assert cli._count_z([3], [100], [[0.0]]) == math.inf
    assert cli._count_z([50, 50], [100], [[0.5, 0.5]]) == 0.0


@pytest.mark.parametrize("n", [0, 1, 7, 500])
def test_binom_pmf_matches_scipy(n):
    from scipy.stats import binom
    q = np.array([0.0, 1e-9, 0.003, 0.5, 0.97, 1.0 - 1e-12, 1.0])
    got = cli._binom_pmf(n, q)
    want = binom.pmf(np.arange(n + 1)[:, None], n, q)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-300)
    np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=1e-12)


def test_verify_fails_with_exit_code_3(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ORACLE_TOL", 1e-20)
    path = light_config(tmp_path)
    assert cli.main(["verify", "--config", path,
                     "--out", str(tmp_path / "o")]) == 3
    # the manifest lists the report that says which checks failed
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["outputs"] == [str(tmp_path / "o" / "verify_report.json")]


def test_numerical_failure_exit_code_2(tmp_path):
    # an explicit Q whose spectrum cannot match the diffusion eigenvalues
    path = light_config(tmp_path, chain={"Q": [[-1.0, 1.0], [1.0, -1.0]]})
    assert cli.main(["synth", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_underflowed_gibbs_weight_exit_code_2(tmp_path):
    # the auto grid of this quartic reaches tails whose Gibbs weight is 0 in
    # float64: decompose would divide by it and write NaN into the coupling
    # summary; the generator build stops the run with a typed error instead
    from eigencoupler.errors import GridError
    coefficients = [0.0, -3.4338, 4.3148, -1.8236, 0.2570]
    path = light_config(tmp_path, potential=coefficients, epsilon=0.2529,
                        grid={"n": 200}, oracle={"n": 200})
    out = tmp_path / "o"
    assert cli.main(["synth", "--config", path, "--out", str(out)]) == 2
    written = list(out.glob("*.json")) if out.exists() else []
    assert not any(b"NaN" in p.read_bytes() for p in written)
    with pytest.raises(GridError, match="Gibbs weight"):
        coupling.build_pipeline(make_potential(coefficients), 0.2529, 200)


def _backwards_Q():
    # row sums zero, but the 0 -> 1 rate is negative: that jump never fires
    lam1 = coupling.build_pipeline("double_well", 0.2, 400).spec.rates[0]
    return [[0.1, -0.1], [lam1 + 0.1, -(lam1 + 0.1)]]


@pytest.mark.parametrize("command", ["synth", "simulate"])
@pytest.mark.parametrize("case", ["negative_rate", "row_sum", "three_states"])
def test_explicit_Q_that_is_not_a_generator_exits_1(tmp_path, capsys, command, case):
    Q = {"negative_rate": _backwards_Q,
         "row_sum": lambda: [[-1.0, 1.0], [1.0, -1.0 + 1e-6]],
         "three_states": lambda: [[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 1.0, -1.0]]}[case]()
    path = light_config(tmp_path, epsilon=0.2, chain={"Q": Q},
                        simulation={"dt": 1e-3, "T": 0.1, "n_paths": 20})
    out = tmp_path / "o"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 1
    assert "validation error: Q " in capsys.readouterr().err
    assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))


@pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
def test_T_off_the_dt_grid_exits_1_before_writing(tmp_path, capsys, command):
    # 0.2 / 3e-4 steps round to 667, whose grid ends at 0.2001, not at T
    path = light_config(tmp_path, simulation={"dt": 3e-4, "T": 0.2, "n_paths": 20})
    out = tmp_path / "o"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 1
    assert "simulation.T: must be a whole number of dt steps" in capsys.readouterr().err
    assert not out.exists()


def test_synth_maximize_scale_reaches_the_kappa_boundary(tmp_path):
    # an asymmetric two-state chain on a tilted well: the budget scaling
    # stops short of the positivity boundary, maximize_scale reaches kappa of it
    bounds = {}
    for maximize in (False, True):
        path = light_config(tmp_path, potential="tilted_double_well", epsilon=0.15,
                            chain={"theta": 0.2, "kappa": 0.6, "maximize_scale": maximize})
        out = tmp_path / f"o{maximize}"
        assert cli.main(["synth", "--config", path, "--out", str(out)]) == 0
        bounds[maximize] = json.loads((out / "chain_eps0.15.json").read_text())["min_alpha_bound"]
    assert abs(bounds[True] - (1 - 0.6)) <= 1e-12
    assert bounds[False] > 1 - 0.6 + 0.1


def test_nan_path_exit_code_2(tmp_path, monkeypatch):
    # a NaN start trips the blow-up guard, a numerical failure
    import eigencoupler.simulate as sim
    monkeypatch.setattr(sim, "sample_initial", lambda model, rng: (np.nan, 0))
    path = light_config(tmp_path, simulation={"dt": 1e-3, "T": 0.1, "n_paths": 20})
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_failed_simulate_leaves_no_partial_csv(tmp_path, monkeypatch):
    # the CSVs are written chunk by chunk: a blow-up in the second chunk
    # removes the rows of the first rather than leave CSVs that could pass
    # for whole ones
    import eigencoupler.simulate as sim
    initial, calls = sim.sample_initial, []

    def nan_in_second_chunk(model, u):
        x0, y0 = initial(model, u)
        calls.append(len(x0))
        return (x0 * np.nan if len(calls) == 2 else x0), y0

    monkeypatch.setattr(sim, "_CHUNK_BYTES", 2 ** 16)
    monkeypatch.setattr(sim, "sample_initial", nan_in_second_chunk)
    path = light_config(tmp_path, epsilon=0.5,
                        simulation={"dt": 4e-3, "T": 0.4, "n_paths": 200, "store_stride": 1})
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert len(calls) == 2 and sum(calls) < 200
    assert not list(out.glob("*.csv"))


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
    # the joined chunk writes give the bytes of one csv.writer row per line,
    # path by path, \r\n endings included
    import csv
    import io
    path = light_config(tmp_path, epsilon=0.5,
                        simulation={"dt": 4e-3, "T": 3.0, "n_paths": 30,
                                    "seed": 9, "store_stride": 7})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    ens = _simulate_ensemble(tmp_path, 30)      # the same config
    assert len(ens.jump_t) > 0
    traj, jumps = io.StringIO(newline=""), io.StringIO(newline="")
    tw, jw = csv.writer(traj), csv.writer(jumps)
    tw.writerow(["path_id", "t", "x", "y"])
    jw.writerow(["path_id", "t", "from", "to"])
    for one in ens:
        k, rows = int(one.path_index[0]), one.rows(0, 1)
        for t, x, y in zip(rows.t.tolist(), rows.x.tolist(), rows.y.tolist()):
            tw.writerow([k, f"{t:.10g}", f"{x:.10g}", y])
        for t, i, j in zip(one.jump_t.tolist(), one.jump_from.tolist(), one.jump_to.tolist()):
            jw.writerow([k, f"{t:.10g}", i, j])
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


def test_out_of_memory_exit_code_2(tmp_path, monkeypatch, capsys):
    # an allocation the machine cannot give is a numerical failure with a
    # one-line message, not a traceback under the validation exit code
    import eigencoupler.simulate as sim

    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 735. TiB for an array with shape "
                          "(101, 1000000000000) and data type float64")
    monkeypatch.setattr(cli, "ensemble_chunks", fail)
    monkeypatch.setattr(sim, "ensemble_chunks", fail)
    path = light_config(tmp_path, epsilon=[0.2, 0.15],
                        simulation={"dt": 1e-3, "T": 0.1, "n_paths": 20})
    for command in ("simulate", "sweep"):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: out of memory (Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_manifest_records_peak_rss_and_faults(tmp_path, monkeypatch):
    # the process's peak RSS and minor page faults sit beside the wall time,
    # and are left out where the resource module is missing
    path = light_config(tmp_path)
    assert cli.main(["oracle", "--config", path, "--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["wall_clock_s"] >= 0
    assert manifest["peak_rss_mb"] > 1.0
    assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] > 0
    monkeypatch.setattr(cli, "resource", None)
    assert cli.main(["oracle", "--config", path, "--out", str(tmp_path / "b")]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert "wall_clock_s" in manifest
    assert "peak_rss_mb" not in manifest and "minor_faults" not in manifest


def test_manifest_peak_rss_is_the_commands_own(tmp_path):
    # a command spawned by a process that holds 300 MB reports its own peak:
    # after exec, ru_maxrss still carries the spawning process's high-water
    # mark, which here is above 300 MB
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    held = np.ones(300 * 2 ** 20 // 8)          # written, so resident
    out = tmp_path / "o"
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from eigencoupler.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "oracle", "--config", light_config(tmp_path),
         "--out", str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert held.sum() == held.size
    peak = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
    assert 1.0 < peak < 200.0


def test_oracle_evolves_joint_law_once_per_time(monkeypatch):
    # both oracle checks read one evolution of the joint law, and the report
    # holds exactly what check_oracle returns
    import eigencoupler.oracle as oracle
    cfg = parse_config(LIGHT)
    potential = make_potential(cfg.potential)
    _, gen, _, _, model = cli._build_pipeline(cfg, potential, 0.1, cfg.oracle_n)
    B = cli.build_joint_generator(model, gen)
    cond, marg = oracle.check_oracle(B, model, cfg.oracle_times)
    calls = []
    evolve = oracle.evolve_distribution

    def counting(M, nu, t, tol=oracle.DEFAULT_TOL):
        calls.append(M.shape)
        return evolve(M, nu, t, tol=tol)
    monkeypatch.setattr(oracle, "evolve_distribution", counting)
    run = cli._oracle_run(cfg, potential, 0.1)
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


def test_tracking_gate_is_the_exact_binomial_test():
    # the mc_tracking gate: of n paths in a state, count in its domain,
    # against Binomial(n, q), q the oracle value. Every path agreeing (a
    # zero sample SE) passes where the oracle value allows it and fails
    # where it does not, and a biased estimate fails
    def z(count, n, q):
        return cli._count_z([count], [n], [[q]])
    assert z(40, 40, 0.99) <= 3.0
    assert z(500, 500, 0.9) > 3.0
    assert z(425, 500, 0.9) > 3.0
    # an oracle value rounded just past 1 is read as 1, not as a NaN law
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert z(500, 500, 1 + 1e-13) == 0.0


def _simulate_ensemble(tmp_path, n_paths, T=3.0):
    path = light_config(tmp_path, epsilon=0.5,
                        simulation={"dt": 4e-3, "T": T, "n_paths": n_paths,
                                    "seed": 9, "store_stride": 7})
    cfg = parse_config(path)
    pipe = cli._build_pipeline(cfg, make_potential(cfg.potential), 0.5, cfg.grid_n)
    return cli.simulate_ensemble(cli._ensemble_config(cfg), pipe.model, pipe.potential)


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
            cli._write_simulate_csvs([ens], tmp_path / "t.csv", tmp_path / "j.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 40 * peaks[1]
    assert peaks[1] <= 1.25 * peaks[0]


def test_simulate_frees_each_level_before_the_next(tmp_path):
    # a level's ensemble is written and dropped before the next level runs,
    # so a second level adds next to nothing to the peak; holding the first
    # would add its whole ensemble, a little more than its stored x
    import tracemalloc
    sim = {"dt": 4e-3, "T": 4.0, "n_paths": 400, "seed": 9, "store_stride": 1}
    peaks = []
    for eps in (0.5, [0.5, 0.4]):
        path = light_config(tmp_path, epsilon=eps, simulation=sim)
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stored_x = 8 * sim["n_paths"] * (round(sim["T"] / sim["dt"]) + 1)
    assert peaks[1] <= peaks[0] + stored_x // 2


def test_simulate_peak_memory_independent_of_paths(tmp_path, monkeypatch):
    # simulate writes each chunk's rows as the chunk comes, so four times the
    # paths, in four times the chunks, peak at about the same memory; holding
    # the ensemble until it is written would add its stored x (8 kB a path)
    import tracemalloc
    import eigencoupler.simulate as sim
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 2 ** 20)
    peaks = []
    for n_paths in (200, 800):
        path = light_config(tmp_path, epsilon=0.5,
                            simulation={"dt": 4e-3, "T": 4.0, "n_paths": n_paths,
                                        "seed": 9, "store_stride": 1})
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_sweep_and_verify_store_x_at_0_and_T_only(tmp_path, monkeypatch, command):
    # both read x at T alone and y from the jump log, whatever store_stride
    # says
    ensembles = []

    def keep(run):
        def wrapped(*args):
            out = run(*args)
            ensembles.extend(out if isinstance(out, list) else [out])
            return out
        return wrapped

    monkeypatch.setattr(cli, "simulate_ensemble", keep(cli.simulate_ensemble))
    monkeypatch.setattr(cli, "simulate_ensembles", keep(cli.simulate_ensembles))
    path = light_config(tmp_path, epsilon=[0.2, 0.15],
                        simulation={"dt": 1e-3, "T": 0.5, "n_paths": 200, "store_stride": 1})
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) in (0, 3)
    assert len(ensembles) == 2
    for ens in ensembles:
        np.testing.assert_array_equal(ens.times, [0.0, 0.5])
        assert ens.x.shape == (2, 200)


def test_spectrum_ignores_the_simulation_size(tmp_path):
    # spectrum simulates nothing, so no ensemble size can fail it
    path = light_config(tmp_path, simulation={"dt": 1e-3, "T": 0.01, "n_paths": 10 ** 9,
                                              "store_stride": 1})
    assert cli.main(["spectrum", "--config", path, "--out", str(tmp_path / "o")]) == 0


def test_simulate_builds_no_records(tmp_path, monkeypatch):
    # simulate writes its CSVs from the ensemble's columns; sweep, verify and
    # the rate-match table read columns too, and none takes a path apart
    import eigencoupler.simulate as sim
    from eigencoupler.potential import domains_of_attraction
    from eigencoupler.stats import rate_match_report
    built = []
    getitem = sim.Ensemble.__getitem__

    def counting(self, k):
        built.append(k)
        return getitem(self, k)

    monkeypatch.setattr(sim.Ensemble, "__getitem__", counting)
    path = light_config(tmp_path, epsilon=0.5,
                        simulation={"dt": 4e-3, "T": 3.0, "n_paths": 30,
                                    "seed": 9, "store_stride": 7})
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    path = light_config(tmp_path, epsilon=[0.2, 0.15],
                        simulation={"dt": 1e-3, "T": 0.5, "n_paths": 200, "store_stride": 1})
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == 0
    assert cli.main(["verify", "--config", path, "--out", str(tmp_path / "v")]) in (0, 3)
    pipe = coupling.build_pipeline("double_well", 0.2, 400)
    minima = pipe.potential.minima
    absorbed = sim.simulate_ensemble(
        sim.EnsembleConfig(n_paths=30, dt=1e-3, horizon=5.0, seed=4, x0=float(minima[0]),
                           y0=0, store_stride=100, absorb=(minima[1] - 0.5, minima[1] + 0.5)),
        pipe.model, pipe.potential)
    rate_match_report({0: absorbed}, pipe.spec.Q, domains_of_attraction(pipe.potential),
                      0.5, pipe.gen, minima)
    assert built == []
    paths = list(_simulate_ensemble(tmp_path, 30))
    assert built == list(range(30))
    assert all(isinstance(one, sim.Ensemble) and len(one) == 1 for one in paths)


_PINNED_CONFIGS = {
    "double_well": {},
    "triple_well": {"potential": "triple_well",
                    "oracle": {"n": 100, "times": [0.1, 1.0]}},
    "quadratic": {"potential": "quadratic", "epsilon": 0.5,
                  "grid": {"n": 1000, "L": 8.0}, "allow_assumption_violation": True},
}


def _artifact_digest(out_dir) -> str:
    """sha256 over the names and bytes of a command's artifacts, the
    manifest and resolved config aside, with the oracle's wall-clock
    runtime_s fields zeroed."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name in ("manifest.json", "config_resolved.json"):
            continue
        data = re.sub(rb'"runtime_s": [0-9.e+-]+', b'"runtime_s": 0', path.read_bytes())
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


_PINNED_DIGESTS = {
    ("double_well", "spectrum"):
        "02c7e051ae26b23b0fb51cb86a226a34a4c36d493392cfb0abef16c712aa8aab",
    ("double_well", "synth"):
        "af1c6908dcf47a9b4b65f0ae27a2bbde3e1bc6a17ce7cfb78e5c8a006cff6613",
    ("double_well", "oracle"):
        "43c2d953615efe53f4037ab6e0941538c7c8518ab922a4fc6da63c5ca851477b",
    ("triple_well", "spectrum"):
        "286126e4d0a9868452030318ea041291f3a40ef954b2062a45545f0ca23fc0ad",
    ("triple_well", "synth"):
        "9432166ad7ace01c4838cf8912255af77396a75d5782132f47559ff533ab162f",
    ("triple_well", "oracle"):
        "67e6890e9b086773cc261d447580cba20e1ad7321ed7926f4701147de2d77413",
    ("quadratic", "spectrum"):
        "5d52ce2aa6c01e702dd099f1894ac5ad07c0cabcee6427a5f1034d48c4106c1d",
}


@pytest.mark.parametrize("name,command", list(_PINNED_DIGESTS))
def test_exact_artifacts_match_pinned_digests(tmp_path, name, command):
    # the exact (non-Monte Carlo) artifacts, pinned from the pipeline whose
    # spectrum command took the route-2 values from the decomposition; synth
    # and oracle re-pinned when the chain's eigenvectors and stationary law
    # became SVD null vectors (a few ulp each), which left the rest unmoved;
    # oracle re-pinned again when uniformization's sub-intervals grew from
    # rate-time 64 to 256 (the series rounds over fewer of them)
    path = light_config(tmp_path, **_PINNED_CONFIGS[name])
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 0
    assert _artifact_digest(out) == _PINNED_DIGESTS[name, command]


_SWEEP_CONFIGS = {
    "two_levels": {"epsilon": [0.2, 0.15],
                   "simulation": {"dt": 1e-3, "T": 0.5, "n_paths": 200, "seed": 3,
                                  "store_stride": 50}},
    # y-blocks of 9, 31 and 125 steps, whose windows never align
    "mixed_blocks": {"epsilon": [0.5, 0.2, 0.1],
                     "simulation": {"dt": 1e-3, "T": 1.0, "n_paths": 150, "seed": 3,
                                    "store_stride": 50}},
    # the sweep_quiet shape: three levels of 256-step blocks
    "quiet": {"epsilon": [0.15, 0.1, 0.07],
              "simulation": {"dt": 1e-4, "T": 0.5, "n_paths": 200, "seed": 601,
                             "store_stride": 100}},
}

_SWEEP_DIGESTS = {
    "two_levels":
        "b07db7f9ae4acb84ba392901a0029c6896d2f7fc33c5cc3433aea5519a0daa5f",
    "mixed_blocks":
        "f28c872db8875d98af011e6d3edfda61eca869517d25942e85e9a21492872ff7",
    "quiet":
        "edaab1b0d7fe121ced702a3cfd6ac35bc57e0787bbc9e165f609f8e115e4fb3a",
}


@pytest.mark.parametrize("name", list(_SWEEP_DIGESTS))
def test_sweep_artifacts_match_pinned_digests(tmp_path, name):
    # sweep_report.json, sweep.csv and tracking_trend.svg, pinned from the
    # sweep that ran its levels one after another, each drawing its own
    # normals; re-pinned when the chain's eigenvectors and stationary law
    # became SVD null vectors (a few ulp), the only change that moved them
    path = light_config(tmp_path, **_SWEEP_CONFIGS[name])
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config_resolved.json", "manifest.json", "sweep.csv", "sweep_report.json",
        "tracking_trend.svg"]
    assert _artifact_digest(out) == _SWEEP_DIGESTS[name]


def test_sweep_blow_up_at_one_level_exit_code_2(tmp_path, monkeypatch):
    # NaN starts at one noise level of the lockstep sweep trip its blow-up
    # guard, a numerical failure
    import eigencoupler.simulate as sim
    initial = sim.sample_initial

    def nan_at_eps_0_15(model, rng):
        x0, y0 = initial(model, rng)
        return (x0 * np.nan if model.eps == 0.15 else x0), y0

    monkeypatch.setattr(sim, "sample_initial", nan_at_eps_0_15)
    path = light_config(tmp_path, epsilon=[0.2, 0.15],
                        simulation={"dt": 1e-3, "T": 0.1, "n_paths": 20})
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
