"""Experiment configuration: JSON in, validated and default-filled object out.

Validation collects every problem before failing, and unknown keys are
rejected at all levels so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .potential import preset_names
from .simulate import _is_integer, _is_seed, _is_size, _off_step_grid, _steps_fit

__all__ = ["ExperimentConfig", "parse_config", "apply_overrides", "DEFAULTS"]

DEFAULTS = {
    "theta": 0.5,
    "kappa": 0.9,
    "grid_n": 2000,
    "grid_L": None,
    "oracle_n": 200,
    "oracle_times": (0.1, 1.0, 10.0),
    "dt": 1e-4,
    "T": 10.0,
    "n_paths": 20000,
    "seed": 42,
    "store_stride": 500,
    "formats": ("json", "csv", "svg"),
}

_TOP_KEYS = {"potential", "epsilon", "grid", "chain", "simulation", "oracle",
             "outputs", "allow_assumption_violation", "threads"}
_GRID_KEYS = {"n", "L"}
_CHAIN_KEYS = {"theta", "kappa", "Q", "p", "maximize_scale"}
_SIM_KEYS = {"dt", "T", "n_paths", "seed", "store_stride"}
_ORACLE_KEYS = {"n", "times"}
_OUT_KEYS = {"directory", "formats"}


@dataclass(frozen=True)
class ExperimentConfig:
    potential: object            # preset name or coefficient list
    epsilons: tuple              # one or more noise levels (sweep if several)
    grid_n: int
    grid_L: object
    oracle_n: int
    oracle_times: tuple
    theta: float
    kappa: float
    explicit_Q: object
    chain_p: object
    maximize_scale: bool
    dt: float
    T: float
    n_paths: int
    seed: int
    store_stride: int
    out_dir: str
    formats: tuple
    allow_assumption_violation: bool
    threads: int

    def resolved(self) -> dict:
        return {
            "potential": self.potential,
            "epsilon": list(self.epsilons),
            "grid": {"n": self.grid_n, "L": self.grid_L},
            "oracle": {"n": self.oracle_n, "times": list(self.oracle_times)},
            "chain": {"theta": self.theta, "kappa": self.kappa,
                      "Q": self.explicit_Q, "p": self.chain_p,
                      "maximize_scale": self.maximize_scale},
            "simulation": {"dt": self.dt, "T": self.T, "n_paths": self.n_paths,
                           "seed": self.seed, "store_stride": self.store_stride},
            "outputs": {"directory": self.out_dir, "formats": list(self.formats)},
            "allow_assumption_violation": self.allow_assumption_violation,
            "threads": self.threads,
        }


def _is_threads(x) -> bool:
    return _is_integer(x) and x >= 1


def _is_num(x) -> bool:
    """A finite JSON number: json reads NaN and Infinity, and integers too
    large for a float, none of which is a usable config number."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _list_of(value, valid):
    """value as a tuple if it is a list whose items all pass valid, else None."""
    if isinstance(value, (list, tuple)) and all(valid(v) for v in value):
        return tuple(value)
    return None


def _float_array(value):
    """value as a float array, or None if it is ragged, not numeric or not
    finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if np.all(np.isfinite(arr)) else None


def _check_keys(problems, mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            problems.append(f"{where}: unknown key {key!r} "
                            f"(allowed: {', '.join(sorted(allowed))})")


def parse_config(source) -> ExperimentConfig:
    """Parse a config from a path, JSON text, or a dict.

    Raises:
        ConfigError: with the full list of schema problems.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = None
        try:
            path = Path(source)
            if path.exists():
                text = path.read_text()
        except OSError:
            pass
        if text is None:
            text = str(source)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])

    problems = []
    _check_keys(problems, data, _TOP_KEYS, "top level")

    potential = data.get("potential")
    if potential is None:
        problems.append("potential: required (preset name or coefficient list)")
    elif isinstance(potential, str):
        if potential not in preset_names():
            problems.append(f"potential: unknown preset {potential!r} "
                            f"(known: {', '.join(preset_names())})")
    elif isinstance(potential, (list, tuple)):
        if not all(_is_num(c) for c in potential):
            problems.append("potential: coefficient list must be numeric")
    else:
        problems.append("potential: must be a preset name or coefficient list")

    eps_raw = data.get("epsilon")
    if eps_raw is None:
        problems.append("epsilon: required (number or list for a sweep)")
        epsilons = ()
    else:
        eps_list = eps_raw if isinstance(eps_raw, (list, tuple)) else [eps_raw]
        if not eps_list or not all(_is_num(e) and e > 0 for e in eps_list):
            problems.append("epsilon: every value must be a positive number")
            epsilons = ()
        else:
            epsilons = tuple(float(e) for e in eps_list)

    grid = data.get("grid", {})
    if not isinstance(grid, dict):
        problems.append("grid: must be an object")
        grid = {}
    _check_keys(problems, grid, _GRID_KEYS, "grid")
    grid_n = grid.get("n", DEFAULTS["grid_n"])
    grid_L = grid.get("L", DEFAULTS["grid_L"])
    if not _is_size(grid_n, 3):
        problems.append("grid.n: must be an integer in [3, 2**63 - 1]")
    if grid_L is not None and not (_is_num(grid_L) and grid_L > 0):
        problems.append("grid.L: must be a positive number or null")

    chain = data.get("chain", {})
    if not isinstance(chain, dict):
        problems.append("chain: must be an object")
        chain = {}
    _check_keys(problems, chain, _CHAIN_KEYS, "chain")
    theta = chain.get("theta", DEFAULTS["theta"])
    kappa = chain.get("kappa", DEFAULTS["kappa"])
    explicit_Q = chain.get("Q")
    chain_p = chain.get("p")
    maximize_scale = chain.get("maximize_scale", False)
    if not (_is_num(theta) and 0 < theta < 1):
        problems.append("chain.theta: must lie in (0, 1)")
    if not (_is_num(kappa) and 0 <= kappa < 1):
        problems.append("chain.kappa: must lie in [0, 1)")
    if explicit_Q is not None:
        q = _float_array(explicit_Q)
        if q is None or q.ndim != 2 or q.shape[0] != q.shape[1]:
            problems.append("chain.Q: must be a finite square matrix")
    if chain_p is not None:
        p = _float_array(chain_p)
        # range-checked before it is summed, which could overflow
        if (p is None or p.ndim != 1 or np.any((p < 0) | (p > 1))
                or abs(p.sum() - 1.0) > 1e-9):
            problems.append("chain.p: must be a probability vector")
    if not isinstance(maximize_scale, bool):
        problems.append("chain.maximize_scale: must be a boolean")

    sim = data.get("simulation", {})
    if not isinstance(sim, dict):
        problems.append("simulation: must be an object")
        sim = {}
    _check_keys(problems, sim, _SIM_KEYS, "simulation")
    dt = sim.get("dt", DEFAULTS["dt"])
    T = sim.get("T", DEFAULTS["T"])
    n_paths = sim.get("n_paths", DEFAULTS["n_paths"])
    seed = sim.get("seed", DEFAULTS["seed"])
    store_stride = sim.get("store_stride", DEFAULTS["store_stride"])
    if not (_is_num(dt) and dt > 0):
        problems.append("simulation.dt: must be positive")
    if not (_is_num(T) and T > 0):
        problems.append("simulation.T: must be positive")
    if not _is_size(n_paths):
        problems.append("simulation.n_paths: must be an integer in [1, 2**63 - 1]")
    if not _is_seed(seed):
        problems.append("simulation.seed: must be a u64")
    if not _is_size(store_stride):
        problems.append("simulation.store_stride: must be an integer in [1, 2**63 - 1]")
    if _is_num(dt) and _is_num(T) and dt > 0 and T > 0:
        if not _steps_fit(dt, T):
            problems.append("simulation: T / dt steps must be fewer than 2**63 - 1")
        elif _off_step_grid(dt, T):
            problems.append("simulation.T: must be a whole number of dt steps")

    oracle = data.get("oracle", {})
    if not isinstance(oracle, dict):
        problems.append("oracle: must be an object")
        oracle = {}
    _check_keys(problems, oracle, _ORACLE_KEYS, "oracle")
    oracle_n = oracle.get("n", DEFAULTS["oracle_n"])
    oracle_times = _list_of(oracle.get("times", DEFAULTS["oracle_times"]),
                            lambda t: _is_num(t) and t >= 0)
    if not _is_size(oracle_n, 3):
        problems.append("oracle.n: must be an integer in [3, 2**63 - 1]")
    if not oracle_times:
        problems.append("oracle.times: must be a nonempty list of nonnegative numbers")

    outputs = data.get("outputs", {})
    if not isinstance(outputs, dict):
        problems.append("outputs: must be an object")
        outputs = {}
    _check_keys(problems, outputs, _OUT_KEYS, "outputs")
    out_dir = outputs.get("directory", ".")
    formats = _list_of(outputs.get("formats", DEFAULTS["formats"]),
                       lambda f: isinstance(f, str))
    if formats is None:
        problems.append("outputs.formats: must be a list of format names")
        formats = ()
    bad = set(formats) - {"json", "csv", "svg"}
    if bad:
        problems.append(f"outputs.formats: unknown formats {sorted(bad)}")

    allow = data.get("allow_assumption_violation", False)
    if not isinstance(allow, bool):
        problems.append("allow_assumption_violation: must be a boolean")
    threads = data.get("threads", 1)
    if not _is_threads(threads):
        problems.append("threads: must be a positive integer")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        potential=potential, epsilons=epsilons, grid_n=grid_n, grid_L=grid_L,
        oracle_n=oracle_n, oracle_times=oracle_times, theta=float(theta),
        kappa=float(kappa), explicit_Q=explicit_Q, chain_p=chain_p,
        maximize_scale=maximize_scale, dt=float(dt), T=float(T),
        n_paths=n_paths, seed=seed, store_stride=store_stride,
        out_dir=str(out_dir), formats=formats,
        allow_assumption_violation=allow, threads=threads)


def apply_overrides(cfg: ExperimentConfig, seed=None, threads=None) -> ExperimentConfig:
    """cfg with a command line's --seed and --threads, each checked by the
    rule of its config key.

    Raises:
        ConfigError: with one line per bad override.
    """
    problems, changes = [], {}
    if seed is not None:
        if _is_seed(seed):
            changes["seed"] = seed
        else:
            problems.append("--seed: must be a u64")
    if threads is not None:
        if _is_threads(threads):
            changes["threads"] = threads
        else:
            problems.append("--threads: must be a positive integer")
    if problems:
        raise ConfigError(problems)
    return dataclasses.replace(cfg, **changes)
