"""Experiment configuration: JSON in, validated and default-filled object out.

Each config key is declared once, as a field of ExperimentConfig after
potential and epsilons: its metadata names the key's section (None at the
top level), the key, its rule, the problem reported when a value breaks the
rule and the cast applied to a value that keeps it, and the field's default
is the key's. parse_config, the allowed keys, DEFAULTS, resolved() and
apply_overrides all read these declarations; only potential, epsilon and the
rules that span keys (the dt/T step grid, format names) are spelt out.

Validation collects every problem before failing, and unknown keys are
rejected at all levels so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import NORMALIZATION_TOL
from .errors import ConfigError
from .potential import preset_names
from .simulate import _is_integer, _is_seed, _is_size, _off_step_grid, _steps_fit

__all__ = ["ExperimentConfig", "parse_config", "apply_overrides", "DEFAULTS"]


def _is_num(x) -> bool:
    """A finite JSON number: json reads NaN and Infinity, and integers too
    large for a float, none of which is a usable config number."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_positive(x) -> bool:
    return _is_num(x) and x > 0


def _is_list(value, valid) -> bool:
    return isinstance(value, (list, tuple)) and all(valid(v) for v in value)


def _float_array(value):
    """value as a float array, or None if it is ragged, not numeric or not
    finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    return arr if np.all(np.isfinite(arr)) else None


def _is_square(value) -> bool:
    q = _float_array(value)
    return q is not None and q.ndim == 2 and q.shape[0] == q.shape[1]


def _is_probability(value) -> bool:
    p = _float_array(value)
    # range-checked before it is summed, which could overflow
    return (p is not None and p.ndim == 1 and not np.any((p < 0) | (p > 1))
            and abs(p.sum() - 1.0) <= NORMALIZATION_TOL)


def _key(section, key, default, rule, problem, cast=None):
    """The declaration of config key section.key (key, at the top level if
    section is None): a field defaulting to its default, whose value must
    pass rule, else problem is reported; cast converts a value that passes."""
    return dataclasses.field(default=default, metadata={
        "section": section, "key": key, "rule": rule, "problem": problem, "cast": cast})


@dataclass(frozen=True)
class ExperimentConfig:
    potential: object            # preset name or coefficient list
    epsilons: tuple              # one or more noise levels (sweep if several)
    grid_n: int = _key("grid", "n", 2000, lambda v: _is_size(v, 3),
                       "must be an integer in [3, 2**63 - 1]")
    grid_L: object = _key("grid", "L", None, lambda v: v is None or _is_positive(v),
                          "must be a positive number or null")
    oracle_n: int = _key("oracle", "n", 200, lambda v: _is_size(v, 3),
                         "must be an integer in [3, 2**63 - 1]")
    oracle_times: tuple = _key(
        "oracle", "times", (0.1, 1.0, 10.0),
        lambda v: _is_list(v, lambda t: _is_num(t) and t >= 0) and len(v) > 0,
        "must be a nonempty list of nonnegative numbers", tuple)
    theta: float = _key("chain", "theta", 0.5, lambda v: _is_num(v) and 0 < v < 1,
                        "must lie in (0, 1)", float)
    kappa: float = _key("chain", "kappa", 0.9, lambda v: _is_num(v) and 0 <= v < 1,
                        "must lie in [0, 1)", float)
    explicit_Q: object = _key("chain", "Q", None, lambda v: v is None or _is_square(v),
                              "must be a finite square matrix")
    chain_p: object = _key("chain", "p", None, lambda v: v is None or _is_probability(v),
                           "must be a probability vector")
    maximize_scale: bool = _key("chain", "maximize_scale", False,
                                lambda v: isinstance(v, bool), "must be a boolean")
    dt: float = _key("simulation", "dt", 1e-4, _is_positive, "must be positive", float)
    T: float = _key("simulation", "T", 10.0, _is_positive, "must be positive", float)
    n_paths: int = _key("simulation", "n_paths", 20000, _is_size,
                        "must be an integer in [1, 2**63 - 1]")
    seed: int = _key("simulation", "seed", 42, _is_seed, "must be a u64")
    store_stride: int = _key("simulation", "store_stride", 500, _is_size,
                             "must be an integer in [1, 2**63 - 1]")
    out_dir: str = _key("outputs", "directory", ".", lambda v: isinstance(v, str),
                        "must be a string")
    formats: tuple = _key("outputs", "formats", ("json", "csv", "svg"),
                          lambda v: _is_list(v, lambda f: isinstance(f, str)),
                          "must be a list of format names", tuple)
    allow_assumption_violation: bool = _key(None, "allow_assumption_violation", False,
                                            lambda v: isinstance(v, bool), "must be a boolean")
    threads: int = _key(None, "threads", 1, lambda v: _is_integer(v) and v >= 1,
                        "must be a positive integer")

    def resolved(self) -> dict:
        """The config as JSON, every key present: parse_config reads it back
        to an equal config."""
        out = {"potential": self.potential, "epsilon": list(self.epsilons)}
        for f in _KEYED.values():
            value = getattr(self, f.name)
            section = f.metadata["section"]
            table = out.setdefault(section, {}) if section else out
            table[f.metadata["key"]] = list(value) if f.metadata["cast"] is tuple else value
        return out


# every declared key's field, by field name, in field order
_KEYED = {f.name: f for f in dataclasses.fields(ExperimentConfig)[2:]}
DEFAULTS = {name: f.default for name, f in _KEYED.items()}

# the keys each section allows, the top level's (None) first
_ALLOWED = {None: {"potential", "epsilon"}}
for _f in _KEYED.values():
    _ALLOWED[None].add(_f.metadata["section"] or _f.metadata["key"])
    _ALLOWED.setdefault(_f.metadata["section"], set()).add(_f.metadata["key"])
del _f


def _table(data, section, problems) -> dict:
    """The object holding section's keys (the top level's if section is
    None), {} if it is not an object; its problems appended to problems."""
    table = data if section is None else data.get(section, {})
    if not isinstance(table, dict):
        problems.append(f"{section}: must be an object")
        return {}
    allowed = _ALLOWED[section]
    problems.extend(f"{section or 'top level'}: unknown key {key!r} "
                    f"(allowed: {', '.join(sorted(allowed))})"
                    for key in table if key not in allowed)
    return table


def _load(source):
    """The JSON value source holds: a path's contents, else source as JSON."""
    if not isinstance(source, (str, os.PathLike)):
        raise ConfigError([f"config must be a dict, a path or JSON text, "
                           f"not {type(source).__name__}"])
    text = None
    try:
        path = Path(source)
        if path.exists():
            text = path.read_text()
    except OSError:
        pass
    try:
        return json.loads(str(source) if text is None else text)
    except json.JSONDecodeError as exc:
        if text is not None:
            raise ConfigError([f"not valid JSON: {exc}"]) from exc
        shown = str(source)
        shown = shown if len(shown) <= 80 else shown[:77] + "..."
        raise ConfigError([f"no such file: {shown!r} (nor valid JSON: {exc})"]) from exc


def parse_config(source) -> ExperimentConfig:
    """Parse a config from a path, JSON text, or a dict.

    Raises:
        ConfigError: with the full list of schema problems, or the one
            problem of a source that is none of the three.
    """
    data = source if isinstance(source, dict) else _load(source)
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])

    problems = []
    tables = {None: _table(data, None, problems)}

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
    epsilons = ()
    if eps_raw is None:
        problems.append("epsilon: required (number or list for a sweep)")
    else:
        eps_list = eps_raw if isinstance(eps_raw, (list, tuple)) else [eps_raw]
        if eps_list and all(_is_positive(e) for e in eps_list):
            epsilons = tuple(float(e) for e in eps_list)
        else:
            problems.append("epsilon: every value must be a positive number")

    values = {}      # the keys whose values pass their rules
    for name, f in _KEYED.items():
        section, key = f.metadata["section"], f.metadata["key"]
        if section not in tables:
            tables[section] = _table(data, section, problems)
        value = tables[section].get(key, f.default)
        if not f.metadata["rule"](value):
            problems.append(f"{section + '.' if section else ''}{key}: {f.metadata['problem']}")
        else:
            values[name] = f.metadata["cast"](value) if f.metadata["cast"] else value

    if {"dt", "T"} <= values.keys():
        if not _steps_fit(values["dt"], values["T"]):
            problems.append("simulation: T / dt steps must be fewer than 2**63 - 1")
        elif _off_step_grid(values["dt"], values["T"]):
            problems.append("simulation.T: must be a whole number of dt steps")
    bad = set(values.get("formats", ())) - {"json", "csv", "svg"}
    if bad:
        problems.append(f"outputs.formats: unknown formats {sorted(bad)}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(potential=potential, epsilons=epsilons, **values)


def apply_overrides(cfg: ExperimentConfig, seed=None, threads=None) -> ExperimentConfig:
    """cfg with a command line's --seed and --threads, each checked by the
    rule of its config key.

    Raises:
        ConfigError: with one line per bad override.
    """
    problems, changes = [], {}
    for name, value in (("seed", seed), ("threads", threads)):
        if value is None:
            continue
        meta = _KEYED[name].metadata
        if meta["rule"](value):
            changes[name] = value
        else:
            problems.append(f"--{meta['key']}: {meta['problem']}")
    if problems:
        raise ConfigError(problems)
    return dataclasses.replace(cfg, **changes)
