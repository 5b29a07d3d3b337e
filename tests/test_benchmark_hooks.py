"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name and silently skips a name that no longer exists, so a rename would only
show as a zero work counter. This checks every counted name here instead,
and that the ensemble counter still reads what an Ensemble holds."""

import importlib
import importlib.util
from pathlib import Path

from eigencoupler.coupling import build_pipeline
from eigencoupler.simulate import EnsembleConfig, simulate_ensemble

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counted_functions_exist_in_their_layers():
    tracer = _load_tracer()
    layer_of = {name: layer for layer, names in tracer.TARGETS.items() for name in names}
    assert tracer._COUNT
    for name in tracer._COUNT:
        assert name in layer_of, f"{name} is counted but not traced"
        module = importlib.import_module(f"eigencoupler.{layer_of[name]}")
        assert callable(getattr(module, name, None)), f"eigencoupler.{layer_of[name]}.{name}"


def test_ensemble_counter_reads_the_ensemble():
    # the simulate counter reads the ensemble it is handed: one path per
    # path and one jump per entry of the jump log
    tracer = _load_tracer()
    pipe = build_pipeline("double_well", 0.5, 200)
    cfg = EnsembleConfig(n_paths=6, dt=4e-3, horizon=2.0, seed=3, store_stride=50)
    ens = simulate_ensemble(cfg, pipe.model, pipe.potential)
    counters = tracer._Counters()
    tracer._COUNT["simulate_ensemble"](counters, (cfg, pipe.model, pipe.potential), {}, ens)
    assert len(ens.jump_t) > 0
    assert counters["simulate.jumps"] == len(ens.jump_t)
    assert counters["simulate.paths"] == len(ens)
    assert counters["simulate.path_steps"] == cfg.n_paths * cfg.n_steps
