"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name and silently skips a name that no longer exists, so a rename would only
show as a zero work counter. This checks every counted name here instead."""

import importlib
import importlib.util
from pathlib import Path

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
