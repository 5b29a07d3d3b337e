"""One measured step of the benchmark, run in a fresh interpreter.

    python3 child.py <task.json>

The task file names the mode and where to write the result:

* "setup": time `import eigencoupler.cli` plus `parse_config` of the
  workload's config, from interpreter start-up to the parsed config.
* "op": run `eigencoupler.cli.main(argv)` once and record its wall time
  and the process's peak RSS; with "trace" set to "time" or "alloc", under
  the outside-in tracer in that mode.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _setup(task):
    from eigencoupler import cli  # noqa: F401
    from eigencoupler.config import parse_config
    parse_config(task["config"])
    return {"setup_s": time.perf_counter() - _T0}


def _op(task):
    from eigencoupler import cli
    tracer = None
    if task.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer.install(alloc=task["trace"] == "alloc")
    start = time.perf_counter()
    code = cli.main(task["argv"])
    wall = time.perf_counter() - start
    result = {"exit": code, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.export()
    return result


def main(path):
    with open(path) as fh:
        task = json.load(fh)
    result = _setup(task) if task["mode"] == "setup" else _op(task)
    with open(task["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
