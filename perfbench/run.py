"""End-to-end benchmark of the eigencoupler CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`. Each timed operation is one `eigencoupler` CLI invocation in a fresh
interpreter with BLAS/OpenMP pinned to one thread. Operations run in whole
rounds (a workload's fixed list of invocations) until `--seconds` have
passed; at least one round always runs. Every invocation's artifacts are
checked (see workloads.py), then deleted.

The benchmark and its children run on one CPU. While a child runs, the
benchmark takes `speed_probe()` every PROBE_EVERY_S on that CPU, and every
time it reports is read at nominal speed: multiplied by NOMINAL_SPEED_S over
the mean probe taken while it ran. The invocation beside the probe moves it
by a few percent at most (`probe_check.py`; METRICS.md), so a change to
eigencoupler moves the scaled times about as it moves the measured ones; the
measured times are printed too. METRICS.md gives the spreads that made the
scaling necessary.

With `--trace 0` the run also times set-up (import plus config parse) in
fresh processes, and reports the end-to-end metrics. With `--trace 1` it
runs rounds with timing spans for `--seconds`, then the round's last
invocation once more under tracemalloc for allocation peaks (which would
distort the timings), and reports per-layer metrics per round; the spans are
written to `perfbench/results/`. The tracing overhead is the traced run's
`trace.op_s_p50` minus the untraced run's `op_s_p50`; it is printed when the
untraced run of the same workload and seed was made first.

A run ends within RUN_LIMIT_S. After a workload's first round, an
invocation that would not end by then is not started; one still running then
is killed and counted as a timeout (see `Runner.op`). So a slower program
reports slower figures rather than none.

Lines starting with `#` are for people; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0
# past a workload's first round, an invocation starts only if PLAN_MARGIN
# times its last duration fits before the deadline
PLAN_MARGIN = 1.2
# tracemalloc slows an invocation about 3x (sweep_quiet) to 4x (simulate_jumps)
ALLOC_SLOWDOWN = 4.5
SETUP_SAMPLES = 7
PROBE_EVERY_S = 0.25
# mean speed_probe() reading on the 2-core host the benchmark was defined on
NOMINAL_SPEED_S = 2.0e-3
# one-thread BLAS/OpenMP: with BLAS threads one verify level spread 4.2-5.7 s,
# pinned 4.9-5.4 s, on a 2-core machine
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}


def speed_probe():
    """How fast the CPU the benchmark is pinned to runs Python at the moment:
    the CPU time of a fixed integer loop of about 2 ms, small enough to stay
    in the first level caches. probe_check.py measures how much the child
    beside it moves it. Never change it: every time read at nominal speed is
    relative to it."""
    start = time.thread_time()
    acc = 0
    for i in range(30_000):
        acc += i % 7
    return time.thread_time() - start


def at_nominal(seconds, speed_s):
    """A time taken while speed_probe() read `speed_s` on average, read at
    nominal speed."""
    return seconds * NOMINAL_SPEED_S / speed_s


def _git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip() or "unknown"
    except OSError:         # no git installed
        return "unknown"


def environment(seed):
    import numpy
    import scipy
    import platform
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "threads": dict(THREAD_VARS),
    }


class Runner:
    """Starts one child interpreter per step, each in its own temporary
    directory under perfbench/results, and never past the run's deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, **THREAD_VARS)
        self.env.pop("EIGENCOUPLER_THREADS", None)
        self.tmp_root = os.path.join(RESULTS, "tmp")

    @contextmanager
    def workdir(self):
        os.makedirs(self.tmp_root, exist_ok=True)
        path = tempfile.mkdtemp(dir=self.tmp_root)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def fits(self, seconds):
        """Whether a step of `seconds` would end before the deadline."""
        return time.monotonic() + seconds < self.deadline

    def child(self, task, workdir):
        """Runs child.py on the task. Returns its result dict plus
        "elapsed_s" (start to exit, as seen from here) and "speed_s" (the
        mean speed probe taken every PROBE_EVERY_S while it ran), or None
        when the child failed. A child still running at the deadline is killed and returned with
        "timed_out" set, its elapsed time as "wall_s" and its peak RSS."""
        task = dict(task, result=os.path.join(workdir, "result.json"))
        task_path = os.path.join(workdir, "task.json")
        with open(task_path, "w") as fh:
            json.dump(task, fh)
        err_path = os.path.join(workdir, "stderr.txt")
        start = time.monotonic()
        timed_out = None
        with open(err_path, "w") as err:
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), task_path],
                                    cwd=workdir, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            probes = [speed_probe()]
            try:
                while True:
                    try:
                        proc.wait(timeout=PROBE_EVERY_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.monotonic() > self.deadline:
                            timed_out = {"timed_out": True, "exit": None,
                                         "peak_rss_mb": _peak_rss_mb(proc.pid)}
                            break
                        probes.append(speed_probe())
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        elapsed = time.monotonic() - start
        probes.append(speed_probe())
        speeds = {"elapsed_s": elapsed, "speed_s": statistics.fmean(probes)}
        if timed_out:
            print(f"# child killed at the run's deadline after {elapsed:.1f} s", file=sys.stderr)
            return dict(timed_out, wall_s=elapsed, **speeds)
        if proc.returncode != 0 or not os.path.exists(task["result"]):
            with open(err_path) as fh:
                print(f"# child exited {proc.returncode}: {fh.read()[-2000:]}", file=sys.stderr)
            return None
        with open(task["result"]) as fh:
            return dict(json.load(fh), **speeds)

    def setup_s(self, config):
        with self.workdir() as wd:
            result = self.child({"mode": "setup", "config": json.dumps(config)}, wd)
        if result is None:
            raise RuntimeError("set-up child failed")
        # killed at the deadline: the time it had run
        setup = result["wall_s"] if result.get("timed_out") else result["setup_s"]
        return setup, result["speed_s"]

    def op(self, op, seed, trace, check, checks, ctx):
        """Runs one CLI invocation and checks its artifacts. A crashed child
        counts as a failed operation with no sample. One killed at the
        deadline is a timeout: a failed operation that leaves the run
        correct, and a sample whose time is what it had run."""
        with self.workdir() as wd:
            out = os.path.join(wd, "out")
            argv = [op.command, "--config", json.dumps(op.config), "--out", out,
                    "--seed", str(seed)]
            result = self.child({"mode": "op", "argv": argv, "trace": trace}, wd)
            if result is None:
                checks.add(f"{op.label}.child", False, True)
                return None
            if result.get("timed_out"):
                checks.add(f"{op.label}.timeout", False, False)
                return dict(result, bytes_out=0, observed={})
            result["bytes_out"] = sum(os.path.getsize(os.path.join(d, f))
                                      for d, _, files in os.walk(out) for f in files)
            try:
                result["observed"] = check(op, result["exit"], out, checks, ctx) or {}
            except (OSError, LookupError, TypeError, ValueError) as exc:
                # missing or malformed artifacts: a failed operation, not a crash
                checks.add(f"{op.label}.artifacts", False, True)
                print(f"# {op.label}: unreadable artifacts: {exc!r}", file=sys.stderr)
                result["observed"] = {}
            return result


def _rounds(runner, wl, seed, seconds, trace, checks, ctx, min_rounds=1):
    """Whole rounds until `seconds` have passed and at least `min_rounds` ran.
    The first round always runs; after it, the rounds stop before an
    invocation that would not end before the deadline."""
    samples, rounds, took = [], 0, {}
    start = time.monotonic()
    while True:
        for op in wl.round:
            if rounds and not runner.fits(PLAN_MARGIN * took.get(op.label, 0.0)):
                return samples
            result = runner.op(op, seed, trace, wl.check, checks, ctx)
            if result is not None:
                samples.append((op, result))
                took[op.label] = result["elapsed_s"]
        rounds += 1
        if time.monotonic() > runner.deadline or (
                rounds >= min_rounds and time.monotonic() - start >= seconds):
            return samples


def _end_to_end(samples, setup, scaled=True):
    """End-to-end metrics; `scaled` reads every time at nominal speed."""
    def at(t, speed_s):
        return at_nominal(t, speed_s) if scaled else t
    walls = [at(r["wall_s"], r["speed_s"]) for _, r in samples]
    steps = sum(op.path_steps for op, r in samples if not r.get("timed_out"))
    return {
        "setup_s": (statistics.median(at(t, p) for t, p in setup), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "path_steps_per_s": (steps / sum(walls), "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for _, r in samples), "MB"),
    }


def _per_layer(wl, samples, alloc):
    """Per-layer metrics per round. Timed-out invocations have no spans; they
    count only toward trace.op_s_p50."""
    done = [(op, r) for op, r in samples if "trace" in r]
    traced = [r for _, r in done]
    rounds = max(len(traced), 1) / len(wl.round)
    peaks = tracer.layer_totals([s for _, r in alloc for s in r["trace"]["spans"]])
    levels = max(sum(op.levels for op, _ in done), 1)
    spans = [s for r in traced for s in r["trace"]["spans"]]
    counters = {k: sum(r["trace"]["counters"][k] for r in traced) for k in tracer.COUNTERS}
    metrics = {}
    for layer, row in tracer.layer_totals(spans).items():
        metrics[f"{layer}.calls"] = (row["calls"] / rounds, "count")
        metrics[f"{layer}.self_s"] = (row["self_s"] / rounds, "s")
        metrics[f"{layer}.cpu_s"] = (row["cpu_s"] / rounds, "s")
        metrics[f"{layer}.peak_alloc_mb"] = (peaks[layer]["peak_alloc_mb"], "MB")
    sim_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "simulate_ensemble")
    metrics.update({
        "spectral.decompose_per_level": (counters["spectral.decompose_calls"] / levels, "count"),
        "spectral.nodes": (counters["spectral.nodes"] / rounds, "count"),
        "tridiag.eigenpairs": (counters["tridiag.eigenpairs"] / rounds, "count"),
        "oracle.joint_evolutions_per_level": (counters["oracle.joint_evolutions"] / levels,
                                              "count"),
        "oracle.rate_time": (counters["oracle.rate_time"] / rounds, "1"),
        "simulate.path_steps": (counters["simulate.path_steps"] / rounds, "count"),
        "simulate.jumps_per_path": (counters["simulate.jumps"]
                                    / max(counters["simulate.paths"], 1), "1/path"),
        "simulate.path_steps_per_s": (counters["simulate.path_steps"] / sim_s if sim_s else 0.0,
                                      "1/s"),
        "stats.records_scanned": (counters["stats.records_scanned"] / rounds, "count"),
        "cli.bytes_out": (sum(r["bytes_out"] for r in traced) / rounds, "B"),
        "trace.counter_errors": (counters["trace.counter_errors"], "count"),
        "trace.op_s_p50": (statistics.median(at_nominal(r["wall_s"], r["speed_s"])
                                             for _, r in samples), "s"),
    })
    return metrics


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run of one workload; returns (result, record) where the
    result is the JSON line's object and the record the results-file body."""
    wl = workloads.build(name, tiny)
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    checks = workloads.Checks()
    ctx = wl.prepare(runner, wl, seed) if wl.prepare else {}
    record = {"workload": name, "seconds": seconds, "trace": trace, "tiny": tiny,
              "env": environment(seed)}
    if not trace:
        runner.setup_s(wl.round[0].config)        # warm-up: byte-compiles the package
        setup = [runner.setup_s(wl.round[0].config) for _ in range(SETUP_SAMPLES)]
    if wl.probe is not None:
        # first, so that a slower program cannot crowd it out of the run
        runner.op(wl.probe, seed, None, workloads.check_probe, checks, ctx)
    if trace:
        samples = _rounds(runner, wl, seed, seconds, "time", checks, ctx)
        # tracemalloc slows an invocation 3-4x: the round's last one, once,
        # when it would end before the deadline
        op = wl.round[-1]
        last = [r for o, r in samples if o is op]
        alloc = []
        if last and runner.fits(ALLOC_SLOWDOWN * last[-1]["elapsed_s"]):
            result = runner.op(op, seed, "alloc", wl.check, checks, ctx)
            alloc = [(op, result)] if result is not None and "trace" in result else []
        if not alloc:
            print("# no allocation run before the deadline: peak_alloc_mb reads 0",
                  file=sys.stderr)
        record["alloc_run"] = bool(alloc)
    else:
        samples = _rounds(runner, wl, seed, seconds, None, checks, ctx, wl.min_rounds)
    if not samples:
        raise RuntimeError("every invocation of the workload crashed")
    if trace:
        metrics = _per_layer(wl, samples, alloc)
        record["spans"] = [{"op": op.label, "trace": mode, **r["trace"]}
                           for mode, part in (("time", samples), ("alloc", alloc))
                           for op, r in part if "trace" in r]
    else:
        metrics = _end_to_end(samples, setup)
        metrics["ok_frac"] = (1.0 - checks.failed / checks.attempted, "fraction")
        record.update(setup=[{"setup_s": t, "speed_s": p} for t, p in setup],
                      raw=_end_to_end(samples, setup, scaled=False))
    record["ops"] = [{"op": op.label, "exit": r["exit"], "wall_s": r["wall_s"],
                      "timed_out": bool(r.get("timed_out")), "speed_s": r["speed_s"],
                      "peak_rss_mb": r["peak_rss_mb"], "bytes_out": r["bytes_out"],
                      **r["observed"]} for op, r in samples]
    record["failures"] = checks.notes
    record["z_scores"] = checks.z_scores
    result = {"correct": checks.correct, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    return result, record


def _summary(name, result, record):
    ops = record["ops"]
    print(f"# {name}: {len(ops)} ops, correct={result['correct']}, "
          f"failed {result['failed']} of {result['attempted']}"
          f" -> fail_frac {result['failed'] / result['attempted']:.4f} fraction")
    for key, m in result["metrics"].items():
        extra = f"  (n={len(ops)})" if key.endswith("_p50") else ""
        print(f"# {name} {key} {m['value']:.6g} {m['unit']}{extra}")
    if "raw" in record:
        measured = ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in record["raw"].items()
                             if u == "s")
        print(f"# {name} times are read at nominal speed (speed probe "
              f"{NOMINAL_SPEED_S * 1e3:g} ms); as measured: {measured}")
    for note in record["failures"]:
        print(f"# {name} failed: {note}")


def _peak_rss_mb(pid):
    """Peak RSS of a running process so far, from /proc; 0 where unreadable."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _terminate(signum, frame):
    # unwinds through Runner.child, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a u64")
    if not os.path.isfile(os.path.join(SRC, "eigencoupler", "cli.py")):
        print(f"no eigencoupler sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"{name}_seed{args.seed}_trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
        print(f"# env {json.dumps(record['env'])}")
        _summary(name, result, record)
        untraced = os.path.join(RESULTS, f"{name}_seed{args.seed}_trace0.json")
        if args.trace and os.path.exists(untraced):
            with open(untraced) as fh:
                base = json.load(fh)["result"]["metrics"]["op_s_p50"]["value"]
            traced = result["metrics"]["trace.op_s_p50"]["value"]
            print(f"# {name} tracing overhead {traced - base:.4g} s "
                  f"(traced {traced:.4g} s minus untraced {base:.4g} s)")
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
