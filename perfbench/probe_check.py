"""Does the speed probe depend on what runs beside it?

    python3 perfbench/probe_check.py

run.py scales every time by `speed_probe()` readings taken on the pinned CPU
while an invocation runs beside the probe. This script runs each timed
invocation of every workload once, pinned like the benchmark, and every
PROBE_EVERY_S seconds takes two readings a few milliseconds apart: one with
the invocation running, one with it stopped (SIGSTOP). The order alternates from pair to pair. The pairs share the
host's speed of the moment, so their ratio shows only the invocation's
effect on the probe. It prints, per workload, the mean and median ratio
(running over stopped) and the number of pairs; a ratio of 1 means the
probe does not see the program.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _stopped_probe(proc):
    proc.send_signal(signal.SIGSTOP)
    try:
        time.sleep(0.005)
        return run.speed_probe()
    finally:
        proc.send_signal(signal.SIGCONT)


def pairs(runner, op):
    """(running, stopped) probe readings over one invocation of `op`."""
    out = []
    with runner.workdir() as wd:
        task = {"mode": "op", "result": os.path.join(wd, "result.json"),
                "argv": [op.command, "--config", json.dumps(op.config),
                         "--out", os.path.join(wd, "out"), "--seed", "1"]}
        with open(os.path.join(wd, "task.json"), "w") as fh:
            json.dump(task, fh)
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                 os.path.join(wd, "task.json")],
                                cwd=wd, env=runner.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            while True:
                try:
                    proc.wait(timeout=run.PROBE_EVERY_S)
                    break
                except subprocess.TimeoutExpired:
                    if len(out) % 2:
                        stopped = _stopped_probe(proc)
                        running = run.speed_probe()
                    else:
                        running = run.speed_probe()
                        stopped = _stopped_probe(proc)
                    if proc.poll() is None:
                        out.append((running, stopped))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return out


def main():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = run.Runner(float("inf"))
    for name in workloads.NAMES:
        got = [p for op in workloads.build(name).round for p in pairs(runner, op)]
        ratios = [a / b for a, b in got]
        print(f"{name}: running/stopped mean {statistics.fmean(ratios):.4f} "
              f"median {statistics.median(ratios):.4f} over {len(got)} pairs; "
              f"mean reading running {statistics.fmean(a for a, _ in got) * 1e3:.4f} ms, "
              f"stopped {statistics.fmean(b for _, b in got) * 1e3:.4f} ms", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
