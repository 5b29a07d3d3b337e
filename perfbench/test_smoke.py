"""Smoke test of the benchmark itself: every workload at its tiny size, in
both modes, reports every metric BENCHMARK.json names, with its unit. No
timing is asserted.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os

import pytest

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# the counter of the work that dominates each workload
DOMINANT = {"verify_exact": "tridiag.eigenpairs", "sweep_quiet": "simulate.path_steps",
            "simulate_jumps": "simulate.path_steps"}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_reports_every_metric(name, trace):
    result, record = run.run_workload(name, seed=7, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["env"]["seed"] == 7 and record["env"]["threads"]
    if trace:
        assert result["metrics"]["trace.counter_errors"]["value"] == 0
        assert result["metrics"][DOMINANT[name]]["value"] > 0
        assert record["alloc_run"]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_deadline_reports_timeouts(monkeypatch, trace):
    """Invocations killed at the run's deadline are failed operations that
    keep the run correct, and the run still reports every metric."""
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.0)
    result, record = run.run_workload("sweep_quiet", seed=7, seconds=0, trace=trace, tiny=True)
    assert result["correct"] is True
    assert result["failed"] >= 1 and record["failures"] == ["sweep.timeout"]
    assert all(op["timed_out"] for op in record["ops"])
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(run.HERE, "no-such-src"))
    code = run.main(["--workload", "sweep_quiet", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
