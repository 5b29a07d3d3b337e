"""Smoke test of the narrative demos: each runs to completion."""

import pathlib
import re
import runpy

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_chain_synthesis_demo(capsys):
    # the one demo that calls stationary_distribution, scaled_eigenvectors
    # and validate_chain: the triple-well chain passes every structure check
    runpy.run_path(str(DEMOS / "03_chain_synthesis.py"), run_name="__main__")
    assert "structure checks pass: True" in capsys.readouterr().out


def test_conditional_law_oracle_demo(capsys):
    # the clean coupling meets the oracle tolerance and the perturbed one
    # (a dataclasses.replace of its eigenvectors) fails it
    runpy.run_path(str(DEMOS / "04_conditional_law_oracle.py"), run_name="__main__")
    clean, perturbed = map(float, re.findall(r"max TV = (\S+)", capsys.readouterr().out))
    assert clean <= 1e-8 and perturbed > 1e-4


def test_monte_carlo_tracking_demo(capsys):
    # the public ensemble columns: len, jump_t, x[-1], y_at(T) and
    # tracking_probability, at three noise levels
    runpy.run_path(str(DEMOS / "05_monte_carlo_tracking.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert re.findall(r": (\d+) paths, \d+ chain jumps", out) == ["3000"] * 3
    for oracle, mc, se in re.findall(r"oracle (\S+), MC (\S+) \+- (\S+)", out):
        assert abs(float(mc) - float(oracle)) <= 3 * float(se)
    assert all(float(tv) < 0.1 for tv in re.findall(r"histogram TV = (\S+)", out))


def test_exit_times_and_rates_demo(capsys):
    # the rate-match table of both wells and the holding-time KS verdict,
    # whose first jump times are read off the jump log
    runpy.run_path(str(DEMOS / "06_exit_times_and_rates.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert re.search(r"i->j +chain_exact +mc_estimate", out)
    assert len(re.findall(r"^ +[01]->[01] ", out, re.MULTILINE)) == 2
    assert re.search(r"holding-time KS: D = \S+ vs bootstrap 5% critical \S+ -> "
                     r"(consistent with exponential|rejected)", out)
