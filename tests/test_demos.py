"""Smoke test of the narrative demos: each runs to completion."""

import pathlib
import re
import runpy

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_conditional_law_oracle_demo(capsys):
    # the clean coupling meets the oracle tolerance and the perturbed one
    # (a dataclasses.replace of its eigenvectors) fails it
    runpy.run_path(str(DEMOS / "04_conditional_law_oracle.py"), run_name="__main__")
    clean, perturbed = map(float, re.findall(r"max TV = (\S+)", capsys.readouterr().out))
    assert clean <= 1e-8 and perturbed > 1e-4
