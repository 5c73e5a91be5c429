"""The names the benchmark's tracer patches must exist on the package.

perfbench/spans.py wraps each (module, attribute) pair of its TRACED table
with getattr/setattr at run time, so a renamed or deleted function breaks
every traced benchmark run without failing any other test.  The table is
read from the file itself, so it is never copied here.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

from irsmimo import build_channels, mm_auxiliaries, parse_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]


def traced_pairs():
    tree = ast.parse((REPO_ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TRACED table")


@pytest.mark.parametrize("module, attr", traced_pairs())
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"irsmimo.{module}"), attr))


def test_mm_auxiliaries_returns_a_dataclass_of_arrays():
    # the tracer sums the nbytes of the returned record's fields
    scn = parse_scenario(str(REPO_ROOT / "scenarios" / "optimize_small.txt"))
    cs = build_channels(scn)
    aux = mm_auxiliaries(cs.h_t, cs.h_r, cs.theta, cs.eta0, scn.power)
    assert dataclasses.is_dataclass(aux) and not isinstance(aux, type)
    fields = dataclasses.fields(aux)
    assert fields
    assert all(isinstance(getattr(aux, f.name), np.ndarray) for f in fields)
