"""Every function the benchmark's tracer wraps still exists.

``bench/tracer.py`` looks up each name of its ``TRACED`` table in the
troplin module of its layer, and fails on a missing one only when a traced
run (``bench/run.py --trace 1``) starts.  This test reads the table from
the file, without importing or changing it, so deleting or renaming a
traced function fails here with its name.  The names with no caller in the
library (ROADMAP item 10: ``linalg.rref``, ``linalg.solve_rational``,
``linalg.in_integer_span``, ``manifold.contains_deck``,
``pairing.end_evaluation`` and ``pairing.GradedSpace.evaluate``) can only go
together with an edit of the tracer, in a change to the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return [f"{layer}.{name}" for layer, names in ast.literal_eval(table).items()
            for name in names]


def resolves(name):
    layer, *path = name.split(".")
    target = importlib.import_module(f"troplin.{layer}")
    for part in path:
        target = getattr(target, part, None)
    return callable(target)


def test_every_traced_name_resolves():
    names = traced_names()
    assert "linalg.hermite_normal_form" in names and "pairing.GradedSpace.evaluate" in names
    assert [name for name in names if not resolves(name)] == []
