"""Golden demo output: each script in ``demos/`` runs in a fresh interpreter
and its stdout must match ``demo_golden/<demo>.txt`` byte for byte.

Demo 05 prints Python reprs such as ``Fraction(1, 2)``, so this also pins
which values come out as int and which as Fraction.  Regenerate a file only
when an output change is intended:

    PYTHONPATH=src python demos/<demo>.py > tests/demo_golden/<demo>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "demo_golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS and sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()
