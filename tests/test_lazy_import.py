"""``import troplin`` loads no module that only ``data_path`` needs.

``importlib.resources`` is imported inside ``data_path``.  The check runs
in a fresh interpreter started with ``-S``, where no ``site`` hook (such as
a ``.pth`` file) has imported it first, and with ``-B``: its environment
holds only ``PYTHONPATH``, and without the flag it would leave
``src/troplin/__pycache__`` behind."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CODE = """
import sys
import troplin as t
print(sys.dont_write_bytecode)
print("importlib.resources" in sys.modules)
print(len(t.data_path("fig1a.json").read_text()) > 0)
"""


def test_import_leaves_importlib_resources_unloaded():
    done = subprocess.run([sys.executable, "-B", "-S", "-c", CODE],
                          env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False", "True"]
