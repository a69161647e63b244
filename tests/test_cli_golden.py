"""Golden command-line output: stdout, stderr and exit code of every subcommand.

Each case runs ``troplin`` in-process, in text and ``--json`` mode, in a
directory that holds the bundled data files plus the documents written by
``write_inputs`` (manifolds, two circle modifications, Roitman instances, a
curve that fails validation and a second Klein 0-cycle), so every path in
the output is a bare file name.  Failing checks, failed preconditions and
usage errors are cases too.  The recorded outputs are
in ``cli_golden.json`` next to this file.  Regenerate them only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io as textio
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import build_t3_witness, random_t2_horizontal_curve

import troplin as t
from troplin import cli, io

GOLDEN = Path(__file__).parent / "cli_golden.json"
DATA = Path(t.data_path("fig1a.json")).parent

AREA = {"dim": 2, "degree": 2, "coefficients": [1]}
VOLUME = {"dim": 3, "degree": 3, "coefficients": [1]}
ROITMAN = {
    # the example in docs/formats.md: isotropic, dim W = 2 <= 2
    "roitman-docs.json": {
        "blocks": [{"dimension": 2, "sign": 1, "form": AREA},
                   {"dimension": 2, "sign": -1, "form": AREA}],
        "vectors": [["1", "0", "1", "0"], ["0", "1", "0", "1"]],
    },
    # not isotropic: the first block's area form pairs the two vectors
    "roitman-open.json": {
        "blocks": [{"dimension": 2, "sign": 1, "form": AREA},
                   {"dimension": 2, "sign": 1, "form": AREA}],
        "vectors": [["1", "0", "0", "0"], ["0", "1/2", "1", "0"]],
    },
    # degree 3, a dependent spanning set and a rational entry
    "roitman-volume.json": {
        "blocks": [{"dimension": 3, "sign": 1, "form": VOLUME},
                   {"dimension": 3, "sign": -1, "form": VOLUME}],
        "vectors": [["1", "0", "0", "1", "0", "0"], ["0", "1", "0", "0", "1", "0"],
                    ["0", "0", "1", "0", "0", "1"], ["1", "1", "0", "1", "1", "0"],
                    ["0", "0", "2/3", "0", "0", "2/3"]],
    },
    "roitman-none.json": {"blocks": [{"dimension": 2, "sign": 1, "form": AREA}]},
}


def manifolds():
    T2 = t.make_torus([(4, 0), (0, 4)])
    T3 = t.make_torus([(4, 0, 0), (0, 4, 0), (0, 0, 4)])
    return {
        "m-torus2.json": T2,
        "m-torus3.json": T3,
        "m-torus2-line.json": t.product_with_line(T2),
        "m-torus2-line-line.json": t.product_with_line(t.product_with_line(T2)),
        "m-torus3-line.json": t.product_with_line(T3),
        "m-klein-line.json": t.product_with_line(t.make_klein(2, 3)),
        "m-euclid3.json": t.make_euclidean(3),
        "klein.json": t.make_klein(2, 3),
    }


def write_inputs(workdir: Path) -> None:
    for src in DATA.glob("*.json"):
        shutil.copy(src, workdir / src.name)
    broken = io.load_json(str(DATA / "t2-cycle.json"))
    broken["positions"]["v1"] = ["2", "0", "3"]  # arc0 no longer reaches v1
    io.dump_json(broken, str(workdir / "t2-broken.json"))
    io.dump_json([{"point": ["1/3", "0"], "mult": 1}], str(workdir / "z-other.json"))
    for name, M in manifolds().items():
        if name != "klein.json":
            io.dump_json(io.manifold_json(M), str(workdir / name))
    for name, doc in ROITMAN.items():
        io.dump_json(doc, str(workdir / name))
    t2_mod = random_t2_horizontal_curve(random.Random(7))
    io.dump_json(io.parametrized_curve_json(t2_mod), str(workdir / "t2-mod.json"))
    io.dump_json(io.parametrized_curve_json(build_t3_witness()), str(workdir / "t3-mod.json"))


def commands() -> list[list[str]]:
    curves = ["fig1a.json", "t2-cycle.json", "t2-mod.json", "t3-mod.json"]
    out = [["validate", c] for c in curves + ["t2-broken.json"]]
    out.append(["validate", "fig1a.json", "t2-cycle.json"])
    out.append(["validate", "fig1a.json", "t2-broken.json", "t2-cycle.json"])
    out += [["homology", c] for c in curves]
    for name, M in manifolds().items():
        out += [["forms", name, "-p", str(p)] for p in range(M.dim + 1)]
    out += [[cmd, c] for cmd in ("deform", "ev") for c in curves]
    out += [
        ["isotropy", "t2-cycle.json", "--form", "dxdy.json"],
        ["isotropy", "t2-cycle.json"],
        ["isotropy", "t2-mod.json"],
        ["isotropy", "t2-mod.json", "--form", "dxdy.json"],
        ["isotropy", "t3-mod.json", "-p", "2"],
        ["isotropy", "t3-mod.json", "-p", "3"],
        ["isotropy", "t2-broken.json"],
    ]
    out += [["roitman", name] for name in ROITMAN]
    out += [["albanese", "klein.json", z] for z in ("zp.json", "ziotap.json")]
    out += [
        ["chow-equiv", "klein.json", "zp.json", "ziotap.json"],
        ["chow-equiv", "klein.json", "zp.json", "zp.json"],
        ["chow-equiv", "klein.json", "zp.json", "z-other.json"],
    ]
    for relation in ("two-torsion", "fiber"):
        out += [["witness", "klein.json", "--relation", relation, "--point", point]
                for point in ("1/2,1", "3/2,5/4", "1,0")]
    out.append(["witness", "klein.json", "--relation", "fiber", "--point", "1/2,1",
                "--output", "witness.json"])
    out += [  # usage errors
        ["validate", "missing.json"],
        ["forms", "klein.json"],
        ["chow-equiv", "m-torus2.json", "zp.json", "zp.json"],
    ]
    return [mode + argv for argv in out for mode in ([], ["--json"])]


def run(argv: list[str]) -> dict:
    stdout, stderr = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_inputs(path)
    return path


GOLDEN_CASES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_covers_every_command():
    assert [case["argv"] for case in GOLDEN_CASES] == commands()


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_unchanged(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("TROPLIN_COLOR", "never")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    assert run(case["argv"]) == case


if __name__ == "__main__":
    os.environ["TROPLIN_COLOR"] = "never"
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        cases = [run(argv) for argv in commands()]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"{len(cases)} cases written to {GOLDEN}")
