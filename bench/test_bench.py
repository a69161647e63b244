"""Tests of the benchmark itself: its checks reject wrong answers and its
generators are deterministic.

    PYTHONPATH=src python -m pytest bench -q
"""

import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import troplin as t  # noqa: E402
from troplin.report import Report  # noqa: E402

import checks  # noqa: E402
import workloads as w  # noqa: E402
from checks import CheckFailed  # noqa: E402

K = t.make_klein(w.KLEIN_X0, w.KLEIN_Y0)


@pytest.fixture(scope="module")
def klein_curve():
    h = w.klein_modification(random.Random(3), K, 8)
    return h, t.deformation_basis(h)


@pytest.fixture(scope="module")
def torus_job():
    h = w.torus_modification(random.Random(4), 8, (1, 1))
    report = t.isotropy_check(h, w.AREA)
    space, vectors = t.infinity_restriction(h, w.AREA)
    blocks = [(b.dimension, b.sign, b.form.coefficients[0]) for b in space.blocks]
    return h, report, blocks, vectors, t.roitman_bound_check(space, vectors)


# ---------------------------------------------------------------------------
# Each check accepts the right answer and rejects a wrong one


def test_deformation_dimension_matches_theory(klein_curve):
    h, basis = klein_curve
    assert checks.deformation_dimension(h) == 9 == len(basis)
    checks.check_deformation_basis(h, basis, 9)


def test_dropped_basis_vector_is_rejected(klein_curve):
    h, basis = klein_curve
    with pytest.raises(CheckFailed, match="dimension"):
        checks.check_deformation_basis(h, basis[:-1], 9)


def test_repeated_basis_vector_is_rejected(klein_curve):
    h, basis = klein_curve
    with pytest.raises(CheckFailed, match="dependent"):
        checks.check_deformation_basis(h, basis[:-1] + [basis[0]], 9)


def test_non_parallel_basis_vector_is_rejected(klein_curve):
    h, basis = klein_curve
    bent = dict(basis[0])
    v = h.abstract.vertices[0]
    bent[v] = (bent[v][0] + 1,) + tuple(bent[v][1:])
    with pytest.raises(CheckFailed, match="parallelism"):
        checks.check_deformation_basis(h, [bent] + basis[1:], 9)


def test_honeycomb_dimensions():
    assert [checks.honeycomb_dimension(d) for d in (3, 6, 8)] == [9, 27, 44]
    for d in (3, 4):
        h = w.honeycomb(random.Random(d), d)
        assert checks.deformation_dimension(h) == checks.honeycomb_dimension(d)


def test_isotropy_report(torus_job):
    h, report, blocks, vectors, result = torus_job
    checks.check_isotropy_report(report, 9)
    with pytest.raises(CheckFailed):
        checks.check_isotropy_report(report, 10)


def test_non_zero_gram_value_is_rejected(torus_job):
    _, report, *_ = torus_job
    (check,) = report.checks
    bad = Report(report.subject)
    bad.add(check.name, True, check.detail.replace("=0", "=1/2", 1))
    with pytest.raises(CheckFailed, match="Gram value"):
        checks.check_isotropy_report(bad, 9)


def test_roitman(torus_job):
    _, _, blocks, vectors, result = torus_job
    checks.check_roitman(blocks, vectors, result, 9)
    with pytest.raises(CheckFailed, match="dim W"):
        checks.check_roitman(blocks, vectors, replace(result, dim_W=result.dim_W - 1), 9)
    with pytest.raises(CheckFailed, match="not isotropic"):
        checks.check_roitman(blocks, vectors, replace(result, isotropic=False), 9)


def test_non_isotropic_vectors_are_rejected(torus_job):
    _, _, blocks, vectors, result = torus_job
    skewed = [list(v) for v in vectors]
    skewed[0][0] += 1
    skewed[1][1] += 1
    assert any(x != 0 for x in checks.block_gram(blocks, skewed))
    with pytest.raises(CheckFailed, match="isotropic"):
        checks.check_roitman(blocks, skewed, result, 9)


def test_witness_boundary():
    p = (Fraction(3, 4), Fraction(5, 4))
    h = t.witness_two_torsion(K, p)
    expected = checks.cycle([((p[0], -p[1]), 2), (p, -2)], w.klein_reduce)
    checks.check_witness(h, t.boundary_zero_cycle(h), expected, w.klein_reduce)
    wrong = dict(expected)
    wrong[checks.klein_reduce(2, 3, p)] = -1
    with pytest.raises(CheckFailed):
        checks.check_witness(h, t.boundary_zero_cycle(h), wrong, w.klein_reduce)


def test_klein_reduce_closed_form():
    assert checks.klein_reduce(2, 3, (Fraction(5, 2), 1)) == (Fraction(1, 2), 2)
    assert checks.klein_reduce(2, 3, (-1, Fraction(-7, 2))) == (1, Fraction(1, 2))
    for point in [(Fraction(7, 3), Fraction(-5, 4)), (Fraction(-9, 8), 7)]:
        assert checks.klein_reduce(2, 3, point) == t.reduce_point(K, point)


def test_crossing_copy_fails_only_embeddedness():
    rng = random.Random(9)
    honest = t.validate_parametrized(w.honeycomb(rng, 4))
    crossed = t.validate_parametrized(w.honeycomb(rng, 4, crossing=True))
    checks.check_validation(honest, embedded=True)
    checks.check_validation(crossed, embedded=False)
    with pytest.raises(CheckFailed):
        checks.check_validation(crossed, embedded=True)
    with pytest.raises(CheckFailed):
        checks.check_validation(honest, embedded=False)


@pytest.fixture(scope="module")
def klein_jobs(tmp_path_factory):
    return w.klein_bottle(11, tmp_path_factory.mktemp("klein"), ROOT, False).jobs


def test_flipped_verdict_is_rejected(klein_jobs):
    for job in klein_jobs:
        if job.name.startswith("chow-"):
            expected = job.name == "chow-equivalent"
            job.check(expected)
            with pytest.raises(CheckFailed, match="verdict"):
                job.check(not expected)


def test_cli_json_checks(tmp_path):
    jobs = {job.name: job for job in w.cli_cold(5, tmp_path, ROOT, in_process=True).jobs}
    out = jobs["forms-1"].run()
    jobs["forms-1"].check(out)
    with pytest.raises(CheckFailed, match="rank"):
        jobs["forms-2"].check(out)
    with pytest.raises(CheckFailed, match="exit code"):
        jobs["forms-1"].check((1, out[1], 0))
    out = jobs["witness-two-torsion"].run()
    jobs["witness-two-torsion"].check(out)
    with pytest.raises(CheckFailed, match="boundary"):
        jobs["witness-two-torsion"].check((0, out[1].replace('"weight": 2', '"weight": 1', 1), 0))


# ---------------------------------------------------------------------------
# Every workload's answers pass on a fresh seed


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_workload_answers_pass(name, tmp_path):
    workload = w.WORKLOADS[name](21, tmp_path, ROOT, name == "cli-cold")
    for job in workload.jobs:
        job.check(job.run())
    if workload.final_check:
        workload.final_check()


# ---------------------------------------------------------------------------
# Generators are deterministic for a seed and differ between seeds


def test_generators_are_deterministic():
    def inputs(seed):
        rng = random.Random(seed)
        return (
            w.torus_modification(rng, 8, (1, 1)),
            w.klein_modification(rng, K, 8),
            w.klein_point(rng),
            w.klein_cycles(rng, 200),
            w.honeycomb(rng, 4, crossing=True),
        )

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_job_lists_have_the_same_shape_for_every_seed(tmp_path):
    for name in ("torus-isotropy", "klein-bottle", "plane-validate"):
        shapes = [[(j.klass, j.name) for j in w.WORKLOADS[name](s, tmp_path, ROOT, False).jobs]
                  for s in (1, 2)]
        assert shapes[0] == shapes[1]


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "klein-bottle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
