"""troplin benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload torus-isotropy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
The run sets up (import, seeded inputs, one untimed warm-up round) three
times, once here and twice in child processes, and reports the median as
``setup_s``.  It then repeats whole rounds of the workload's job list for
``--seconds`` seconds, times every job, checks every answer outside the
timed region, and prints one JSON object as its last line of output.
With ``--trace 0`` the object carries the end-to-end metrics; with
``--trace 1`` rounds alternate between traced and untraced and the
object carries the per-layer metrics.  Lines before it, starting with
``#``, give sample counts, quartiles and a reference Fraction loop that
does not use troplin, so drift of the host can be told apart from a
change in the program.  Results go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("torus-isotropy", "klein-bottle", "plane-validate", "cli-cold")
SETUP_CHILDREN = 2
MIN_ROUNDS = 3
PROBES = 5
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (used by the run itself)")
    return parser.parse_args(argv)


def reference_loop() -> float:
    """Seconds for a fixed Fraction computation that does not use troplin."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i + 1) * Fraction(3, 7) - Fraction(1, i + 2)
    return perf_counter() - start


def setup(args, root: Path, workdir: Path, in_process: bool):
    """Import troplin, build the inputs and run one untimed warm-up round."""
    start = perf_counter()
    import workloads  # imports troplin for the first time in this process

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, root, in_process)
    outputs = [job.run() for job in workload.jobs]
    elapsed = perf_counter() - start
    for job, out in zip(workload.jobs, outputs):
        job.check(out)
    return elapsed, workload


def setup_in_children(args, root: Path) -> list[float]:
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def probe_ms(root: Path, code: str) -> float:
    """Median wall time of ``python -c code`` over a few fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Rounds:
    """Times whole rounds of the job list and checks every answer."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.samples: dict[str, list[float]] = {}
        self.rounds: list[float] = []
        self.reference: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def run_round(self, tracer=None):
        """One pass over the jobs: (summed job time in seconds, outputs to check)."""
        self.reference.append(reference_loop())
        total = 0.0
        outputs = []
        for index, job in enumerate(self.jobs):
            self.attempted += 1
            if tracer is not None:
                tracer.job = index
            start = perf_counter()
            try:
                out = job.run()
            except Exception:  # a job that raises counts as failed; the run goes on
                self.failed += 1
                self.errors.append(f"{job.name}: {traceback.format_exc()}")
                continue
            elapsed = perf_counter() - start
            total += elapsed
            self.samples.setdefault(job.klass, []).append(elapsed)
            outputs.append((job, out))
        return total, outputs

    def check(self, outputs) -> None:
        from checks import CheckFailed

        for job, out in outputs:
            try:
                job.check(out)
            except CheckFailed as exc:
                self.failed += 1
                self.wrong += 1
                self.errors.append(f"{job.name}: wrong answer: {exc}")


def measure(args, workload) -> Rounds:
    rounds = Rounds(workload.jobs)
    deadline = perf_counter() + args.seconds
    while len(rounds.rounds) < MIN_ROUNDS or perf_counter() < deadline:
        total, outputs = rounds.run_round()
        rounds.rounds.append(total)
        rounds.check(outputs)
    return rounds


def measure_traced(args, workload):
    """Alternate traced and untraced rounds; checks run with tracing off."""
    from tracer import Tracer

    tracer = Tracer()
    traced = Rounds(workload.jobs)
    plain = Rounds(workload.jobs)
    deadline = perf_counter() + args.seconds
    while len(traced.rounds) < MIN_ROUNDS or perf_counter() < deadline:
        tracer.install()
        try:
            total, outputs = traced.run_round(tracer)
        finally:
            tracer.uninstall()
        tracer.end_round()
        traced.rounds.append(total)
        traced.check(outputs)
        total, outputs = plain.run_round()
        plain.rounds.append(total)
        plain.check(outputs)
    return tracer, traced, plain


def summary_lines(rounds: Rounds, extra: dict) -> list[str]:
    lines = []
    for name, values in sorted(rounds.samples.items()) + [("round", rounds.rounds),
                                                          ("reference", rounds.reference)]:
        q1, q2, q3 = quartiles(values)
        lines.append(f"# {name}: n={len(values)} median={q2 * 1000:.3f}ms "
                     f"q1={q1 * 1000:.3f}ms q3={q3 * 1000:.3f}ms")
    for name, value in extra.items():
        lines.append(f"# {name}: {value}")
    return lines


def peak_rss_mb(workload) -> float:
    kb = workload.peak_rss_kb() if workload.peak_rss_kb else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def end_to_end(args, root: Path, workload, setups: list[float]):
    rounds = measure(args, workload)
    ms = lambda xs: statistics.median(xs) * 1000  # noqa: E731
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "small_job_ms": (ms(rounds.samples["small"]), "ms"),
        "large_job_ms": (ms(rounds.samples["large"]), "ms"),
        "round_s": (statistics.median(rounds.rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    return rounds, metrics, summary_lines(rounds, {"setups_s": [round(s, 4) for s in setups]})


def per_layer(args, root: Path, workload, spans_path: Path):
    tracer, traced, plain = measure_traced(args, workload)
    values = tracer.metrics(len(traced.rounds), statistics.fmean(traced.rounds) * 1000)
    values["trace.overhead"] = statistics.median(traced.rounds) / statistics.median(plain.rounds)
    interpreter = probe_ms(root, "pass")
    values["cli.interpreter_ms"] = interpreter
    values["cli.import_ms"] = probe_ms(root, "import troplin") - interpreter
    tracer.dump(spans_path)
    lines = summary_lines(plain, {"traced rounds": len(traced.rounds),
                                  "traced round median ms":
                                      statistics.median(traced.rounds) * 1000})
    for name in ("attempted", "failed", "wrong"):
        setattr(traced, name, getattr(traced, name) + getattr(plain, name))
    traced.errors += plain.errors
    return traced, {name: (value, unit_of(name)) for name, value in values.items()}, lines


def run(args, root: Path, workdir: Path) -> int:
    if args.setup_only:
        elapsed, _ = setup(args, root, workdir, in_process=False)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    stem = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        children = setup_in_children(args, root)
        own, workload = setup(args, root, workdir, in_process=False)
        rounds, metrics, lines = end_to_end(args, root, workload, children + [own])
    else:
        # The traced command-line workload calls cli.run in this process.
        _, workload = setup(args, root, workdir, in_process=args.workload == "cli-cold")
        rounds, metrics, lines = per_layer(args, root, workload, stem.with_name(
            stem.name + "-spans.json"))
    if workload.final_check:
        from checks import CheckFailed

        try:
            workload.final_check()
        except CheckFailed as exc:
            rounds.wrong += 1
            rounds.errors.append(f"final check: wrong answer: {exc}")
    result = {
        "correct": rounds.wrong == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in
                    metrics.items()},
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "summary": lines, "errors": rounds.errors}, fh, indent=1)
    for error in rounds.errors:
        print(error, file=sys.stderr)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if rounds.failed == 0 and rounds.wrong == 0 else 1


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".calls") or name.endswith(".cells"):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "troplin" / "__init__.py").is_file():
        print("error: run from the root of a troplin checkout (src/troplin not found)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(BENCH)]
    (BENCH / "out").mkdir(exist_ok=True)
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
