"""Benchmark of the maxcirc CLI: seeded problem sets run through ``maxcirc.cli.run``.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 1

One client in one process and one thread runs a closed loop: each problem is
written to a JSON file and handed to ``cli.run`` in-process after the previous
one has finished, like a script calling the CLI once per problem.  Every
report is then checked by ``checks.py``, which does not use maxcirc.

``--trace 0`` measures the end-to-end metrics with tracing off.  Each of its
times is scaled by a fixed reference job timed around it (``reference.py``),
so that the drift of a shared machine's speed cancels.  ``--trace 1``
runs every problem twice, untraced and then traced, and prints the per-layer
metrics and the tracing overhead (traced over untraced wall time).
Both print a human-readable summary and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from reference import REFERENCE_S, reference_s, scale
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
MIN_PROBLEMS = TAIL_BEYOND + 1
SETUP_STARTS = 41


class BenchError(Exception):
    """The benchmark cannot run here (for example, no maxcirc sources)."""


def import_cli():
    """Import ``maxcirc.cli`` from this checkout's sources, and nowhere else."""
    if not (SRC / "maxcirc" / "cli.py").is_file():
        raise BenchError(f"no maxcirc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from maxcirc import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"maxcirc was imported from {cli.__file__}, not from {SRC}")
    return cli


def start_interpreter() -> float:
    """Wall time for a fresh interpreter to start and import ``maxcirc.cli``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import maxcirc.cli"], env=env, check=True)
    return time.perf_counter() - start


@dataclass
class Outcome:
    problem: dict
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    wall_s: float
    cpu_s: float
    reference_s: float = REFERENCE_S  # mean of the reference job's runs around this one

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * REFERENCE_S / self.reference_s

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * REFERENCE_S / self.reference_s


def run_one(cli, problem: dict, flags: dict, path: Path) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            code = cli.run(str(path), **flags)
        except Exception as exc:  # an escaping exception is a counted failure, not the end of the run
            error = f"{type(exc).__name__}: {exc}"
        wall1, cpu1 = time.perf_counter(), time.process_time()
    return Outcome(problem, code, out.getvalue(), err.getvalue(), error, wall1 - wall0, cpu1 - cpu0)


def write_problem(workload: str, seed: int, i: int, workdir: Path) -> tuple[dict, dict, Path]:
    """Problem ``i`` as the JSON file the CLI reads, with its flags."""
    problem, flags = workloads.make_problem(workload, seed, i)
    path = workdir / f"p{i:05d}.json"
    path.write_text(json.dumps(problem))
    return problem, flags, path


def run_loop(
    cli,
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    tracer: Tracer | None = None,
    setup_starts: int = 0,
) -> tuple[list[Outcome], list[Outcome], list[tuple[float, float]]]:
    """Closed loop with one client: the next problem starts when the last one ends.

    Without a tracer, the reference job runs before the first problem and
    after every problem and interpreter start, and each outcome records the
    mean of the two runs around it.  With a tracer, each problem runs again
    right after its untraced run with the tracer installed, so both runs see
    the machine in the same state.
    The ``setup_starts`` interpreter starts are spread evenly over the run,
    between problems: the speed of a shared machine drifts within seconds,
    and starts taken all at once would see only one moment of it.  Before
    timing, one unmeasured start compiles the bytecode (a cost paid once per
    install rather than per invocation) and one unmeasured problem, drawn
    apart from the run's own, warms the process up.
    Returns the untraced outcomes, the traced ones and the interpreter start
    times, each as (measured, scaled).
    """
    outcomes: list[Outcome] = []
    traced: list[Outcome] = []
    setups: list[tuple[float, float]] = []
    if setup_starts:
        start_interpreter()
    run_one(cli, *write_problem(workload, seed, -1, workdir))
    before = None if tracer else reference_s()
    start = time.perf_counter()
    while len(outcomes) < MIN_PROBLEMS or time.perf_counter() - start < seconds:
        i = len(outcomes)
        problem, flags, path = write_problem(workload, seed, i, workdir)
        outcome = run_one(cli, problem, flags, path)
        outcomes.append(outcome)
        if tracer is not None:
            tracer.problem = i
            tracer.install()
            try:
                traced.append(run_one(cli, problem, flags, path))
            finally:
                tracer.restore()
            continue
        after = reference_s()
        outcome.reference_s = (before + after) / 2
        while len(setups) < setup_starts and time.perf_counter() - start >= len(setups) * seconds / setup_starts:
            measured = start_interpreter()
            before, after = after, reference_s()
            setups.append((measured, scale(measured, before, after)))
        before = after
    return outcomes, traced, setups


def failure(outcome: Outcome) -> tuple[str, str] | None:
    """(category, reason) for a failed problem, None when it succeeded.

    Categories: ``irrational`` (the known irrational-eigenvalue ``ValueError``
    on a general matrix), ``raised`` (any other exception escaped ``run``),
    ``internal`` (exit 4, the program's own cross-check failed), ``wrong``
    (the independent check disagrees with the exit code or the report) and
    ``unchecked`` (the checker could not decide).
    """
    if outcome.error is not None:
        problem = outcome.problem
        if (
            outcome.error.startswith("ValueError: ")
            and "irrational" in outcome.error
            and problem["kind"] == "attraction_check"
            and "matrix" in problem
            and checks.irrational_eigenvalue(problem["matrix"])
        ):
            return "irrational", outcome.error
        return "raised", outcome.error
    if outcome.code == 4:
        return "internal", f"exit 4: {outcome.stderr.strip()}"
    report = json.loads(outcome.stdout) if outcome.stdout else None
    try:
        reason = checks.check_report(outcome.problem, outcome.code, report)
    except checks.CheckError as exc:
        return "unchecked", str(exc)
    return None if reason is None else ("wrong", reason)


def all_correct(failures: list[tuple[str, str]]) -> bool:
    """Whether every failure is the known irrational-eigenvalue defect (ROADMAP item 4).

    That one is counted in ``success_ratio`` but is not a wrong result; any
    other raise, an exit 4 or a report the check rejects is.
    """
    return all(category == "irrational" for category, _ in failures)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def summarize_failures(failures: list[tuple[str, str]]) -> list[str]:
    lines = []
    for (category, reason), count in Counter((c, r[:100]) for c, r in failures).most_common():
        lines.append(f"  failure x{count} [{category}] {reason}")
    return lines


def _timings(walls: list[float], cpus: list[float], setups: list[float], ok: int) -> dict:
    walls = sorted(walls)
    return {
        "problems_per_s": ok / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": walls[len(walls) - TAIL_BEYOND - 1],
        "cpu_s_per_problem": sum(cpus) / len(cpus),
        "setup_s": statistics.median(setups),
    }


def end_to_end(
    outcomes: list[Outcome], failed: int, setups: list[tuple[float, float]], peak_rss_mib: float
) -> tuple[dict, list[str]]:
    """End-to-end metrics with scaled times, and report lines that show the measured ones beside them."""
    n = len(outcomes)
    ok = n - failed
    tail_rank = n - TAIL_BEYOND  # samples at or below the tail value
    scaled = _timings(
        [o.scaled_wall_s for o in outcomes], [o.scaled_cpu_s for o in outcomes], [s for _, s in setups], ok
    )
    measured = _timings([o.wall_s for o in outcomes], [o.cpu_s for o in outcomes], [m for m, _ in setups], ok)
    metrics = {
        **{name: scaled[name] for name in ("problems_per_s", "latency_p50_s", "latency_tail_s", "cpu_s_per_problem")},
        "success_ratio": ok / n,
        "peak_rss_mib": peak_rss_mib,
        "setup_s": scaled["setup_s"],
    }
    units = {"problems_per_s": "1/s", "success_ratio": "ratio", "peak_rss_mib": "MiB"}
    speed = statistics.median(o.reference_s for o in outcomes) / REFERENCE_S
    notes = {
        "problems_per_s": f"measured {measured['problems_per_s']:.6f}",
        "latency_p50_s": f"measured {measured['latency_p50_s']:.6f}, median of {n} samples",
        "latency_tail_s": f"measured {measured['latency_tail_s']:.6f}, "
        f"p{100 * tail_rank / n:.1f} of {n} samples, {TAIL_BEYOND} beyond it",
        "cpu_s_per_problem": f"measured {measured['cpu_s_per_problem']:.6f}",
        "success_ratio": f"failure_ratio = {failed}/{n} = {failed / n:.4f}",
        "setup_s": f"measured {measured['setup_s']:.6f}, median of {len(setups)} interpreter starts spread over the run",
    }
    result = {name: {"value": value, "unit": units.get(name, "s")} for name, value in metrics.items()}
    lines = [f"  times scaled to a reference job of {REFERENCE_S} s; it took {speed:.3f}x that (median)"]
    lines += [
        f"  {name:<20} {m['value']:>12.6f} {m['unit']:<6} {notes.get(name, '')}".rstrip()
        for name, m in result.items()
    ]
    return result, lines


def per_layer(tracer: Tracer, outcomes: list[Outcome], traced: list[Outcome]) -> tuple[dict, list[str], int]:
    """Per-layer metrics, their report lines, and the count of reports tracing changed."""
    changed = sum((t.code, t.stdout, t.error) != (o.code, o.stdout, o.error) for t, o in zip(traced, outcomes))
    values = tracer.metrics()
    values["trace.overhead_ratio"] = sum(t.wall_s for t in traced) / sum(o.wall_s for o in outcomes)
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    lines = [f"  {name:<48} {m['value']:>14.6f} {m['unit']}" for name, m in metrics.items()]
    if changed:
        lines.append(f"  {changed} reports changed under tracing")
    return metrics, lines, changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_cli()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        starts = 0 if tracer else SETUP_STARTS
        outcomes, traced, setups = run_loop(cli, args.workload, args.seed, args.seconds, workdir, tracer, starts)
        # Read before the checks run, so that their memory is not counted.
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for f in map(failure, outcomes) if f is not None]
    correct = all_correct(failures)
    print(f"workload {args.workload}, seed {args.seed}: {len(outcomes)} problems, closed loop, one client")
    if tracer:
        metrics, lines, changed = per_layer(tracer, outcomes, traced)
        correct = correct and not changed
    else:
        metrics, lines = end_to_end(outcomes, len(failures), setups, peak_rss_mib)
    for line in lines + summarize_failures(failures):
        print(line)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
