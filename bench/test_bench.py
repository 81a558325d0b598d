"""Tests of the benchmark itself: seeded inputs, failure accounting, tracing.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()
from maxcirc.core import InternalError  # noqa: E402
from reference import REFERENCE_S  # noqa: E402


def _problem_bytes(workload: str, seed: int, tmp_path: Path, count: int = 12) -> list[bytes]:
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir(parents=True)
    return [run.write_problem(workload, seed, i, workdir)[2].read_bytes() for i in range(count)]


@pytest.mark.parametrize("workload", ["classify", "inclusion", "analysis"])
def test_same_seed_same_files_other_seed_other_files(workload, tmp_path):
    first = _problem_bytes(workload, 5, tmp_path / "a")
    again = _problem_bytes(workload, 5, tmp_path / "b")
    other = _problem_bytes(workload, 6, tmp_path / "c")
    assert first == again
    assert all(a != b for a, b in zip(first, other))


@pytest.fixture(autouse=True)
def short_runs(monkeypatch):
    """Runs of zero seconds stop after the minimum count; keep that small here."""
    monkeypatch.setattr(run, "MIN_PROBLEMS", 5)


def _analysis_outcomes(tmp_path) -> list[run.Outcome]:
    return run.run_loop(cli, "analysis", 3, 0, tmp_path)[0]


def test_real_reports_pass_the_checks(tmp_path):
    outcomes, _, setups = run.run_loop(cli, "analysis", 3, 0, tmp_path, setup_starts=3)
    assert len(outcomes) == run.MIN_PROBLEMS
    assert len(setups) == 3 and all(m > 0 and s > 0 for m, s in setups)
    assert all(run.failure(o) is None for o in outcomes if o.error is None)


def test_raising_problem_counts_as_failure(tmp_path, monkeypatch):
    def boom(matrix):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "critical_structure", boom)
    monkeypatch.setattr(run, "MIN_PROBLEMS", run.TAIL_BEYOND + 1)
    outcomes = _analysis_outcomes(tmp_path)
    assert len(outcomes) == run.MIN_PROBLEMS
    analyses = [o for o in outcomes if o.problem["kind"] == "circulant_analysis"]
    assert analyses and all(run.failure(o) == ("raised", "RuntimeError: injected") for o in analyses)
    failures = [f for f in map(run.failure, outcomes) if f is not None]
    assert not run.all_correct(failures)
    metrics, _ = run.end_to_end(outcomes, len(failures), setups=[(0.1, 0.1)], peak_rss_mib=20.0)
    assert metrics["success_ratio"]["value"] == (len(outcomes) - len(failures)) / len(outcomes) < 1


def test_internal_error_counts_as_wrong(tmp_path, monkeypatch):
    def cross_check_fails(ic, box):
        raise InternalError("injected")

    monkeypatch.setattr(cli, "classify", cross_check_fails)
    outcomes = run.run_loop(cli, "classify", 3, 0, tmp_path)[0]
    failures = [run.failure(o) for o in outcomes]
    assert all(o.code == 4 for o in outcomes)
    assert all(category == "internal" for category, _ in failures)
    assert not run.all_correct(failures)


def test_irrational_eigenvalue_is_the_only_known_failure(tmp_path):
    general = range(4, 400, 5)  # the general-matrix slot of the analysis rotation
    i = next(i for i in general if checks.irrational_eigenvalue(workloads.make_problem("analysis", 3, i)[0]["matrix"]))
    outcome = run.run_one(cli, *run.write_problem("analysis", 3, i, tmp_path))
    assert run.failure(outcome)[0] == "irrational"
    assert run.all_correct([run.failure(outcome)])
    other = dataclasses.replace(outcome, error="ValueError: other")
    assert run.failure(other)[0] == "raised"
    assert not run.all_correct([run.failure(other)])


def test_wrong_verdict_counts_as_failure(tmp_path, monkeypatch):
    original = cli.transient_and_period

    def off_by_one(matrix):
        info = original(matrix)
        return type(info)(transient=info.transient + 1, period=info.period)

    monkeypatch.setattr(cli, "transient_and_period", off_by_one)
    outcomes = _analysis_outcomes(tmp_path)
    analyses = [o for o in outcomes if o.problem["kind"] == "circulant_analysis"]
    assert analyses
    for o in analyses:
        category, reason = run.failure(o)
        assert category == "wrong" and "transient" in reason


def test_checks_reject_a_false_counterexample():
    problem = {"kind": "inclusion_check", "a": {"circulant": [0, 1, "1/2"]}, "b": {"circulant": [0, 1, 1]}}
    results = {"verdict": "counterexample", "counterexample": [1, 1, 1]}
    assert checks.check_inclusion(problem, results) == "counterexample reported for a dominated pair"


def test_row_power_scan_matches_known_spectra():
    f = Fraction
    assert checks.row_power_scan([f(0), f(0), f(1), f("1/2")]) == (1, 3, 2)
    assert checks.row_power_scan([f(0), f(1), f(0), f(1), f(0), f(0)]) == (1, 2, 2)


def _namespaces() -> dict:
    return {
        (key, attr): value
        for key, module in sys.modules.items()
        if key == "maxcirc" or key.startswith("maxcirc.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_restores_the_original_functions(tmp_path):
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sys.modules["maxcirc.digraph"].mat_mul is not before[("maxcirc.digraph", "mat_mul")]
        assert sys.modules["maxcirc"].mat_mul is not before[("maxcirc", "mat_mul")]
    finally:
        tracer.restore()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_counts_calls_and_keeps_reports(tmp_path):
    before = _namespaces()
    tracer = tracing.Tracer()
    outcomes, traced, setups = run.run_loop(cli, "analysis", 1, 0, tmp_path, tracer)
    assert setups == []
    assert all(after is before[k] for k, after in _namespaces().items())
    assert [t.stdout for t in traced] == [o.stdout for o in outcomes]
    metrics, _, changed = run.per_layer(tracer, outcomes, traced)
    assert changed == 0
    assert metrics["cli.run.calls"]["value"] == len(outcomes) == run.MIN_PROBLEMS
    analyses = sum(o.problem["kind"] == "circulant_analysis" for o in outcomes)
    assert metrics["digraph.critical_structure.calls"]["value"] == analyses > 0
    assert all(m["value"] > 0 for name, m in metrics.items() if m["unit"] == "s")


def test_times_are_scaled_by_the_reference_around_them(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_PROBLEMS", run.TAIL_BEYOND + 1)
    outcomes = run.run_loop(cli, "inclusion", 2, 0, tmp_path)[0]
    assert all(o.reference_s > 0 for o in outcomes)
    slow = [dataclasses.replace(o, wall_s=1.0, cpu_s=1.0, reference_s=2 * REFERENCE_S) for o in outcomes]
    metrics, _ = run.end_to_end(slow, 0, setups=[(0.3, 0.15)], peak_rss_mib=20.0)
    assert metrics["latency_p50_s"]["value"] == metrics["cpu_s_per_problem"]["value"] == 0.5
    assert metrics["problems_per_s"]["value"] == 2.0
    assert metrics["setup_s"]["value"] == 0.15
    assert reference.scale(1.0, REFERENCE_S, 3 * REFERENCE_S) == 0.5
