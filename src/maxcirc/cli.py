"""File-driven command line front end.

Reads one JSON problem file, runs the requested analysis, and writes a
deterministic JSON report.  All numbers in the interchange format are exact
rationals, serialized as integers or "p/q" strings; an optional decimal
rendering can be added to the report for display only.

Problem kinds (the "kind" field selects one):

  circulant_analysis   {"kind": ..., "circulant": ["0","0","1","1/2"]}
  attraction_check     {"kind": ..., "circulant": [...] | "matrix": [[...]],
                        "vector": [...]}
  inclusion_check      {"kind": ..., "a": {"circulant": [...] | "matrix": ...},
                        "b": {...}}
  robustness_classify  {"kind": ...,
                        "interval_circulant": [{"lower": "0", "upper": "1/2",
                                                "brackets": "[]"}, ...],
                        "box": [... same shape ...]}

Every attraction check compares system membership with the orbit period; a
disagreement exits 4.

Exit codes: 0 success; 2 unreadable/invalid input or unwritable output,
including a problem file that cannot be read, is not UTF-8 or is not JSON
that Python can parse (an integer past its digit limit, nesting past the
recursion limit), a "kind" that is not one of the kind names (also any
non-string value), a JSON true/false where a number belongs, an --output path
that cannot be written, a matrix outside the admissible class (not
completely reducible, or without one positive maximum cycle mean shared by
its components), a general matrix whose normalized powers or orbit repeat
only past the detection cap (``periodicity.HARD_DETECTION_CAP`` steps), an
inclusion check whose operands differ in size or whose ``a`` has an
irrational eigenvalue, an invalid flag value (an unknown mode, a negative
trials count, decimals outside 0..max_decimals()), or a result value with a
numerator or denominator past the interpreter's digit limit for integer text
(``sys.get_int_max_str_digits()``), which no report can hold; 3 analysis ran
but every classifier answered hypothesis_not_met; 4 internal cross-check
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .attraction import (
    attraction_system,
    attraction_system_for_matrix,
    check_attraction_inclusion,
)
from .circulant import Circulant, circ_spectral, expand
from .core import InternalError, MaxMatrix, MaxVector, as_scalar
from .digraph import critical_structure, max_cycle_mean
from .intervals import Box, ScalarInterval
from .periodicity import NotAdmissible, orbit_period, transient_and_period
from .robustness import IntervalCirculant, classify, envelope_circulant, envelope_in_interval
from .twosided import satisfies

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4


def max_decimals() -> int:
    """Most places a rendering may take: the interpreter's current int-to-text digit limit.

    A parsed numerator meets the same limit (0 turns it off), so the whole and
    the fractional part of a rendering each convert within it.
    """
    return sys.get_int_max_str_digits() or 10_000


class ProblemError(ValueError):
    """The problem file is malformed or fails schema validation."""


def _fmt(q: Fraction) -> str | int:
    """``q`` as an integer or a "p/q" string; a part past the digit limit cannot be written."""
    if q.denominator == 1:
        return int(q)  # written by ``json.dumps``, which meets the same limit
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # past ``sys.get_int_max_str_digits()``
        raise ProblemError(f"cannot write a result: {exc}") from exc


def _fmt_vector(x: MaxVector) -> list:
    return [_fmt(v) for v in x.entries]


def _fmt_decimal(q: Fraction, places: int) -> str:
    """``q`` rounded half-to-even to ``places`` decimal places, computed exactly."""
    if places == 0:
        return str(round(q))
    whole, fraction = divmod(round(q * 10**places), 10**places)
    return f"{whole}.{str(fraction).rjust(places, '0')}"


def _parse_scalar(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ProblemError(f"{where}: expected an integer or 'p/q' string, got {value!r}")
    try:
        return as_scalar(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _parse_scalar_list(values, where: str) -> list[Fraction]:
    if not isinstance(values, list) or not values:
        raise ProblemError(f"{where}: expected a nonempty list")
    return [_parse_scalar(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _parse_interval(item, where: str) -> ScalarInterval:
    if not isinstance(item, dict):
        raise ProblemError(f"{where}: expected an object with lower/upper/brackets")
    unknown = set(item) - {"lower", "upper", "brackets"}
    if unknown:
        raise ProblemError(f"{where}: unknown fields {sorted(unknown)}")
    lower = _parse_scalar(item.get("lower", 0), f"{where}.lower")
    upper = _parse_scalar(item.get("upper", 0), f"{where}.upper")
    brackets = item.get("brackets", "[]")
    try:
        return ScalarInterval.of(lower, upper, brackets)
    except ValueError as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _parse_matrix_operand(obj, where: str) -> Circulant | MaxMatrix:
    if not isinstance(obj, dict):
        raise ProblemError(f"{where}: expected an object with 'circulant' or 'matrix'")
    if ("circulant" in obj) == ("matrix" in obj):
        raise ProblemError(f"{where}: give exactly one of 'circulant' or 'matrix'")
    if "circulant" in obj:
        return Circulant(tuple(_parse_scalar_list(obj["circulant"], f"{where}.circulant")))
    rows = obj["matrix"]
    if not isinstance(rows, list) or not rows:
        raise ProblemError(f"{where}.matrix: expected a nonempty list of rows")
    parsed = [_parse_scalar_list(row, f"{where}.matrix[{i}]") for i, row in enumerate(rows)]
    if any(len(r) != len(parsed) for r in parsed):
        raise ProblemError(f"{where}.matrix: must be square")
    return MaxMatrix(tuple(tuple(r) for r in parsed))


def _circulant_analysis(problem: dict, flags: dict) -> dict:
    c = Circulant(tuple(_parse_scalar_list(problem.get("circulant"), "circulant")))
    results: dict = {"n": c.n, "lambda": _fmt(max(c.row))}
    if flags["decimals"] is not None:
        results["lambda_decimal"] = _fmt_decimal(max(c.row), flags["decimals"])
    if c.is_zero():
        results["zero"] = True
        return results
    spectral = circ_spectral(c)
    info = transient_and_period(c)
    structure = critical_structure(expand(c))
    results.update(
        {
            "zero": False,
            "critical_offsets": list(spectral.critical_offsets),
            "diagonal_is_maximal": spectral.diagonal_is_maximal,
            "component_count": spectral.component_count,
            "components": [list(comp) for comp in spectral.components],
            "period": spectral.period,
            "period_formulas": list(spectral.period_formulas)
            if spectral.period_formulas
            else None,
            "transient": info.transient,
            "cyclic_classes": [
                [list(cl) for cl in classes] for classes in structure.cyclic_classes
            ],
        }
    )
    return results


def _attraction_check(problem: dict, flags: dict) -> dict:
    operand = _parse_matrix_operand(problem, "problem")
    x = MaxVector(tuple(_parse_scalar_list(problem.get("vector"), "vector")))
    if operand.n != x.n:
        size = "circulant" if isinstance(operand, Circulant) else "matrix"
        raise ProblemError(f"vector length differs from {size} size")
    period = orbit_period(operand, x)
    if isinstance(operand, Circulant):
        system = attraction_system(operand, mode=flags["mode"])
    else:
        system = attraction_system_for_matrix(operand)
    member = satisfies(system, x)
    if member != (period == 1):
        raise InternalError(f"system membership {member} disagrees with orbit period {period}")
    return {
        "member": member,
        "orbit_period": period,
        "system_equation_count": len(system.equations),
    }


def _inclusion_check(problem: dict, flags: dict) -> dict:
    a = _parse_matrix_operand(problem.get("a"), "a")
    b = _parse_matrix_operand(problem.get("b"), "b")
    if a.n != b.n:
        raise ProblemError(f"a and b sizes differ: {a.n} vs {b.n}")
    if isinstance(a, MaxMatrix) and (cm := max_cycle_mean(a)) is not None and cm.value is None:
        # A's generating set and the sampler both come from a's attraction
        # system, which needs a rational eigenvalue.
        raise ProblemError("a: the eigenvalue is irrational, so the attraction system is undefined")
    verdict = check_attraction_inclusion(a, b, trials=flags["trials"], seed=flags["seed"])
    return {
        "verdict": "consistent" if verdict.consistent else "counterexample",
        "counterexample": _fmt_vector(verdict.counterexample)
        if verdict.counterexample
        else None,
        "trials_run": verdict.trials_run,
        "members_tested": verdict.members_tested,
    }


def _parse_interval_lists(problem: dict, *fields: str) -> list[tuple[ScalarInterval, ...]]:
    """The intervals under each field; every field's list shape is checked before any is parsed."""
    for field in fields:
        if not isinstance(problem.get(field), list) or not problem[field]:
            raise ProblemError(f"{field}: expected a nonempty list of intervals")
    return [
        tuple(_parse_interval(item, f"{field}[{i}]") for i, item in enumerate(problem[field]))
        for field in fields
    ]


def _robustness_classify(problem: dict, flags: dict) -> dict:
    ic_intervals, box_intervals = _parse_interval_lists(problem, "interval_circulant", "box")
    ic, box = IntervalCirculant(ic_intervals), Box(box_intervals)
    if ic.n != box.n:
        raise ProblemError("interval_circulant and box sizes differ")
    report = classify(ic, box)
    results = {
        name: {"status": verdict.status, "reason": verdict.reason}
        for name, verdict in report.as_dict().items()
    }
    results["envelope_circulant"] = [_fmt(v) for v in envelope_circulant(ic).row]
    results["envelope_in_interval"] = envelope_in_interval(ic)
    results["hypotheses_unmet"] = report.hypotheses_all_unmet()
    return results


_KINDS = {
    "circulant_analysis": _circulant_analysis,
    "attraction_check": _attraction_check,
    "inclusion_check": _inclusion_check,
    "robustness_classify": _robustness_classify,
}


def run(
    problem_path: str | Path,
    mode: str = "min_transient",
    trials: int = 200,
    seed: int = 0,
    output: str | Path | None = None,
    decimals: int | None = None,
) -> int:
    """Process one problem file; returns the process exit code."""
    try:
        if mode not in ("min_transient", "exact_n2"):
            raise ProblemError(f"unsupported mode: {mode!r}")
        if trials < 0:
            raise ProblemError(f"trials must be nonnegative: got {trials}")
        if decimals is not None and not 0 <= decimals <= max_decimals():
            raise ProblemError(f"decimals must be in 0..{max_decimals()}: got {decimals}")
        try:
            text = Path(problem_path).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ProblemError(f"cannot read {problem_path}: {exc}") from exc
        if "\r" in text:  # text mode's newlines, so a JSON error names the same line and column
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        try:
            problem = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, an over-long integer, deep nesting
            raise ProblemError(f"invalid JSON: {exc}") from exc
        if not isinstance(problem, dict):
            raise ProblemError("top level must be an object")
        kind = problem.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ProblemError(f"kind must be one of {sorted(_KINDS)}: got {kind!r}")
        flags = {
            "mode": mode,
            "trials": trials,
            "seed": seed,
            "decimals": decimals,
        }
        results = _KINDS[kind](problem, flags)
        report = {
            "tool": {"name": "maxcirc", "version": __version__},
            "input": problem,
            "flags": {"mode": mode, "trials": trials, "seed": seed, "arithmetic": "rational"},
            "results": results,
        }
        try:
            payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
        except ValueError as exc:  # an integer result past ``sys.get_int_max_str_digits()``
            raise ProblemError(f"cannot write a result: {exc}") from exc
    except (ProblemError, NotAdmissible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    if output is None:
        sys.stdout.write(payload)
    else:
        try:
            Path(output).write_text(payload)
        except OSError as exc:
            print(f"error: cannot write {output}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if results.get("hypotheses_unmet"):
        return EXIT_HYPOTHESIS
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxcirc",
        description="Analyze max-times circulant matrices: spectra, attraction cones, "
        "and interval robustness. Input and output are JSON with exact rationals.",
    )
    parser.add_argument("problem", help="path to the JSON problem file")
    parser.add_argument(
        "--mode",
        choices=["min_transient", "exact_n2"],
        default="min_transient",
        help="exponent choice for attraction-cone systems (same solution set)",
    )
    parser.add_argument("--trials", type=int, default=200, help="sampling budget for inclusion checks")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled analyses")
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--decimals",
        type=int,
        default=None,
        help="add display-only decimal renderings with this many places",
    )
    args = parser.parse_args(argv)
    return run(
        args.problem,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        output=args.output,
        decimals=args.decimals,
    )


if __name__ == "__main__":
    sys.exit(main())
