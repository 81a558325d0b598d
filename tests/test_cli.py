import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcirc.cli import _fmt_decimal, max_decimals, run

ROOT = Path(__file__).resolve().parents[1]


def write_problem(tmp_path, payload, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def read_report(path):
    return json.loads(Path(path).read_text())


def test_circulant_analysis_report(tmp_path):
    problem = write_problem(
        tmp_path, {"kind": "circulant_analysis", "circulant": ["0", "0", "1", "1/2"]}
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 0
    report = read_report(out)
    results = report["results"]
    assert results["lambda"] == 1
    assert results["components"] == [[1, 3], [2, 4]]
    assert results["period"] == 2
    assert results["transient"] == 3
    assert results["critical_offsets"] == [2]
    assert report["tool"]["name"] == "maxcirc"


def test_reports_are_deterministic(tmp_path):
    problem = write_problem(
        tmp_path,
        {
            "kind": "inclusion_check",
            "a": {"circulant": ["0", "0", "1", "1/4"]},
            "b": {"circulant": ["0", "0", "1", "1/2"]},
        },
    )
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(problem, trials=40, output=out1) == 0
    assert run(problem, trials=40, output=out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_attraction_check_member(tmp_path):
    problem = write_problem(
        tmp_path,
        {
            "kind": "attraction_check",
            "circulant": ["0", "0", "1", "1/2"],
            "vector": ["1/2", "1", "1/4", "1"],
        },
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 0
    results = read_report(out)["results"]
    assert results["member"] is True
    assert results["orbit_period"] == 1


def test_attraction_check_matrix_path(tmp_path):
    problem = write_problem(
        tmp_path,
        {
            "kind": "attraction_check",
            "matrix": [
                ["1/2", "1", "1/5", "0"],
                ["1", "1/2", "1/5", "0"],
                ["1/5", "1/5", "1/5", "0"],
                ["0", "0", "0", "1"],
            ],
            "vector": ["1", "1", "5", "1"],
        },
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 0
    assert read_report(out)["results"]["member"] is True


def test_attraction_check_builds_the_circulant_system_once(tmp_path, monkeypatch):
    import maxcirc.attraction as attraction
    import maxcirc.cli as cli

    built = []
    original = attraction.attraction_system

    def counting(c, mode="min_transient"):
        built.append(c)
        return original(c, mode)

    monkeypatch.setattr(attraction, "attraction_system", counting)
    monkeypatch.setattr(cli, "attraction_system", counting)
    problem = write_problem(
        tmp_path,
        {
            "kind": "attraction_check",
            "circulant": ["0", "0", "1", "1/2"],
            "vector": ["1/2", "1", "1/4", "1"],
        },
    )
    out = tmp_path / "report.json"
    assert run(problem, mode="exact_n2", output=out) == 0
    assert read_report(out)["results"]["member"] is True
    assert len(built) == 1


def test_attraction_check_cross_checks_the_system_against_the_orbit(tmp_path, monkeypatch):
    import maxcirc.cli as cli

    monkeypatch.setattr(cli, "orbit_period", lambda a, x: 2)
    problem = write_problem(
        tmp_path,
        {"kind": "attraction_check", "circulant": ["0", "0", "1", "1/2"], "vector": ["1/2", "1", "1/4", "1"]},
    )
    assert run(problem, output=tmp_path / "report.json") == 4


def test_matrix_attraction_check_cross_checks_the_system_against_the_orbit(tmp_path, monkeypatch, capsys):
    import maxcirc.cli as cli

    original = cli.satisfies
    monkeypatch.setattr(cli, "satisfies", lambda system, x: not original(system, x))
    problem = write_problem(tmp_path, {"kind": "attraction_check", "matrix": [[0, 1], [4, 0]], "vector": [1, 2]})
    assert run(problem, output=tmp_path / "report.json") == 4
    assert capsys.readouterr().err.startswith("internal error: system membership False disagrees")


def test_zero_matrix_attraction_check_is_a_member(tmp_path):
    problem = write_problem(tmp_path, {"kind": "attraction_check", "matrix": [[0, 0], [0, 0]], "vector": [1, 2]})
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 0
    results = read_report(out)["results"]
    assert results == {"member": True, "orbit_period": 1, "system_equation_count": 0}


def test_inclusion_check_counterexample(tmp_path):
    problem = write_problem(
        tmp_path,
        {
            "kind": "inclusion_check",
            "a": {
                "matrix": [
                    ["1/2", "1", "1/5", "0"],
                    ["1", "1/2", "1/5", "0"],
                    ["1/5", "1/5", "1/5", "0"],
                    ["0", "0", "0", "1"],
                ]
            },
            "b": {
                "matrix": [
                    ["1/2", "1", "1/5", "0"],
                    ["1", "1/2", "3/10", "0"],
                    ["2/5", "2/5", "2/5", "0"],
                    ["0", "0", "0", "1"],
                ]
            },
        },
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 0
    results = read_report(out)["results"]
    assert results["verdict"] == "counterexample"
    assert results["counterexample"] is not None


def test_robustness_classify_all_yes(tmp_path):
    intervals = [
        {"lower": "0", "upper": "0"},
        {"lower": "0", "upper": "0"},
        {"lower": "1", "upper": "1"},
        {"lower": "1/2", "upper": "1/2"},
    ]
    box = [
        {"lower": "1/2", "upper": "1/2"},
        {"lower": "1", "upper": "1"},
        {"lower": "1/4", "upper": "1/4"},
        {"lower": "1", "upper": "1"},
    ]
    problem = write_problem(
        tmp_path,
        {"kind": "robustness_classify", "interval_circulant": intervals, "box": box},
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 0
    results = read_report(out)["results"]
    for name in (
        "possibly_box_robust",
        "universally_box_robust",
        "tolerance_box_robust",
        "weak_tolerance_box_robust",
        "box_possibly_robust",
        "box_tolerance_robust",
    ):
        assert results[name]["status"] == "yes"


def test_robustness_classify_hypotheses_unmet_exit_code(tmp_path):
    intervals = [
        {"lower": "0", "upper": "0"},
        {"lower": "1/4", "upper": "1/2", "brackets": "()"},
    ]
    box = [
        {"lower": "0", "upper": "1", "brackets": "[)"},
        {"lower": "0", "upper": "1", "brackets": "[)"},
    ]
    problem = write_problem(
        tmp_path,
        {"kind": "robustness_classify", "interval_circulant": intervals, "box": box},
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 3
    results = read_report(out)["results"]
    assert results["hypotheses_unmet"] is True
    assert results["universally_box_robust"]["status"] in ("yes", "no")


GOOD_INTERVAL = {"lower": "0", "upper": "1"}


@pytest.mark.parametrize(
    "intervals, box, message",
    [
        # Both list shapes are checked before any interval is parsed.
        ([{"lower": "x"}], 3, "error: box: expected a nonempty list of intervals\n"),
        ([], 3, "error: interval_circulant: expected a nonempty list of intervals\n"),
        ([{"lower": "x"}], [{"bogus": 1}], "error: interval_circulant[0].lower: "),
        ([GOOD_INTERVAL], [{"bogus": 1}], "error: box[0]: unknown fields ['bogus']\n"),
        ([GOOD_INTERVAL] * 2, [GOOD_INTERVAL], "error: interval_circulant and box sizes differ\n"),
    ],
    ids=["bad-interval-and-box-shape", "both-shapes", "both-intervals", "box-interval", "sizes"],
)
def test_robustness_classify_error_precedence(tmp_path, capsys, intervals, box, message):
    problem = write_problem(
        tmp_path,
        {"kind": "robustness_classify", "interval_circulant": intervals, "box": box},
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(message)


def test_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "report.json"
    assert run(bad, output=out) == 2
    assert not out.exists()
    missing = tmp_path / "missing.json"
    assert run(missing, output=out) == 2
    schema = write_problem(tmp_path, {"kind": "circulant_analysis"}, name="schema.json")
    assert run(schema, output=out) == 2
    float_entry = write_problem(
        tmp_path,
        {"kind": "circulant_analysis", "circulant": [0.5, 1]},
        name="float.json",
    )
    assert run(float_entry, output=out) == 2


def test_non_utf8_problem_file_exits_2(tmp_path, capsys):
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"kind": "circulant_analysis", "circulant": ["1"], "note": "é"}'.encode("latin-1"))
    out = tmp_path / "report.json"
    assert run(latin, output=out) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"error: cannot read {latin}: 'utf-8' codec can't decode byte 0xe9 in position 60: invalid continuation byte\n"
    )


def test_a_directory_as_the_problem_path_exits_2(tmp_path, capsys):
    assert run(tmp_path) == 2
    assert capsys.readouterr() == ("", f"error: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n")


# The problem file is read as bytes and decoded once; text mode's newline
# translation is applied by hand, so every report and message below is the
# one a text-mode read gave.
ANALYSIS_LINES = ['{"kind": "circulant_analysis",', ' "circulant": ["0", "0", "1", "1/2"]}', ""]


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\r\r\n"], ids=["crlf", "cr", "cr-crlf"])
def test_crlf_and_cr_problem_files_give_the_lf_report(tmp_path, capsys, newline):
    lf = tmp_path / "lf.json"
    lf.write_bytes("\n".join(ANALYSIS_LINES).encode())
    assert run(lf) == 0
    expected = capsys.readouterr()
    other = tmp_path / "other.json"
    other.write_bytes(newline.join(ANALYSIS_LINES).encode())
    assert run(other) == 0
    assert capsys.readouterr() == expected
    assert '"lambda": 1,' in expected.out


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_json_error_in_a_crlf_file_names_its_text_mode_line(tmp_path, capsys, newline):
    problem = tmp_path / "problem.json"
    lines = ["{", '  "kind": "circulant_analysis",', '  "circulant": ["1" "2"]', "}", ""]
    problem.write_bytes(newline.join(lines).encode())
    assert run(problem) == 2
    assert capsys.readouterr() == ("", "error: invalid JSON: Expecting ',' delimiter: line 3 column 21 (char 54)\n")


def test_a_utf8_bom_problem_file_exits_2(tmp_path, capsys):
    problem = tmp_path / "problem.json"
    problem.write_bytes(b"\xef\xbb\xbf" + "\n".join(ANALYSIS_LINES).encode())
    assert run(problem) == 2
    assert capsys.readouterr() == (
        "",
        "error: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n",
    )


@pytest.mark.parametrize(
    "text",
    ['{"kind": "circulant_analysis", "circulant": [' + "1" * 5000 + "]}", "[" * 100_000 + "]" * 100_000],
    ids=["long-integer", "deep-nesting"],
)
def test_json_that_python_cannot_parse_exits_2(tmp_path, capsys, text):
    problem = tmp_path / "problem.json"
    problem.write_text(text)
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: invalid JSON")


def test_the_deepest_input_the_parser_takes_is_echoed_in_full(tmp_path, capsys):
    # The report echoes its input, so the writer must take any nesting that
    # ``json.loads`` takes.  The stdlib's indented encoder does; a recursive
    # writer with one Python frame per level raises RecursionError here.
    problem = tmp_path / "problem.json"
    out = tmp_path / "report.json"
    for depth in range(sys.getrecursionlimit(), 0, -1):
        problem.write_text('{"kind": "circulant_analysis", "circulant": ["1"], "note": ' + "[" * depth + "]" * depth + "}")
        code = run(problem, output=out)
        if code == 0:
            break
        assert code == 2 and "maximum recursion depth" in capsys.readouterr().err
    assert depth > sys.getrecursionlimit() // 2
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + depth)
    try:
        note = read_report(out)["input"]["note"]
    finally:
        sys.setrecursionlimit(limit)
    for _ in range(depth - 1):
        (note,) = note
    assert note == []


@pytest.mark.parametrize("target", [".", "missing/report.json"])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    problem = write_problem(tmp_path, {"kind": "circulant_analysis", "circulant": ["1"]})
    assert run(problem, output=tmp_path / target) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


TINY = "0." + "0" * 2499 + "1"
TINIER = "1/1" + "0" * 4000


@pytest.mark.parametrize(
    "a, b",
    [
        # The counterexample's entries are fractions with denominators past the limit.
        (["1/2", "0", "0", TINY, "0"], ["1/2", "0", "0", TINY, "1"]),
        # Its entries are integers past the limit, which only the report writer converts.
        ([TINIER, "0", "1" + "0" * 300, TINIER], [TINIER, TINIER, "3" + "0" * 300, "0"]),
    ],
)
def test_a_result_past_the_digit_limit_exits_2(tmp_path, capsys, a, b):
    # Every input entry is within the interpreter's digit limit for integer
    # text, but the counterexample is not, so no report can hold it.
    problem = write_problem(tmp_path, {"kind": "inclusion_check", "a": {"circulant": a}, "b": {"circulant": b}})
    out = tmp_path / "report.json"
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(problem, output=out) == 2
    finally:
        sys.set_int_max_str_digits(previous)
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write a result: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", [True, False])
def test_json_booleans_are_not_scalars(tmp_path, capsys, flag):
    problem = write_problem(tmp_path, {"kind": "circulant_analysis", "circulant": [flag]})
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 2
    assert not out.exists()
    assert "circulant[0]: expected an integer or 'p/q' string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entries, message",
    [
        ([1, 0, 0, "-1/4"], "a.circulant[3]: negative value not allowed in the max-times semiring: '-1/4'"),
        ([1, 0, 0, "1/0"], "a.circulant[3]: Fraction(1, 0)"),
        ([1, 0, 0, "x"], "a.circulant[3]: Invalid literal for Fraction: 'x'"),
        ([1, 0, 0, 0.5], "a.circulant[3]: expected an integer or 'p/q' string, got 0.5"),
        ([1, 0, 0, None], "a.circulant[3]: expected an integer or 'p/q' string, got None"),
        # The first bad entry is named, whatever the later ones are.
        ([1, 0, "-1", True], "a.circulant[2]: negative value not allowed in the max-times semiring: '-1'"),
        ([1, False, "-1", 0], "a.circulant[1]: expected an integer or 'p/q' string, got False"),
        ("1, 0", "a.circulant: expected a nonempty list"),
        ([], "a.circulant: expected a nonempty list"),
        ([1, 0, 0, "1e5000"], "a.circulant[3]: exponent notation is not accepted; write an integer or 'p/q': '1e5000'"),
    ],
)
def test_bad_circulant_entries_are_named_by_index(tmp_path, capsys, entries, message):
    problem = write_problem(
        tmp_path, {"kind": "inclusion_check", "a": {"circulant": entries}, "b": {"circulant": [1, 0, 0, 0]}}
    )
    assert run(problem) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


CIRC = {"circulant": ["1", "0"]}
INTERVAL = {"lower": "0", "upper": "1"}


@pytest.mark.parametrize(
    "problem, flags, message",
    [
        ([CIRC], {}, "top level must be an object"),
        ({"kind": "circulant_analysis", **CIRC}, {"mode": "bogus"}, "unsupported mode: 'bogus'"),
        ({"kind": "inclusion_check", "a": ["1", "0"], "b": CIRC}, {}, "a: expected an object with 'circulant' or 'matrix'"),
        ({"kind": "inclusion_check", "a": CIRC, "b": {}}, {}, "b: give exactly one of 'circulant' or 'matrix'"),
        (
            {"kind": "inclusion_check", "a": {**CIRC, "matrix": [["1"]]}, "b": CIRC},
            {},
            "a: give exactly one of 'circulant' or 'matrix'",
        ),
        ({"kind": "inclusion_check", "a": {"matrix": []}, "b": CIRC}, {}, "a.matrix: expected a nonempty list of rows"),
        ({"kind": "attraction_check", "matrix": "1", "vector": ["1"]}, {}, "problem.matrix: expected a nonempty list of rows"),
        ({"kind": "attraction_check", "matrix": [["1", "0"]], "vector": ["1"]}, {}, "problem.matrix: must be square"),
        (
            {"kind": "robustness_classify", "interval_circulant": [INTERVAL, "0"], "box": [INTERVAL] * 2},
            {},
            "interval_circulant[1]: expected an object with lower/upper/brackets",
        ),
        (
            {"kind": "robustness_classify", "interval_circulant": [INTERVAL] * 2, "box": [{**INTERVAL, "brackets": "]["}]},
            {},
            "box[0]: bracket token must be one of ('[]', '[)', '(]', '()'): ']['",
        ),
    ],
    ids=[
        "top-level-list",
        "unsupported-mode",
        "operand-not-an-object",
        "operand-with-neither-form",
        "operand-with-both-forms",
        "empty-matrix",
        "matrix-not-a-list",
        "non-square-matrix",
        "interval-not-an-object",
        "bad-bracket-token",
    ],
)
def test_invalid_input_exits_2_with_its_message(tmp_path, capsys, problem, flags, message):
    out = tmp_path / "report.json"
    assert run(write_problem(tmp_path, problem), output=out, **flags) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_inadmissible_matrix_exits_2(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        {"kind": "attraction_check", "matrix": [["1", "1"], ["0", "1"]], "vector": ["1", "1"]},
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 2
    assert not out.exists()
    assert "not completely reducible" in capsys.readouterr().err


def test_general_matrix_past_the_detection_cap_exits_2(tmp_path, capsys, monkeypatch):
    import maxcirc.periodicity as periodicity

    # Transient 201: past a cap of 50, the repeat is not found.
    monkeypatch.setattr(periodicity, "HARD_DETECTION_CAP", 50)
    problem = write_problem(
        tmp_path,
        {"kind": "attraction_check", "matrix": [["1", "1/30"], ["1/30", "29/30"]], "vector": ["0", "1"]},
    )
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: no repetition within the detection cap of 50 steps\n"


@pytest.mark.parametrize("kind", [["circulant_analysis"], {}, 7, None, "bogus"])
def test_kind_outside_the_kind_names_exits_2(tmp_path, capsys, kind):
    problem = write_problem(tmp_path, {"kind": kind, "circulant": ["1"]})
    out = tmp_path / "report.json"
    assert run(problem, output=out) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: kind must be one of")


@pytest.mark.parametrize(
    "a, b, message",
    [
        ({"matrix": [["0", "1"], ["2", "0"]]}, {"circulant": ["0", "1"]}, "irrational"),
        ({"matrix": [["1", "1"], ["0", "1"]]}, {"circulant": ["0", "1"]}, "not completely reducible"),
        ({"circulant": ["0", "1"]}, {"matrix": [["1", "1"], ["0", "1"]]}, "not completely reducible"),
        ({"circulant": ["0", "1", "1"]}, {"circulant": ["0", "1"]}, "sizes differ"),
    ],
)
@pytest.mark.parametrize("trials", [0, 200])
def test_unanswerable_inclusion_check_exits_2(tmp_path, capsys, a, b, message, trials):
    problem = write_problem(tmp_path, {"kind": "inclusion_check", "a": a, "b": b})
    out = tmp_path / "report.json"
    assert run(problem, trials=trials, output=out) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


CIRCULANT_ANALYSIS = {"kind": "circulant_analysis", "circulant": ["0", "1/2", "1"]}
INCLUSION = {
    "kind": "inclusion_check",
    "a": {"circulant": ["0", "0", "1", "1/4"]},
    "b": {"circulant": ["0", "0", "1", "1/2"]},
}


def test_decimals_out_of_range_exit_2(tmp_path, capsys):
    problem = write_problem(tmp_path, CIRCULANT_ANALYSIS)
    out = tmp_path / "report.json"
    for decimals in (-1, max_decimals() + 1):
        assert run(problem, decimals=decimals, output=out) == 2
        assert not out.exists()
        assert "decimals" in capsys.readouterr().err


def test_many_decimals_render_exactly(tmp_path):
    out = tmp_path / "report.json"
    assert run(write_problem(tmp_path, CIRCULANT_ANALYSIS), decimals=400, output=out) == 0
    assert read_report(out)["results"]["lambda_decimal"] == "1." + "0" * 400


def assert_renders_at_the_bound(tmp_path, lam, whole):
    bound = max_decimals()
    out = tmp_path / "report.json"
    problem = write_problem(tmp_path, {"kind": "circulant_analysis", "circulant": ["0", lam, "0"]})
    assert run(problem, decimals=bound, output=out) == 0
    rendered = read_report(out)["results"]["lambda_decimal"]
    assert rendered == _fmt_decimal(Fraction(lam), bound)
    assert rendered.split(".") == [whole, rendered[len(whole) + 1 :]]
    assert len(rendered) == len(whole) + 1 + bound


@pytest.mark.parametrize(
    "lam, whole",
    [("1", "1"), ("9" * max_decimals(), "9" * max_decimals()), ("9" * max_decimals() + "/7", str(int("9" * max_decimals()) // 7))],
    ids=["one", "longest-numerator", "longest-numerator-over-7"],
)
def test_decimals_at_the_bound_render(tmp_path, lam, whole):
    # The bound is the interpreter's digit limit for int-to-text conversion,
    # which a parsed numerator also meets, so the rendering converts its
    # whole and fractional parts separately, each within the limit.
    assert_renders_at_the_bound(tmp_path, lam, whole)


def test_decimals_bound_follows_a_lowered_digit_limit(tmp_path, capsys):
    # The bound is read when a run starts, so a program that lowers the
    # limit after importing the CLI gets exit 2 past it, not a ValueError.
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert max_decimals() == 1000
        out = tmp_path / "report.json"
        assert run(write_problem(tmp_path, CIRCULANT_ANALYSIS), decimals=1001, output=out) == 2
        assert not out.exists()
        assert "decimals must be in 0..1000: got 1001" in capsys.readouterr().err
        assert_renders_at_the_bound(tmp_path, "1", "1")
        assert_renders_at_the_bound(tmp_path, "9" * 1000 + "/7", str(int("9" * 1000) // 7))
    finally:
        sys.set_int_max_str_digits(previous)


def test_negative_trials_exits_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(write_problem(tmp_path, INCLUSION), trials=-5, output=out) == 2
    assert not out.exists()
    assert "trials" in capsys.readouterr().err


def test_decimal_rendering_is_exact():
    assert _fmt_decimal(Fraction(2, 3), 20) == "0.66666666666666666667"
    assert _fmt_decimal(Fraction(1, 3), 4) == "0.3333"
    assert _fmt_decimal(Fraction(1, 8), 2) == "0.12"  # half to even
    assert _fmt_decimal(Fraction(3, 8), 2) == "0.38"
    assert _fmt_decimal(Fraction(5, 2), 0) == "2"
    assert _fmt_decimal(Fraction(7, 2), 0) == "4"
    assert _fmt_decimal(Fraction(1, 1000), 2) == "0.00"
    assert _fmt_decimal(Fraction(123, 10), 3) == "12.300"
    assert _fmt_decimal(Fraction(999, 1000), 2) == "1.00"  # the carry reaches the whole part


def test_internal_error_exits_4(tmp_path, monkeypatch):
    import maxcirc.cli as cli
    from maxcirc import InternalError

    def boom(problem, flags):
        raise InternalError("cross-check failed")

    monkeypatch.setitem(cli._KINDS, "circulant_analysis", boom)
    problem = write_problem(
        tmp_path, {"kind": "circulant_analysis", "circulant": ["1"]}
    )
    assert run(problem, output=tmp_path / "report.json") == 4


def test_module_entry_point(tmp_path):
    problem = write_problem(
        tmp_path, {"kind": "circulant_analysis", "circulant": ["0", "1", "0"]}
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "maxcirc.cli", str(problem)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["period"] == 3


# --- fuzzing: every input ends in a documented exit code ---------------------

FUZZ_SCALARS = st.sampled_from(["0", "1/4", "1/2", "1", "2", "3"])
# Raised by attraction_check on a general matrix with an irrational
# eigenvalue; the benchmark pins it as the one known escaping exception.
IRRATIONAL = "attraction system needs a rational eigenvalue"
FUZZ_KINDS = st.sampled_from(["circulant_analysis", "attraction_check", "inclusion_check", "robustness_classify"])
# JSON values other than strings, which are rejected as kinds (exit 2).
NON_STRING_KINDS = st.sampled_from([None, 0, ["circulant_analysis"], {}, {"kind": "circulant_analysis"}])


@st.composite
def fuzz_problems(draw):
    """Problems of all four kinds, n <= 4, with occasional size mismatches
    and non-square matrices."""
    n = draw(st.integers(1, 4))

    def size():
        return draw(st.sampled_from([n, n, n, draw(st.integers(1, 4))]))

    def row(k):
        return draw(st.lists(FUZZ_SCALARS, min_size=k, max_size=k))

    def operand():
        if draw(st.booleans()):
            return {"circulant": row(size())}
        return {"matrix": [row(n) for _ in range(size())]}

    def interval():
        bounds = [draw(FUZZ_SCALARS), draw(FUZZ_SCALARS)]
        if draw(st.integers(0, 9)) < 9:  # mostly in order
            bounds.sort(key=Fraction)
        brackets = draw(st.sampled_from(["[]", "[]", "[]", "[)", "(]", "()"]))
        return {"lower": bounds[0], "upper": bounds[1], "brackets": brackets}

    # Mostly a real kind: a non-string kind ends at the first check.
    kind = draw(FUZZ_KINDS if draw(st.integers(0, 9)) < 9 else NON_STRING_KINDS)
    if not isinstance(kind, str) or kind == "circulant_analysis":
        return {"kind": kind, "circulant": row(n)}
    if kind == "attraction_check":
        return {"kind": kind, **operand(), "vector": row(size())}
    if kind == "inclusion_check":
        return {"kind": kind, "a": operand(), "b": operand()}
    return {
        "kind": kind,
        "interval_circulant": [interval() for _ in range(n)],
        "box": [interval() for _ in range(size())],
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    fuzz_problems(),
    st.integers(-1, 30),
    st.integers(0, 5),
    st.none() | st.integers(-1, 12),
)
def test_every_input_ends_in_a_documented_exit_code(tmp_path_factory, problem, trials, seed, decimals):
    path = write_problem(tmp_path_factory.getbasetemp(), problem, name="fuzz.json")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(path, trials=trials, seed=seed, decimals=decimals)
        except ValueError as exc:
            assert problem["kind"] == "attraction_check" and "matrix" in problem
            assert IRRATIONAL in str(exc)
            return
    assert code in (0, 2, 3, 4)
    if not isinstance(problem["kind"], str):
        assert code == 2
