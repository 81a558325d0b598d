"""Value semantics of the library's immutable records.

Every value class compares and hashes by its fields and only against its own
class, refuses assignment and deletion, pickles, and keeps its ``repr``.
The last test guards the CLI's start-up: importing it must not pull in
``dataclasses`` (and through it ``inspect``, ``ast`` and ``dis``) or ``typing``.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from maxcirc import Circulant, MaxMatrix, MaxVector, circ_spectral, critical_structure, expand
from maxcirc.attraction import InclusionVerdict
from maxcirc.circulant import CircSpectral
from maxcirc.core import DimensionMismatch
from maxcirc.digraph import CriticalStructure, CycleMean, Digraph
from maxcirc.intervals import Box, ScalarInterval
from maxcirc.periodicity import PeriodicityInfo
from maxcirc.robustness import IntervalCirculant, RobustnessReport, Verdict
from maxcirc.twosided import FeasibilityResult, TwoSidedSystem

SRC = Path(__file__).resolve().parents[1] / "src"

# Per value class: a field name, and a factory whose every call builds a fresh, equal value.
FACTORIES = {
    MaxVector: ("entries", lambda: MaxVector.of([1, "1/2"])),
    MaxMatrix: ("rows", lambda: MaxMatrix.of([[0, 1], [1, 0]])),
    Circulant: ("row", lambda: Circulant.of([0, "1/2", 1])),
    CircSpectral: ("eigenvalue", lambda: circ_spectral(Circulant.of([0, "1/2", 1]))),
    Digraph: ("node_count", lambda: Digraph(2, frozenset({(1, 2), (2, 1)}))),
    CycleMean: ("weight", lambda: CycleMean(F(1, 2), 2)),
    CriticalStructure: ("critical_nodes", lambda: critical_structure(expand(Circulant.of([0, "1/2", 1])))),
    ScalarInterval: ("lower", lambda: ScalarInterval.of(0, "1/2", "(]")),
    Box: ("intervals", lambda: Box.of([(0, 1), (0, "1/2", "[)")])),
    PeriodicityInfo: ("transient", lambda: PeriodicityInfo(2, 3)),
    IntervalCirculant: ("intervals", lambda: IntervalCirculant(Box.of([(0, 1), (0, "1/2")]).intervals)),
    Verdict: ("status", lambda: Verdict("unknown", "iteration cap: 60")),
    RobustnessReport: (
        "possibly_box_robust",
        lambda: RobustnessReport(*(Verdict(s) for s in ("yes", "no", "yes", "no", "yes", "no"))),
    ),
    TwoSidedSystem: ("n", lambda: TwoSidedSystem.of(2, [([1, 0], [0, 1])])),
    FeasibilityResult: ("status", lambda: FeasibilityResult("feasible", MaxVector.of([1, 1]))),
    InclusionVerdict: ("consistent", lambda: InclusionVerdict(False, MaxVector.of([1, 0]), 3, 7)),
}

classes = pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda c: c.__name__)


@classes
def test_equal_values_are_distinct_objects_that_compare_and_hash_equal(cls):
    a, b = FACTORIES[cls][1](), FACTORIES[cls][1]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@classes
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    name, factory = FACTORIES[cls]
    value = factory()
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        setattr(value, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before


@classes
def test_pickle_round_trip_gives_an_equal_value(cls):
    value = FACTORIES[cls][1]()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls
    assert copy == value and hash(copy) == hash(value)
    assert repr(copy) == repr(value)


def test_equality_is_type_strict():
    row = (F(0), F(1, 2), F(1))
    assert Circulant(row) != MaxVector(row)
    assert MaxVector(row) != Circulant(row)
    ivs = Box.of([(0, 1), (0, "1/2")]).intervals
    assert IntervalCirculant(ivs) != Box(ivs)
    assert Box(ivs) != IntervalCirculant(ivs)
    assert IntervalCirculant(ivs) == IntervalCirculant(ivs)
    assert Verdict("yes") != ("yes", None)
    assert Verdict("yes") != Verdict("no")


def test_hash_is_that_of_the_field_tuple():
    # Set and dict iteration order, and so every report, depends on these values.
    assert hash(Verdict("yes")) == hash(("yes", None))
    assert hash(PeriodicityInfo(2, 3)) == hash((2, 3))
    row = (F(0), F(1))
    assert hash(Circulant(row)) == hash((row,))


def test_repr_text():
    assert repr(MaxVector.of([1, "1/2"])) == "MaxVector(1, 1/2)"
    assert repr(Circulant.of([0, "1/2", 1])) == "Circulant(0, 1/2, 1)"
    assert repr(ScalarInterval.of(0, "1/2", "(]")) == "(0, 1/2]"
    assert repr(ScalarInterval.of(1, 2)) == "[1, 2]"
    assert repr(Verdict("yes")) == "Verdict(status='yes', reason=None)"
    assert repr(PeriodicityInfo(2, 3)) == "PeriodicityInfo(transient=2, period=3)"
    assert repr(FeasibilityResult("infeasible")) == "FeasibilityResult(status='infeasible', witness=None)"
    assert (
        repr(FeasibilityResult("feasible", MaxVector.of([1, 0])))
        == "FeasibilityResult(status='feasible', witness=MaxVector(1, 0))"
    )
    assert repr(IntervalCirculant(Box.of([(0, 1)]).intervals)) == "IntervalCirculant(intervals=([0, 1],))"
    assert repr(CycleMean(F(1, 2), 2)) == "CycleMean(weight=Fraction(1, 2), length=2)"


def test_keyword_construction_and_defaults():
    assert ScalarInterval(lower=F(0), upper=F(1)) == ScalarInterval(F(0), F(1), True, True)
    assert ScalarInterval(F(0), F(1), upper_closed=False).brackets == "[)"
    assert Verdict("no").reason is None
    assert Verdict(status="no", reason="r") == Verdict("no", "r")
    assert FeasibilityResult("infeasible").witness is None
    assert PeriodicityInfo(period=3, transient=2) == PeriodicityInfo(2, 3)
    assert Digraph(node_count=1, edges=frozenset()) == Digraph(1, frozenset())
    with pytest.raises(TypeError):
        PeriodicityInfo(2)
    with pytest.raises(TypeError):
        Verdict("yes", None, None)
    with pytest.raises(TypeError):
        Verdict(state="yes")


@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda: MaxVector(()), ValueError, "vector must have at least one entry"),
        (lambda: MaxMatrix(()), ValueError, "matrix must be at least 1x1"),
        (lambda: MaxMatrix(((F(0), F(1)),)), ValueError, "matrix must be square"),
        (lambda: Circulant(()), ValueError, "circulant needs at least one defining entry"),
        (lambda: Circulant((0.5,)), TypeError, "floats are not exact"),
        (lambda: Circulant((-1,)), ValueError, "negative value not allowed"),
        (lambda: ScalarInterval(F(-1), F(1)), ValueError, "interval bounds must be nonnegative"),
        (lambda: ScalarInterval(F(2), F(1)), ValueError, "empty interval: lower 2 > upper 1"),
        (lambda: ScalarInterval(F(1), F(1), False), ValueError, "degenerate interval must be closed"),
        (lambda: Box(()), ValueError, "box needs at least one coordinate"),
        (lambda: IntervalCirculant(()), ValueError, "box needs at least one coordinate"),
        (lambda: Digraph(0, frozenset()), ValueError, "digraph needs at least one node"),
        (lambda: Digraph(2, frozenset({(1, 3)})), ValueError, r"edge \(1,3\) out of range 1..2"),
        (lambda: TwoSidedSystem(0, ()), ValueError, "system needs at least one unknown"),
        (
            lambda: TwoSidedSystem(2, ((MaxVector.of([1]), MaxVector.of([1, 0])),)),
            DimensionMismatch,
            "equation width differs from system width",
        ),
    ],
)
def test_validation_errors(build, error, text):
    with pytest.raises(error, match=text):
        build()


def test_circulant_coerces_its_row():
    c = Circulant((0, "1/2", F(1)))
    assert c.row == (F(0), F(1, 2), F(1))
    assert all(type(v) is F for v in c.row)
    assert c == Circulant.of([0, "1/2", 1])
    assert hash(c) == hash(Circulant((F(0), F(1, 2), F(1))))


def test_iteration_cap_is_computed_once_and_cached():
    system = TwoSidedSystem.of(2, [([1, "1/2"], [0, 3])])
    assert "iteration_cap" not in vars(system)
    cap = system.iteration_cap
    assert cap == 60 and vars(system)["iteration_cap"] == cap
    vars(system)["iteration_cap"] = -1  # a second read returns the stored value
    assert system.iteration_cap == -1


def test_cli_import_does_not_load_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, maxcirc.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
