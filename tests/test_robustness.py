import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from maxcirc import (
    Box,
    Circulant,
    InternalError,
    IntervalCirculant,
    MaxVector,
    ScalarInterval,
    attraction_system,
    circ_lambda,
    classify,
    corner_matrix,
    corner_vector,
    decompose_in_box,
    envelope_circulant,
    envelope_in_interval,
    expand,
    feasible_in_box,
    implication_violations,
    in_attraction_cone,
)
from maxcirc import robustness
from maxcirc.intervals import BRACKET_TOKENS

IC_31 = IntervalCirculant.of([(0, 0), (0, 0), (1, 1), ("1/4", "1/2")])


def grid_interval(rng, grid):
    lo, hi = sorted((rng.choice(grid), rng.choice(grid)))
    return ScalarInterval.of(lo, hi)


def test_corner_vector_examples():
    box = Box.of([(1, 2), (0, 1), (3, 3)])
    assert corner_vector(box, 2) == MaxVector.of([1, 1, 3])
    assert corner_vector(box, 1) == MaxVector.of([2, 0, 3])
    point = Box.point([1, 2, 3])
    for k in (1, 2, 3):
        assert corner_vector(point, k) == MaxVector.of([1, 2, 3])
    unit_box = Box.of([(0, 1), (0, 1), (0, 1)])
    assert corner_vector(unit_box, 1) == MaxVector.of([1, 0, 0])
    with pytest.raises(ValueError):
        corner_vector(box, 0)


def test_corner_matrix_examples():
    assert corner_matrix(IC_31, 3) == Circulant.of([0, 0, 1, "1/2"])
    assert corner_matrix(IC_31, 2) == Circulant.of([0, 0, 1, "1/4"])
    degenerate = IntervalCirculant.of([("1/2", "1/2"), (1, 1)])
    for k in (0, 1):
        assert corner_matrix(degenerate, k) == Circulant.of(["1/2", 1])
    with pytest.raises(ValueError):
        corner_matrix(IC_31, 4)


def test_envelope_examples():
    assert envelope_circulant(IC_31) == Circulant.of([0, 0, 1, "1/2"])
    zero = IntervalCirculant.of([(0, 1), (0, "1/2")])
    assert envelope_circulant(zero) == Circulant.of([0, 0])
    degenerate = IntervalCirculant.of([("1/2", "1/2"), (1, 1)])
    assert envelope_circulant(degenerate) == Circulant.of(["1/2", 1])


def test_envelope_membership_honors_brackets():
    assert envelope_in_interval(IC_31)
    open_ic = IntervalCirculant.of(
        [(0, 0), (0, 0), (1, 1), ScalarInterval.of("1/4", "1/2", "()")]
    )
    assert not envelope_in_interval(open_ic)
    assert envelope_in_interval(IntervalCirculant.of([("1/2", "1/2"), (1, 1)]))


def bracketed_interval(rng, grid):
    """A grid interval with any of the four bracket kinds (closed when degenerate)."""
    lo, hi = sorted((rng.choice(grid), rng.choice(grid)))
    return ScalarInterval.of(lo, hi, "[]" if lo == hi else rng.choice(BRACKET_TOKENS))


def test_interval_circulant_is_a_box_of_defining_rows():
    rng = random.Random(17)
    grid = [0, F(1, 4), F(1, 2), 1]
    outcomes = set()
    for _ in range(80):
        n = rng.randint(1, 5)
        ic = IntervalCirculant(tuple(bracketed_interval(rng, grid) for _ in range(n)))
        assert isinstance(ic, Box)
        for k in range(n):
            per_offset = tuple(iv.upper if t == k else iv.lower for t, iv in enumerate(ic.intervals))
            assert corner_matrix(ic, k) == Circulant(per_offset)
        rows = [ic.interior_point().entries, envelope_circulant(ic).row]
        rows += [tuple(rng.choice(grid) for _ in range(n)) for _ in range(4)]
        for row in rows:
            entrywise = all(iv.contains(v) for iv, v in zip(ic.intervals, row))
            assert ic.contains(Circulant(row)) == entrywise
            outcomes.add(entrywise)
        assert not ic.contains(Circulant(ic.interior_point().entries + (F(0),)))
    assert outcomes == {True, False}
    assert type(IntervalCirculant.of([(0, 1)])) is IntervalCirculant
    with pytest.raises(ValueError):
        IntervalCirculant(())


@pytest.mark.parametrize(
    "ic", [IC_31, IntervalCirculant.of([("1/4", 1)] * 4), IntervalCirculant.of([(0, "1/2", "[)"), (1, 1)])]
)
def test_interval_circulant_serves_as_a_vector_box(ic):
    # Its box of defining rows is a box of vectors too, so a feasibility
    # witness is checked against it like against the plain box.
    box = Box(ic.intervals)
    assert ic.contains(box.interior_point()) and ic.contains(Circulant(box.interior_point().entries))
    assert classify(ic, ic) == classify(ic, box)
    for c in (corner_matrix(ic, 0), envelope_circulant(ic)):
        assert feasible_in_box(attraction_system(c), ic) == feasible_in_box(attraction_system(c), box)


def test_envelope_membership_matches_spelled_out_criterion():
    rng = random.Random(61)
    grid = [0, F(1, 4), F(1, 2), 1]
    for _ in range(60):
        n = rng.randint(1, 4)
        ic = IntervalCirculant(tuple(bracketed_interval(rng, grid) for _ in range(n)))
        base = max(iv.lower for iv in ic.intervals)
        spelled = all(
            (base < iv.upper or iv.contains(iv.upper))
            and (base > iv.upper or iv.contains(base))
            for iv in ic.intervals
        )
        assert envelope_in_interval(ic) == spelled


def test_decompose_examples():
    box = Box.of([(1, 2), (0, 1), (3, 3)])
    betas = decompose_in_box(MaxVector.of(["3/2", "1/2", 3]), box)
    assert betas == (F(3, 4), F(1, 2), F(1))
    assert decompose_in_box(box.closure_upper(), box) == (F(1), F(1), F(1))
    with pytest.raises(ValueError):
        decompose_in_box(MaxVector.of([3, 0, 3]), box)  # outside the closure
    zero_upper = Box.of([(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        decompose_in_box(MaxVector.of([0, 1]), zero_upper)


def test_failed_reconstruction_is_an_internal_error(monkeypatch):
    box = Box.of([(1, 2), (0, 1)])
    monkeypatch.setattr(robustness, "corner_vector", lambda box, k: MaxVector.zeros(box.n))
    with pytest.raises(InternalError):
        decompose_in_box(MaxVector.of([1, 1]), box)


def test_classify_runs_no_karp_pass(monkeypatch, tmp_path):
    # Every system classify builds is a circulant's, whose eigenvalue is its
    # largest row entry.  Problem 13 is the first universally robust one.
    import maxcirc.digraph as digraph
    import maxcirc.periodicity as periodicity
    from test_report_digests import PINNED, report_digests

    def forbidden(a):
        raise RuntimeError("a Karp pass ran")

    monkeypatch.setattr(digraph, "component_cycle_means", forbidden)
    monkeypatch.setattr(periodicity, "component_cycle_means", forbidden)
    assert report_digests("classify", 14, tmp_path) == list(PINNED["classify"])


@pytest.mark.parametrize("envelope_inside", [True, False])
@pytest.mark.parametrize("closed_box", [True, False])
def test_classify_builds_each_corner_system_once(monkeypatch, envelope_inside, closed_box):
    # Counts the systems classify builds itself, not those in_attraction_cone builds.
    built = []
    build = robustness.attraction_system
    monkeypatch.setattr(robustness, "attraction_system", lambda c: built.append(c) or build(c))
    upper = ScalarInterval.of("1/4", "1/2", "[]" if envelope_inside else "()")
    ic = IntervalCirculant.of([(0, 0), (0, 0), (1, 1), upper])
    box = Box.of([(0, 1, "[]" if closed_box else "[)")] * 4)
    assert envelope_in_interval(ic) == envelope_inside
    classify(ic, box)
    expected = [corner_matrix(ic, k) for k in range(4)]
    if envelope_inside:
        expected.append(envelope_circulant(ic))
    assert Counter(built) == Counter(expected)


def test_classify_degenerate_instance_all_yes():
    ic = IntervalCirculant.of([(0, 0), (0, 0), (1, 1), ("1/2", "1/2")])
    box = Box.point(["1/2", 1, "1/4", 1])
    report = classify(ic, box)
    assert all(v.status == "yes" for v in report.as_dict().values())
    assert implication_violations(report) == []
    # The CLI and the benchmark tracer read the verdicts by these names, in this order.
    assert list(report.as_dict()) == [
        "possibly_box_robust",
        "universally_box_robust",
        "tolerance_box_robust",
        "weak_tolerance_box_robust",
        "box_possibly_robust",
        "box_tolerance_robust",
    ]


def test_classify_degenerate_instance_all_no():
    ic = IntervalCirculant.of([(0, 0), (1, 1)] + [(0, 0)] * 4)
    box = Box.point([1, 2, 1, 1, 1, 1])
    report = classify(ic, box)
    assert all(v.status == "no" for v in report.as_dict().values())


def test_classify_tolerance_example():
    report = classify(IC_31, Box.of([(0, 1)] * 4))
    assert report.tolerance_box_robust.status == "yes"
    assert report.weak_tolerance_box_robust.status == "yes"
    assert report.box_possibly_robust.status == "yes"
    assert report.possibly_box_robust.status == "no"
    assert report.universally_box_robust.status == "no"
    assert implication_violations(report) == []


def test_classify_surfaces_envelope_hypothesis():
    open_ic = IntervalCirculant.of(
        [(0, 0), (0, 0), (1, 1), ScalarInterval.of("1/4", "1/2", "()")]
    )
    report = classify(open_ic, Box.of([(0, 1)] * 4))
    assert report.possibly_box_robust.status == "hypothesis_not_met"
    assert report.weak_tolerance_box_robust.status == "hypothesis_not_met"
    assert report.box_tolerance_robust.status == "hypothesis_not_met"
    assert report.universally_box_robust.decided
    assert not report.hypotheses_all_unmet()


def test_classify_surfaces_closedness_hypothesis():
    box = Box.of([ScalarInterval.of(0, 1, "[)")] * 4)
    report = classify(IC_31, box)
    assert report.tolerance_box_robust.status == "hypothesis_not_met"
    assert report.possibly_box_robust.decided


# Corner 4's attraction system splits into odd and even coordinates.  The
# boxes below pin x5 = 0, where only the zero vector solves the odd part, so
# its sweep shrinks x1 and x3 forever while x6 = 1/2 keeps it from collapsing.
CAPPED_IC = IntervalCirculant.of(
    [("1/4", "1/3"), (0, "3/4"), ("1/3", "3/4"), (0, "1/3"), ("3/4", "3/4"), (0, "1/3")]
)


def test_iteration_cap_without_fallback_is_an_unknown_verdict():
    # The corner systems' simultaneous sweep exceeds its iteration cap, and
    # the box is too large for the enumeration fallback.
    box = Box.of(
        [(0, "1/4"), (0, "3/4"), (0, 1), ("1/4", 1, "[)"), (0, 0), ("1/2", "1/2")]
    )
    report = classify(CAPPED_IC, box)
    assert report.box_possibly_robust.status == "unknown_strict_boundary"
    assert report.box_possibly_robust.reason.startswith("iteration cap: ")
    assert report.possibly_box_robust.status == "yes"
    assert report.universally_box_robust.status == "no"
    assert implication_violations(report) == []


def test_tolerance_keeps_an_undecided_corner_verdict():
    # The box above, closed, so the tolerance classifier runs its corner
    # loop: corner 4 exceeds its cap with too large an enumeration, and the
    # corners after it are feasible, so the undecided verdict stands.
    box = Box.of([(0, "1/4"), (0, "3/4"), (0, 1), ("1/4", 1), (0, 0), ("1/2", "1/2")])
    statuses = [
        robustness._feasibility_verdict(feasible_in_box, attraction_system(corner_matrix(CAPPED_IC, k)), box).status
        for k in range(6)
    ]
    assert statuses == ["yes"] * 4 + ["unknown_strict_boundary", "yes"]
    report = classify(CAPPED_IC, box)
    assert report.tolerance_box_robust == robustness.Verdict(
        "unknown_strict_boundary",
        "iteration cap: no stabilization within 180 sweeps and fallback enumeration unavailable",
    )
    assert implication_violations(report) == []


def test_normalized_members_are_dominated_by_envelope():
    rng = random.Random(62)
    grid = [0, F(1, 4), F(1, 2), F(3, 4), 1]
    for _ in range(40):
        n = rng.randint(1, 5)
        ic = IntervalCirculant(tuple(grid_interval(rng, grid) for _ in range(n)))
        env = envelope_circulant(ic)
        if env.is_zero():
            continue
        env_scaled = expand(env).scale(1 / circ_lambda(env))
        for _ in range(4):
            row = [
                rng.choice([g for g in grid if iv.contains(g)]) for iv in ic.intervals
            ]
            a = Circulant.of(row)
            assert not a.is_zero()
            a_scaled = expand(a).scale(1 / circ_lambda(a))
            assert a_scaled.leq(env_scaled)


def test_some_corner_matrix_is_dominated_by_each_member():
    rng = random.Random(63)
    grid = [0, F(1, 4), F(1, 2), 1]
    for _ in range(40):
        n = rng.randint(1, 5)
        ic = IntervalCirculant(tuple(grid_interval(rng, grid) for _ in range(n)))
        choices = [[g for g in grid if iv.contains(g)] for iv in ic.intervals]
        row = [rng.choice(c) for c in choices]
        a = Circulant.of(row)
        if a.is_zero():
            continue
        a_scaled = expand(a).scale(1 / circ_lambda(a))
        found = False
        for k in range(n):
            corner = corner_matrix(ic, k)
            if corner.is_zero():
                continue
            corner_scaled = expand(corner).scale(1 / circ_lambda(corner))
            if corner_scaled.leq(a_scaled):
                found = True
                break
        assert found


def test_single_vector_existential_reduces_to_envelope():
    rng = random.Random(64)
    grid = (F(0), F(1, 2), F(1))
    for _ in range(25):
        n = rng.randint(1, 3)
        ic = IntervalCirculant(tuple(grid_interval(rng, list(grid)) for _ in range(n)))
        if not envelope_in_interval(ic):
            continue
        env = envelope_circulant(ic)
        mats = [
            Circulant.of(row)
            for row in itertools.product(
                *[[g for g in grid if iv.contains(g)] for iv in ic.intervals]
            )
        ]
        for combo in itertools.product(grid, repeat=n):
            x = MaxVector(combo)
            exists = any(
                c.is_zero() or in_attraction_cone(c, x) for c in mats
            )
            assert exists == (env.is_zero() or in_attraction_cone(env, x))


def test_implication_lattice_on_random_mixed_instances():
    rng = random.Random(65)
    grid = [0, F(1, 2), 1]
    brackets = ["[]", "[]", "[)", "(]", "()"]
    for _ in range(40):
        n = rng.randint(1, 4)
        ics, boxes = [], []
        for _ in range(n):
            lo, hi = sorted((rng.choice(grid), rng.choice(grid)))
            token = "[]" if lo == hi else rng.choice(brackets)
            ics.append(ScalarInterval.of(lo, hi, token))
            lo, hi = sorted((rng.choice(grid), rng.choice(grid)))
            token = "[]" if lo == hi else rng.choice(brackets)
            boxes.append(ScalarInterval.of(lo, hi, token))
        report = classify(IntervalCirculant(tuple(ics)), Box(tuple(boxes)))
        assert implication_violations(report) == []
