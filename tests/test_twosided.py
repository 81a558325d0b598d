import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcirc import (
    Box,
    Circulant,
    FeasibilityResult,
    IterationCapExceeded,
    MaxVector,
    ScalarInterval,
    TwoSidedSystem,
    attraction_system,
    feasible_in_box,
    greatest_solution_leq,
    max_form,
    satisfies,
    simultaneous_feasible,
)

import bruteforce as bf

REDUCED_31 = TwoSidedSystem.of(
    4,
    [
        ((1, "1/2", 0, 0), (0, 0, 1, "1/2")),
        (("1/2", 0, 0, 1), (0, 1, "1/2", 0)),
    ],
)


def eq_tuples(system):
    return [(l.entries, r.entries) for l, r in system.equations]


def test_upper_bound_solving_is_returned_unchanged():
    g = greatest_solution_leq(REDUCED_31, MaxVector.of([1, 1, 1, 1]))
    assert g == MaxVector.of([1, 1, 1, 1])


def test_doubling_system_collapses_to_zero():
    s = TwoSidedSystem.of(2, [((1, 1), (2, 2))])
    assert greatest_solution_leq(s, MaxVector.of([1, 1])) == MaxVector.zeros(2)


def test_identical_sides_keep_the_upper_bound():
    s = TwoSidedSystem.of(3, [((1, "1/2", 0), (1, "1/2", 0))])
    upper = MaxVector.of([2, 3, "1/2"])
    assert greatest_solution_leq(s, upper) == upper


def test_greatest_solution_is_a_maximal_solution():
    rng = random.Random(41)
    pool = [0, F(1, 2), 1, 2]
    for _ in range(40):
        n = rng.randint(2, 4)
        eqs = []
        for _ in range(rng.randint(1, 3)):
            l = tuple(rng.choice(pool) for _ in range(n))
            r = tuple(rng.choice(pool) for _ in range(n))
            eqs.append((l, r))
        s = TwoSidedSystem.of(n, eqs)
        upper = MaxVector.of([rng.choice([1, 2]) for _ in range(n)])
        try:
            g = greatest_solution_leq(s, upper)
        except IterationCapExceeded:
            # honest outcome for systems whose sweep shrinks forever
            continue
        assert satisfies(s, g)
        assert g.leq(upper)
        # raising any single coordinate (still within the bound) breaks the system
        for j in range(n):
            if g[j] < upper[j]:
                raised = list(g.entries)
                raised[j] = min(upper[j], g[j] * 2 if g[j] > 0 else upper[j])
                if raised[j] == g[j]:
                    continue
                assert not satisfies(s, MaxVector(tuple(raised)))


def test_feasible_in_box_examples():
    box = Box.of([(0, 1)] * 4)
    res = feasible_in_box(REDUCED_31, box)
    assert res.status == "feasible"
    assert satisfies(REDUCED_31, res.witness)
    assert box.contains(res.witness)

    all_equal = TwoSidedSystem.of(
        6,
        [
            (
                tuple(1 if j == i else 0 for j in range(6)),
                tuple(1 if j == i + 1 else 0 for j in range(6)),
            )
            for i in range(5)
        ],
    )
    assert feasible_in_box(all_equal, Box.point([1, 2, 1, 1, 1, 1])).status == "infeasible"
    assert feasible_in_box(all_equal, Box.of([(0, 1)] * 6)).status == "feasible"


def test_zero_lower_bounds_admit_zero_witness():
    s = TwoSidedSystem.of(2, [((1, 0), (0, 2))])
    res = feasible_in_box(s, Box.of([(0, 1), (0, 1)]))
    assert res.status == "feasible"


def test_simultaneous_feasible():
    a = TwoSidedSystem.of(2, [((1, 0), (0, 1))])
    b = TwoSidedSystem.of(2, [((1, 0), (0, 2))])
    box = Box.of([(1, 2), (1, 2)])
    assert simultaneous_feasible([a, b], box).status == "infeasible"
    assert simultaneous_feasible([a], box).status == feasible_in_box(a, box).status
    empty = simultaneous_feasible([], box)
    assert empty.status == "feasible"
    assert empty.witness == box.closure_lower()


def test_box_interior_point_is_inside_for_every_bracket_form():
    for brackets in ("[]", "[)", "(]", "()"):
        box = Box.of([(0, 1, brackets), ("1/3", "3/4", brackets), (2, 2)])
        assert box.contains(box.interior_point())
    assert Box.of([(0, 1, "[)"), ("1/3", "3/4", "(]")]).interior_point() == MaxVector.of([0, "13/24"])


def test_strict_upper_bound_witness_is_scaled_inward():
    s = TwoSidedSystem.of(2, [((1, 0), (0, 1))])  # x1 == x2
    box = Box.of([ScalarInterval.of(0, 1, "[)"), ScalarInterval.of(0, 1, "[)")])
    res = feasible_in_box(s, box)
    assert res.status == "feasible"
    assert box.contains(res.witness)
    assert res.witness[0] == res.witness[1] > 0


def test_strict_boundary_can_stay_unknown():
    s = TwoSidedSystem.of(2, [((1, 0), (0, 1))])  # x1 == x2
    box = Box.of([ScalarInterval.of(1, 1), ScalarInterval.of(0, 1, "()")])
    res = feasible_in_box(s, box)
    # the only solution in the closure pins x2 = 1, outside the open interval;
    # the greatest-solution argument cannot certify that, so unknown is honest
    assert res.status == "unknown_strict_boundary"


def test_strict_lower_bound_infeasibility_is_decisive():
    s = TwoSidedSystem.of(2, [((1, 1), (2, 2))])  # forces the zero vector
    box = Box.of([ScalarInterval.of(0, 1, "(]"), ScalarInterval.of(0, 1)])
    assert feasible_in_box(s, box).status == "infeasible"


def test_collapse_above_a_positive_lower_bound_is_infeasible():
    from maxcirc.twosided import _fixpoint

    s = TwoSidedSystem.of(2, [((1, 1), (2, 2))])  # forces the zero vector
    # The first sweep from (2, 2) gives (1, 1): still at the lower corner,
    # but a collapse, so no solution reaches that corner.
    assert _fixpoint(s, ((2, 2), 1), s.iteration_cap, MaxVector.of([1, 1])) is None
    assert _fixpoint(s, ((2, 2), 1), s.iteration_cap, MaxVector.of([0, 1])) is None
    assert _fixpoint(s, ((2, 2), 1), s.iteration_cap, MaxVector.of([0, 0])) == ((0, 0), 1)
    assert _fixpoint(s, ((2, 2), 1), s.iteration_cap) == ((0, 0), 1)
    assert feasible_in_box(s, Box.of([(1, 2), (1, 2)])).status == "infeasible"
    assert feasible_in_box(s, Box.of([(0, 2), (0, 2)])).witness == MaxVector.zeros(2)


def cyclic_chain(m):
    """x_1 == x_2, ..., x_(m-1) == x_m, x_m == x_1 / 2: only the zero vector solves it."""
    unit = [[int(j == i) for j in range(m)] for i in range(m)]
    eqs = [(unit[i], unit[i + 1]) for i in range(m - 1)]
    eqs.append((unit[m - 1], [F(1, 2) * v for v in unit[0]]))
    return TwoSidedSystem.of(m, eqs)


@pytest.mark.parametrize("m", [24, 25, 30, 40])
def test_long_cyclic_chain_collapses_to_zero(m):
    # Each sweep moves the halving one step along the chain, so the iterate
    # falls below (1, ..., 1) everywhere only after about m sweeps; the
    # collapse is certified against that upper bound, not a recent iterate.
    s = cyclic_chain(m)
    ones = MaxVector.of([1] * m)
    assert greatest_solution_leq(s, ones) == MaxVector.zeros(m)
    assert bf.greatest_solution_sweep(m, eq_tuples(s), ones.entries) == (F(0),) * m
    half_open, closed = Box.of([(0, 1, "(]")] * m), Box.of([(0, 1)] * m)
    assert feasible_in_box(s, half_open).status == "infeasible"
    assert feasible_in_box(s, closed) == FeasibilityResult("feasible", MaxVector.zeros(m))
    halves = [TwoSidedSystem(m, s.equations[: m // 2]), TwoSidedSystem(m, s.equations[m // 2 :])]
    assert simultaneous_feasible(halves, half_open).status == "infeasible"
    assert simultaneous_feasible(halves, closed) == FeasibilityResult("feasible", MaxVector.zeros(m))


@pytest.mark.parametrize("brackets, status", [("[]", "infeasible"), ("(]", "unknown_strict_boundary")])
def test_capped_sweep_with_an_empty_complete_enumeration(brackets, status):
    # x1 == 2 x1 halves x1 in every sweep, and x2, in no equation, keeps the
    # iterate from collapsing, so the sweep reaches its cap of 60 sweeps at
    # x1 = 2^-60, above the lower bound 2^-70.  The enumeration pool is then
    # complete and holds no witness, which decides only a closed box.
    s = TwoSidedSystem.of(2, [((1, 0), (2, 0))])
    box = Box.of([(F(1, 2**70), 1, brackets), (1, 1)])
    with pytest.raises(IterationCapExceeded, match="within 60 sweeps"):
        greatest_solution_leq(s, box.closure_upper())
    assert feasible_in_box(s, box).status == status


def test_feasibility_matches_grid_oracle_on_random_systems():
    rng = random.Random(42)
    coeff_pool = [0, F(1, 2), 1, 2]
    bound_pool = [0, F(1, 2), 1]
    candidates = [F(0)] + [F(2) ** k for k in range(-8, 2)]
    for _ in range(60):
        n = rng.randint(2, 3)
        eqs = []
        for _ in range(rng.randint(1, 3)):
            l = tuple(rng.choice(coeff_pool) for _ in range(n))
            r = tuple(rng.choice(coeff_pool) for _ in range(n))
            eqs.append((l, r))
        s = TwoSidedSystem.of(n, eqs)
        ivs = []
        for _ in range(n):
            lo, hi = sorted(rng.choice(bound_pool) for _ in range(2))
            ivs.append(ScalarInterval.of(lo, hi))
        box = Box(tuple(ivs))
        res = feasible_in_box(s, box)
        per_coord = [[v for v in candidates if iv.contains(v)] for iv in box.intervals]
        witness = bf.grid_feasible(eq_tuples(s), per_coord)
        if res.status == "feasible":
            assert satisfies(s, res.witness) and box.contains(res.witness)
        else:
            assert res.status == "infeasible"
            assert witness is None


def test_max_form_accumulates_by_max():
    v = max_form(3, [(1, 1), (1, "1/2"), (2, "1/4")])
    assert v == MaxVector.of([1, "1/4", 0])


# --- differential checks against the rational sweep in bruteforce.py ---------

# Mixed denominators, so each equation is scaled by a different lcm, and zeros,
# so some terms drop out and some sides are empty.
COEFFS = [F(0), F(1, 3), F(2, 7), F(3, 4), F(1), F(2)]
BOUNDS = [F(0), F(1, 3), F(2, 7), F(3, 4), F(1), F(3, 2)]
DIFFERENTIAL = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def systems(draw, max_n=4):
    """(n, raw equations), possibly with no equations at all."""
    n = draw(st.integers(1, max_n))
    side = st.tuples(*[st.sampled_from(COEFFS)] * n)
    return n, draw(st.lists(st.tuples(side, side), max_size=3))


@st.composite
def intervals(draw):
    lo, hi = sorted(draw(st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2)))
    brackets = draw(st.sampled_from(["[]", "[)", "(]", "()"])) if lo < hi else "[]"
    return lo, hi, brackets[0] == "[", brackets[1] == "]"


def vectors(n):
    return st.tuples(*[st.sampled_from(BOUNDS)] * n)


@DIFFERENTIAL
@given(st.data())
def test_satisfies_agrees_with_the_rational_oracle(data):
    n, eqs = data.draw(systems())
    x = data.draw(vectors(n))
    assert satisfies(TwoSidedSystem.of(n, eqs), MaxVector(x)) == bf.holds(eqs, x)


@DIFFERENTIAL
@given(st.data())
def test_greatest_solution_agrees_with_the_rational_sweep(data):
    n, eqs = data.draw(systems())
    upper = data.draw(vectors(n))
    cap = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    try:
        want = bf.greatest_solution_sweep(n, eqs, upper, cap)
    except bf.SweepCapExceeded:
        with pytest.raises(IterationCapExceeded):
            greatest_solution_leq(TwoSidedSystem.of(n, eqs), MaxVector(upper), cap)
        return
    assert greatest_solution_leq(TwoSidedSystem.of(n, eqs), MaxVector(upper), cap).entries == want


def check_box_feasibility(n, eqs, ivs, split):
    box = Box(tuple(ScalarInterval(*iv) for iv in ivs))
    whole = TwoSidedSystem.of(n, eqs)
    try:
        want = bf.feasible_in_box_sweep(n, eqs, ivs)
    except bf.SweepCapExceeded:
        with pytest.raises(IterationCapExceeded):
            feasible_in_box(whole, box)
        return
    parts = [TwoSidedSystem.of(n, eqs[:split]), TwoSidedSystem.of(n, eqs[split:])]
    for res in (feasible_in_box(whole, box), simultaneous_feasible(parts, box)):
        assert (res.status, res.witness and res.witness.entries) == want


@DIFFERENTIAL
@given(st.data())
def test_box_feasibility_agrees_with_the_rational_sweep(data):
    n, eqs = data.draw(systems())
    ivs = data.draw(st.lists(intervals(), min_size=n, max_size=n))
    check_box_feasibility(n, eqs, ivs, data.draw(st.integers(0, len(eqs))))


def _q(text):
    return tuple(F(v) for v in text.split())


# Outcomes about 1 in 100 random draws reach: the iteration cap with each
# fallback result, and a strict boundary the sweep cannot decide.
@pytest.mark.parametrize(
    "eqs, ivs",
    [
        (  # cap, then the enumeration finds a witness
            [(_q("1 3/4"), _q("1 2")), (_q("2 1"), _q("2 1")), (_q("0 1/3"), _q("0 3/4"))],
            [(F(3, 4), F(3, 2), False, False), (F(0), F(3, 4), True, False)],
        ),
        (  # cap, then an empty enumeration in a box that is not closed
            [(_q("2 1/3 2"), _q("2/7 1 2")), (_q("3/4 0 0"), _q("1 2/7 0"))],
            [(F(0), F(3, 2), False, True), (F(0), F(0), True, True), (F(0), F(1), True, True)],
        ),
        (  # cap, and the enumeration pool is too large to search
            [
                (_q("2 1 2/7"), _q("3/4 1 2/7")),
                (_q("1/3 2 0"), _q("0 2/7 0")),
                (_q("3/4 2/7 3/4"), _q("0 2 3/4")),
            ],
            [(F(0), F(1, 3), False, True), (F(0), F(1, 3), True, False), (F(3, 4), F(3, 2), False, False)],
        ),
        (  # the sweep stabilizes, but a strict bound blocks the witness
            [(_q("3/4 1/3 2/7"), _q("0 1 0")), (_q("2 3/4 2"), _q("1 2/7 2"))],
            [(F(1), F(3, 2), True, True), (F(2, 7), F(3, 4), False, False), (F(3, 4), F(1), True, True)],
        ),
    ],
)
def test_box_feasibility_agrees_on_rare_outcomes(eqs, ivs):
    check_box_feasibility(len(ivs), eqs, ivs, 1)


# Sides with no terms and with one term: each side is padded to two terms for
# the gathered evaluation, so these are the shapes the padding has to get right.
SHORT_SIDES = [
    (1, [((0,), (F(2),))]),  # one unknown: 0 == 2 x
    (1, [((F(3, 4),), (F(3, 4),))]),
    (2, [((0, 0), (F(1, 3), 0))]),  # empty lhs: forces x1 = 0
    (2, [((0, F(2, 7)), (F(3, 4), 0))]),  # one term on each side
    (3, [((0, 0, 0), (0, 0, 0)), ((F(1), 0, 0), (0, F(2), F(1, 3)))]),
    (3, [((0, F(1, 3), 0), (F(1), F(3, 4), F(2))), ((0, 0, 0), (0, 0, F(2, 7)))]),
]


@pytest.mark.parametrize("n, eqs", SHORT_SIDES)
def test_short_sides_agree_with_the_rational_oracle(n, eqs):
    system = TwoSidedSystem.of(n, eqs)
    for x in bf.grid_vectors(BOUNDS, n):
        assert satisfies(system, MaxVector(x)) == bf.holds(eqs, x)
        assert greatest_solution_leq(system, MaxVector(x)).entries == bf.greatest_solution_sweep(n, eqs, x)
    ivs = [(F(0), F(1), True, False), (F(1, 3), F(3, 2), False, True), (F(2, 7), F(2, 7), True, True)][:n]
    check_box_feasibility(n, eqs, ivs, 1)


# --- the finite generating set of the solution cone --------------------------


@DIFFERENTIAL
@given(systems())
def test_cone_generators_are_extreme_solutions(system):
    n, eqs = system
    gens = TwoSidedSystem.of(n, eqs)._generators
    for k, g in enumerate(gens):
        assert bf.holds(eqs, g)
        assert gcd(*g) == 1
        assert bf.span_greatest(gens[:k] + gens[k + 1 :], g) != g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(systems(max_n=3))
def test_cone_generators_span_exactly_the_grid_solutions(system):
    n, eqs = system
    gens = TwoSidedSystem.of(n, eqs)._generators
    for x in bf.grid_vectors(BOUNDS, n):
        assert (bf.span_greatest(gens, x) == x) == bf.holds(eqs, x)


@DIFFERENTIAL
@given(st.data())
def test_greatest_solution_from_generators_agrees_with_the_rational_sweep(data):
    n, eqs = data.draw(systems())
    upper = data.draw(vectors(n))
    try:
        want = bf.greatest_solution_sweep(n, eqs, upper)
    except bf.SweepCapExceeded:
        return
    assert bf.span_greatest(TwoSidedSystem.of(n, eqs)._generators, upper) == want


def test_primitive_circulant_cone_is_the_all_ones_ray():
    c = Circulant.of(["1/4", "2/3", "1/4", "1/4", 0])
    assert attraction_system(c)._generators == ((1, 1, 1, 1, 1),)


def test_generator_build_gives_up_past_the_candidate_limit(monkeypatch):
    import maxcirc.twosided as twosided

    wide = Circulant.of(["1/2", "1/4", "3/4", 0, 1, "1/2", "3/4", 0])
    assert attraction_system(wide)._generators is None
    monkeypatch.setattr(twosided, "_GENERATOR_CANDIDATE_LIMIT", 0)
    assert attraction_system(Circulant.of(["1/4", "2/3", "1/4", "1/4", 0]))._generators is None
    assert TwoSidedSystem.of(2, [((1, 0), (2, 0))])._generators is None
    # A half-space that no generator violates forms no candidates.
    assert TwoSidedSystem.of(2, [((1, "1/2"), (1, "1/2"))])._generators == ((1, 0), (0, 1))
