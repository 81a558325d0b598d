import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maxcirc import (
    Circulant,
    DimensionMismatch,
    IterationCapExceeded,
    MaxMatrix,
    MaxVector,
    NotAdmissible,
    TwoSidedSystem,
    attraction_system,
    attraction_system_for_matrix,
    cancel_reduce,
    check_attraction_inclusion,
    circ_lambda,
    circ_power,
    circ_spectral,
    critical_structure,
    expand,
    greatest_solution_leq,
    in_attraction_cone,
    is_kleene_star,
    kleene_star,
    mat_power,
    max_cycle_mean,
    max_form,
    orbit_period,
    reduced_attraction_system,
    satisfies,
    transient_and_period,
)
from maxcirc.attraction import (
    InclusionVerdict,
    _circulant_window_eigenvectors,
    _dedup_equations,
    _is_single_ray,
    _is_whole_space,
    _period_window_eigenvectors,
    _row_pairs,
)
from maxcirc.circulant import _scaled_power
from maxcirc.core import _scaled, kleene_sum
from maxcirc.twosided import _cone_generators, _holds, _integer_equation, _vector

import bruteforce as bf

A31 = Circulant.of([0, 0, 1, "1/2"])

EX21_A = MaxMatrix.of(
    [["1/2", 1, "1/5", 0], [1, "1/2", "1/5", 0], ["1/5", "1/5", "1/5", 0], [0, 0, 0, 1]]
)
EX21_B = MaxMatrix.of(
    [["1/2", 1, "1/5", 0], [1, "1/2", "3/10", 0], ["2/5", "2/5", "2/5", 0], [0, 0, 0, 1]]
)


def random_nonzero_circulant(rng, n, pool):
    while True:
        c = Circulant.of([rng.choice(pool) for _ in range(n)])
        if not c.is_zero():
            return c


def eq_tuples(system):
    return [(l.entries, r.entries) for l, r in system.equations]


def test_attraction_system_of_running_example():
    t = F(1, 2)
    s = attraction_system(A31, mode="exact_n2")
    assert set(frozenset((l.entries, r.entries)) for l, r in s.equations) == {
        frozenset({(1, t, t * t, t**3), (t * t, t**3, 1, t)}),
        frozenset({(t**3, 1, t, t * t), (t, t * t, t**3, 1)}),
    }


def test_attraction_system_modes_have_equal_solution_sets():
    rng = random.Random(51)
    pool = [0, F(1, 2), 1]
    grid = [F(0), F(1, 2), F(1), F(2)]
    for _ in range(8):
        n = rng.randint(1, 4)
        c = random_nonzero_circulant(rng, n, pool)
        s1 = attraction_system(c, mode="exact_n2")
        s2 = attraction_system(c, mode="min_transient")
        for combo in itertools.product(grid, repeat=n):
            x = MaxVector(combo)
            assert satisfies(s1, x) == satisfies(s2, x)


def test_attraction_system_of_zero_is_empty():
    s = attraction_system(Circulant.of([0, 0, 0]))
    assert s.equations == ()
    assert in_attraction_cone(Circulant.of([0, 0, 0]), MaxVector.of([1, 2, 3]))


def test_attraction_system_rejects_an_unknown_mode_for_every_circulant():
    for c in (Circulant.of([0, 0, 0]), A31):
        with pytest.raises(ValueError, match="unknown mode"):
            attraction_system(c, mode="bogus")


def test_attraction_system_of_six_cycle_forces_all_equal():
    c = Circulant.of([0, 1, 0, 0, 0, 0])
    s = attraction_system(c)
    for combo in itertools.product([F(0), F(1), F(2)], repeat=6):
        assert satisfies(s, MaxVector(combo)) == (len(set(combo)) == 1)


def test_reduced_system_single_equation():
    s = reduced_attraction_system(Circulant.of([0, 1, 0, 1, 0, 0]))
    assert len(s.equations) == 1
    l, r = s.equations[0]
    assert {l.entries, r.entries} == {
        (F(1), F(0), F(1), F(0), F(1), F(0)),
        (F(0), F(1), F(0), F(1), F(0), F(1)),
    }


def test_reduced_system_six_cycle_chain():
    s = reduced_attraction_system(Circulant.of([0, 1, 0, 0, 0, 0]))
    for combo in itertools.product([F(0), F(1), F(2)], repeat=6):
        assert satisfies(s, MaxVector(combo)) == (len(set(combo)) == 1)


def test_reduced_system_empty_when_single_cyclic_class():
    # diagonal maximal: every component is a loop with one cyclic class
    s = reduced_attraction_system(Circulant.of([1, "1/2", "1/2"]))
    assert s.equations == ()
    # the zero circulant's cone is the whole space, as in attraction_system
    assert reduced_attraction_system(Circulant.of([0, 0])) == TwoSidedSystem(2, ())


def test_membership_running_example():
    x = MaxVector.of(["1/2", 1, "1/4", 1])
    assert in_attraction_cone(A31, x)
    assert satisfies(attraction_system(A31, "exact_n2"), x)


def test_membership_example_pair():
    w = MaxVector.of([1, 1, 5, 1])
    assert in_attraction_cone(EX21_A, w)
    assert not in_attraction_cone(EX21_B, w)
    w2 = MaxVector.of(["1/2", 1, "10/3", 1])
    assert in_attraction_cone(EX21_B, w2)
    assert not in_attraction_cone(EX21_A, w2)


def test_membership_tests_agree():
    rng = random.Random(52)
    pool = [0, F(1, 2), 1]
    vec_pool = [F(0), F(1, 2), F(1), F(2)]
    for _ in range(20):
        n = rng.randint(1, 5)
        c = random_nonzero_circulant(rng, n, pool)
        a = expand(c)
        full = attraction_system(c)
        reduced = reduced_attraction_system(c)
        for _ in range(8):
            x = MaxVector.of([rng.choice(vec_pool) for _ in range(n)])
            by_system = satisfies(full, x)
            assert by_system == satisfies(reduced, x)
            assert by_system == (orbit_period(a, x) == 1)
            assert by_system == bf.orbit_member(a.rows, x.entries)


REDUCED_ENTRIES = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1), F(2), F(2, 7)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_reduced_system_defines_the_attraction_cone(data):
    n = data.draw(st.integers(1, 8))
    vector = st.lists(st.sampled_from(REDUCED_ENTRIES), min_size=n, max_size=n)
    row = data.draw(vector)
    assume(any(row))
    c = Circulant.of(row)
    reduced = reduced_attraction_system(c)
    full = [attraction_system(c, mode) for mode in ("min_transient", "exact_n2")]
    vectors = data.draw(st.lists(vector, max_size=6))
    rays = full[0]._generators or ()
    for x in [*vectors, *rays]:
        x = MaxVector.of(x)
        member = satisfies(reduced, x)
        assert [satisfies(system, x) for system in full] == [member, member]
        assert member == bf.orbit_member(expand(c).rows, x.entries)
    for system in full:
        if reduced._generators is not None and system._generators is not None:
            assert set(reduced._generators) == set(system._generators)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_powers_on_defining_rows_match_matrix_powers(data):
    n = data.draw(st.integers(1, 7))
    c = Circulant.of(data.draw(st.lists(st.sampled_from(REDUCED_ENTRIES), min_size=n, max_size=n)))
    t = data.draw(st.integers(0, n * n + 2))
    assert expand(circ_power(c, t)) == mat_power(expand(c), t)
    assume(not c.is_zero())
    # The reduced system's row pairs, read off the matrix power.
    power = mat_power(expand(c), n * n)
    pairs: dict[frozenset, tuple] = {}
    for comp in circ_spectral(c).components:
        for i, j in zip(comp, comp[1:]):
            lhs, rhs = power.rows[i - 1], power.rows[j - 1]
            if lhs != rhs:
                pairs.setdefault(frozenset((lhs, rhs)), (lhs, rhs))
    assert eq_tuples(reduced_attraction_system(c)) == list(pairs.values())


GENERATOR_ENTRIES = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_integer_row_pairs_give_the_fraction_systems_generators(data):
    # The inclusion check reads a circulant's cone off the integer row pairs
    # of A^(n^2).  They must give the equations that deduplicating the
    # Fraction rows of the expanded power gives, the same generators in the
    # same order (or None for both), and the same membership.
    n = data.draw(st.integers(2, 9))
    vector = st.lists(st.sampled_from(GENERATOR_ENTRIES), min_size=n, max_size=n)
    row = data.draw(vector)
    assume(any(row))
    c = Circulant.of(row)
    (power, _), spectral = _scaled_power(c, n * n), circ_spectral(c)
    eqs = [_integer_equation(lhs, rhs) for lhs, rhs in _row_pairs(power, spectral)]
    system = reduced_attraction_system(c)
    rows = expand(circ_power(c, n * n)).rows
    pairs = [(rows[i - 1], rows[j - 1]) for comp in spectral.components for i, j in zip(comp, comp[1:])]
    assert system.equations == _dedup_equations(pairs)
    generators = _cone_generators(n, eqs)
    assert generators == system._generators
    for x in [*data.draw(st.lists(vector, max_size=6)), *(generators or ())]:
        x = MaxVector.of(x)
        assert _holds(eqs, _scaled(x.entries)[0]) == satisfies(system, x)


def test_completed_circulant_generator_sets_are_closed_under_rotation():
    # The cyclic shift commutes with a circulant, so it maps the attraction
    # cone onto itself and permutes its extreme rays: a set that misses a
    # rotation of one of its generators was built wrong.
    rng = random.Random(13)
    entries = [0, 0, F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), 1]
    completed = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        c = Circulant.of([rng.choice(entries) for _ in range(n)])
        if c.is_zero():
            continue
        eqs = [_integer_equation(lhs, rhs) for lhs, rhs in _row_pairs(_scaled_power(c, n * n)[0], circ_spectral(c))]
        generators = _cone_generators(n, eqs)
        if generators is None:
            continue
        completed += 1
        assert {g[-1:] + g[:-1] for g in generators} == set(generators), c
    assert completed == 286  # the other 13 nonzero rows reach the candidate limit


# Values above 1 too: the closed form must not rest on entries at most 1.
WIDE_ENTRIES = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(7, 3)]


@st.composite
def single_ray_circulants(draw) -> Circulant:
    """One maximal entry, at an offset coprime to n (the diagonal when n = 1)."""
    n = draw(st.integers(1, 10))
    p = draw(st.sampled_from([t for t in range(n) if gcd(t, n) == 1]))
    top = draw(st.sampled_from(WIDE_ENTRIES[1:]))
    row = [draw(st.sampled_from([v for v in WIDE_ENTRIES if v < top])) for _ in range(n)]
    row[p] = top
    return Circulant.of(row)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(single_ray_circulants())
def test_a_single_ray_cone_is_the_constant_ray(c):
    # The inclusion check takes such a cone as the ray of (1, ..., 1) without
    # building it; its row-pair equations and its window must agree.
    n = c.n
    spectral = circ_spectral(c)
    assert _is_single_ray(spectral)
    power, _ = _scaled_power(c, n * n)
    eqs = [_integer_equation(lhs, rhs) for lhs, rhs in _row_pairs(power, spectral)]
    assert _cone_generators(n, eqs) in (((1,) * n,), None)
    window = _circulant_window_eigenvectors(c, power, spectral)
    assert [_vector(x) for x in window] == [MaxVector.of([1] * n)] * n
    assert _holds(eqs, (1,) * n)
    # Lowering one coordinate leaves the ray (at n = 1 every vector is on it).
    for k in range(n if n >= 2 else 0):
        for low in (0, 1):
            lowered = [2] * n
            lowered[k] = low
            assert not _holds(eqs, lowered)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_a_constant_ray_solves_every_circulants_row_pairs(data):
    # B 1 = lambda_B 1, so the inclusion check answers a constant ray as a
    # member of a circulant's cone without building its equations.
    n = data.draw(st.integers(1, 10))
    row = data.draw(st.lists(st.sampled_from(WIDE_ENTRIES), min_size=n, max_size=n))
    assume(any(row))
    c = Circulant.of(row)
    spectral = circ_spectral(c)
    power, _ = _scaled_power(c, n * n)
    assert _holds([_integer_equation(lhs, rhs) for lhs, rhs in _row_pairs(power, spectral)], (1,) * n)
    top = max(c.row)
    offsets = [t for t, v in enumerate(c.row) if v == top]
    assert _is_single_ray(spectral) == (len(offsets) == 1 and gcd(offsets[0], n) == 1)


@st.composite
def period_one_circulants(draw) -> Circulant:
    """Nonzero circulants of period 1, with the diagonal maximal or not."""
    n = draw(st.integers(1, 10))
    top = draw(st.sampled_from(WIDE_ENTRIES[1:]))
    offsets = draw(st.sets(st.integers(0, n - 1), min_size=1))
    c = Circulant.of([top if t in offsets else draw(st.sampled_from([v for v in WIDE_ENTRIES if v < top])) for t in range(n)])
    assume(circ_spectral(c).period == 1)
    return c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(period_one_circulants())
def test_a_period_one_cone_is_the_whole_space(c):
    # The inclusion check takes such a cone as the whole space, generated by
    # the unit vectors, without building it; its row pairs, its full system
    # and the orbit oracle must agree.
    n = c.n
    spectral = circ_spectral(c)
    assert _is_whole_space(spectral)
    power, _ = _scaled_power(c, n * n)
    assert _row_pairs(power, spectral) == ()
    units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert _cone_generators(n, attraction_system(c)._scaled_equations) == units
    rows = bf.expand_row(c.row)
    # Three values per coordinate up to n = 4, two beyond.  A cyclic shift
    # commutes with a circulant, so one vector per rotation class covers
    # the whole grid.
    values = (0, F(1, 2), 2) if n <= 4 else (0, 1)
    for x in bf.grid_vectors(values, n):
        if x == min(x[k:] + x[:k] for k in range(n)):
            assert bf.orbit_member(rows, x)
            assert orbit_period(c, MaxVector.of(x)) == 1


@st.composite
def admissible_matrices(draw, n=None):
    """Nonzero matrices with n <= 4 (or of size ``n``) whose attraction system is defined."""
    n = draw(st.integers(1, 4)) if n is None else n
    entries = st.sampled_from([F(0), F(0), F(1, 3), F(1, 2), F(1), F(2)])
    a = MaxMatrix.of(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(not a.is_zero())
    try:
        return a, attraction_system_for_matrix(a)
    except ValueError:  # not admissible, or an irrational eigenvalue
        assume(False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(admissible_matrices())
def test_system_of_a_general_matrix_defines_its_cone(case):
    # The inclusion sampler leaves a general first operand's probes untested
    # because each solves this system; the orbit is the definition of the cone.
    a, system = case
    for x in itertools.product([F(0), F(1, 2), F(1)], repeat=a.n):
        x = MaxVector(x)
        assert satisfies(system, x) == (orbit_period(a, x) == 1)


def test_kleene_star_examples():
    assert kleene_star(MaxMatrix.zeros(3)) == MaxMatrix.identity(3)
    # finite sum I + A + A^2 + A^3 for the running example
    star = kleene_star(expand(A31))
    assert star == expand(Circulant.of([1, "1/2", 1, "1/2"]))
    assert kleene_star(star) == star
    with pytest.raises(ValueError):
        kleene_star(MaxMatrix.of([[2]]))


def test_kleene_star_takes_one_kleene_sum(monkeypatch):
    import maxcirc.attraction as attraction
    import maxcirc.digraph as digraph

    calls = []

    def counting(a):
        calls.append(a)
        return kleene_sum(a)

    monkeypatch.setattr(attraction, "kleene_sum", counting)
    monkeypatch.setattr(digraph, "kleene_sum", counting)
    a = expand(A31)
    assert kleene_star(a) == expand(Circulant.of([1, "1/2", 1, "1/2"]))
    assert calls == [a]


def test_attraction_systems_and_general_inclusion_run_no_kleene_sum(monkeypatch):
    # The eigenvalue is a Karp class; only the critical digraph takes a Kleene sum.
    import maxcirc.digraph as digraph

    def forbidden(a):
        raise AssertionError("a Kleene sum ran")

    monkeypatch.setattr(digraph, "kleene_sum", forbidden)
    rng = random.Random(54)
    pool = [0, F(1, 4), F(1, 2), F(3, 4), 1]
    for _ in range(20):
        c = random_nonzero_circulant(rng, rng.randint(1, 6), pool)
        assert attraction_system(c).n == c.n
    assert attraction_system_for_matrix(EX21_A).equations
    assert not check_attraction_inclusion(EX21_A, EX21_B, trials=20, seed=0).consistent


def reference_attraction_system(c, mode):
    """Equations of lambda * A^t (x) == A^(t+1) (x) from the generic matrix routes."""
    a = expand(c)
    lam = max_cycle_mean(a).value
    t = c.n * c.n if mode == "exact_n2" else transient_and_period(a).transient
    seen, out = set(), []
    for row, next_row in zip(mat_power(a, t).rows, mat_power(a, t + 1).rows):
        lhs = tuple(lam * v for v in row)
        if lhs != next_row and frozenset((lhs, next_row)) not in seen:
            seen.add(frozenset((lhs, next_row)))
            out.append((lhs, next_row))
    return out


@pytest.mark.parametrize("mode", ["min_transient", "exact_n2"])
def test_circulant_attraction_system_matches_the_generic_construction(mode):
    rng = random.Random(57)
    pool = [0, F(1, 4), F(1, 3), F(1, 2), F(2, 3), 1, 2]
    for _ in range(40):
        c = random_nonzero_circulant(rng, rng.randint(1, 6), pool)
        assert eq_tuples(attraction_system(c, mode)) == reference_attraction_system(c, mode)


@pytest.mark.parametrize("mode", ["min_transient", "exact_n2"])
def test_circulant_attraction_system_runs_no_karp_pass(monkeypatch, mode):
    # The eigenvalue of a nonzero circulant is its largest row entry.
    import maxcirc.digraph as digraph
    import maxcirc.periodicity as periodicity

    def forbidden(a):
        raise RuntimeError("a Karp pass ran")

    monkeypatch.setattr(digraph, "component_cycle_means", forbidden)
    monkeypatch.setattr(periodicity, "component_cycle_means", forbidden)
    rng = random.Random(58)
    pool = [0, F(1, 4), F(1, 2), F(3, 4), 1, 2]
    for _ in range(30):
        c = random_nonzero_circulant(rng, rng.randint(1, 6), pool)
        assert attraction_system(c, mode).n == c.n
    with pytest.raises(RuntimeError, match="Karp"):
        attraction_system_for_matrix(EX21_A)


def record_spectral_passes(monkeypatch):
    """Record each Karp class, power-sequence detection and system build by operand."""
    import maxcirc.attraction as attraction
    import maxcirc.periodicity as periodicity

    calls = {"class": [], "powers": [], "system": []}

    def recording(key, original):
        def wrapper(m, *args):
            calls[key].append(m)
            return original(m, *args)

        return wrapper

    lambda_class = recording("class", periodicity._admissible_lambda_class)
    powers = recording("powers", periodicity._matrix_transient_and_period)
    for module in (attraction, periodicity):
        monkeypatch.setattr(module, "_admissible_lambda_class", lambda_class)
        monkeypatch.setattr(module, "_matrix_transient_and_period", powers)
    monkeypatch.setattr(attraction, "_power_pair_system", recording("system", attraction._power_pair_system))
    return calls


def test_general_operand_takes_one_karp_pass_and_one_power_detection(monkeypatch):
    calls = record_spectral_passes(monkeypatch)
    assert attraction_system_for_matrix(EX21_A).equations
    assert calls == {"class": [EX21_A], "powers": [EX21_A], "system": [EX21_A]}
    for b in (Circulant.of([1, 1, 1, 1]), EX21_B):
        for key in calls:
            calls[key].clear()
        # Both cones contain that of EX21_B (the first is the whole space), so
        # no window eigenvector is a counterexample and its system is built.
        assert check_attraction_inclusion(EX21_B, b, trials=20, seed=0).consistent
        assert calls["powers"] == calls["system"] == [EX21_B]
        # A general ``b`` adds its own class, once, for its membership test.
        assert calls["class"] == [EX21_B] * (1 + isinstance(b, MaxMatrix))


def test_is_kleene_star_examples():
    assert is_kleene_star(MaxMatrix.identity(4))
    assert is_kleene_star(expand(Circulant.of([1, "1/2", "1/4", "1/8"])))
    assert not is_kleene_star(expand(A31))


def test_normalized_square_power_is_kleene_star():
    rng = random.Random(53)
    pool = [0, F(1, 4), F(1, 2), F(3, 4), 1]
    for _ in range(30):
        n = rng.randint(1, 6)
        c = random_nonzero_circulant(rng, n, pool)
        scaled = expand(c).scale(1 / circ_lambda(c))
        assert is_kleene_star(mat_power(scaled, n * n))


def test_cancel_reduce_running_example():
    s = attraction_system(A31, mode="exact_n2")
    reduced = cancel_reduce(s)
    assert set(frozenset((l.entries, r.entries)) for l, r in reduced.equations) == {
        frozenset({(F(1), F(1, 2), F(0), F(0)), (F(0), F(0), F(1), F(1, 2))}),
        frozenset({(F(1, 2), F(0), F(0), F(1)), (F(0), F(1), F(1, 2), F(0))}),
    }


def test_cancel_reduce_keeps_equal_coefficients():
    s = TwoSidedSystem.of(2, [((1, "1/2"), (1, "1/4"))])
    out = cancel_reduce(s)
    assert out.equations[0][0] == MaxVector.of([1, "1/2"])
    assert out.equations[0][1] == MaxVector.of([1, 0])


def test_cancel_reduce_with_same_side_absorption():
    # x1 + (1/2) x1 = x2 collapses to x1 = x2: the builder absorbs the
    # duplicate term, then cancellation has nothing left to delete
    lhs = max_form(2, [(1, 1), (1, "1/2")])
    s = TwoSidedSystem(2, ((lhs, max_form(2, [(2, 1)])),))
    out = cancel_reduce(s)
    assert out.equations == ((MaxVector.of([1, 0]), MaxVector.of([0, 1])),)


def test_cancel_reduce_preserves_solutions():
    rng = random.Random(54)
    pool = [0, F(1, 4), F(1, 2), 1, 2]
    grid = [F(0), F(1, 2), F(1), F(2)]
    for _ in range(25):
        n = rng.randint(1, 3)
        eqs = [
            (
                tuple(rng.choice(pool) for _ in range(n)),
                tuple(rng.choice(pool) for _ in range(n)),
            )
            for _ in range(rng.randint(1, 3))
        ]
        s = TwoSidedSystem.of(n, eqs)
        out = cancel_reduce(s)
        for combo in itertools.product(grid, repeat=n):
            x = MaxVector(combo)
            assert satisfies(s, x) == satisfies(out, x)


def test_critical_edges_grow_with_dominating_circulant():
    rng = random.Random(55)
    pool = [0, F(1, 4), F(1, 2), 1]
    for _ in range(20):
        n = rng.randint(2, 6)
        b = random_nonzero_circulant(rng, n, pool)
        lam = circ_lambda(b)
        keep = [t for t, v in enumerate(b.row) if v == lam]
        chosen = rng.sample(keep, rng.randint(1, len(keep)))
        row = [
            v if t in chosen else rng.choice([u for u in pool if u <= v])
            for t, v in enumerate(b.row)
        ]
        a = Circulant.of(row)
        assert circ_lambda(a) == lam
        ca = critical_structure(expand(a)).critical_edges
        cb = critical_structure(expand(b)).critical_edges
        assert ca <= cb


def test_inclusion_running_example_pair():
    a = Circulant.of([0, 0, 1, "1/4"])
    b = Circulant.of([0, 0, 1, "1/2"])
    verdict = check_attraction_inclusion(a, b, trials=120, seed=2)
    assert verdict.consistent
    assert verdict.members_tested > 0


def test_inclusion_builds_each_circulant_system_once(monkeypatch):
    # Both cones come from their reduced systems: nothing takes the generic
    # route of transient, cycle mean and matrix power.  An operand whose
    # cone is the constant ray alone (one maximal entry, at an offset coprime
    # to n) takes one spectral pass and no power.  A second operand tested
    # only on constant rays builds nothing: B 1 = lambda_B 1.  Two operands
    # of period 1 attract every vector and take nothing past their spectral
    # passes.  A nonzero a <= b with equal largest entries takes nothing at
    # all: its cone lies in that of b.  Any other
    # operand that is read takes one A^(n^2) on integer numerators and one
    # spectral pass; A's serve both its window eigenvectors and its system,
    # and nothing is expanded: the rows of a power are rotations of its
    # defining row.  Within the generator limit no system over the rationals
    # is built, so no Fraction rows are deduplicated.
    import maxcirc.attraction as attraction

    powers, spectra, expanded = [], [], []

    def counting_power(c, t):
        power = _scaled_power(c, t)
        powers.append((c, t, power))
        return power

    def counting_spectral(c):
        spectra.append(c)
        return circ_spectral(c)

    def recording_expand(c):
        expanded.append(c)
        return expand(c)

    def generic(*args, **kwargs):
        raise AssertionError("the generic attraction-system route ran")

    monkeypatch.setattr(attraction, "_scaled_power", counting_power)
    monkeypatch.setattr(attraction, "circ_spectral", counting_spectral)
    monkeypatch.setattr(attraction, "expand", recording_expand)
    routes = ("attraction_system", "transient_and_period", "max_cycle_mean", "mat_power", "mat_mul", "_dedup_equations")
    for name in routes:
        monkeypatch.setattr(attraction, name, generic)
    # (a, b, verdict, operands that take A^(n^2), operands that take a spectral pass)
    cases = [
        # Two components each: a's window reaches b with a non-constant ray.
        ([0, 0, 1, "1/4"], [0, "1/4", 1, "1/8"], True, "ab", "ab"),
        # The same a under a dominating b: decided by the row comparison.
        ([0, 0, 1, "1/4"], [0, 0, 1, "1/2"], True, "", ""),
        # Both single-ray (period 5): b sees only the constant ray.
        ([0, "1/2", 1, 0, "1/4"], [0, 0, 1, 0, "1/4"], True, "", "a"),
        # A single-ray a against a b with two components.
        (["1/2", 1, 0, "1/4"], [0, 0, 1, "1/2"], True, "", "a"),
        # A single-ray b refutes a's first, non-constant window column.
        ([0, 0, 1, "1/4"], [0, 1, 0, 0], False, "a", "ab"),
        # Several maximal entries in a, refuted by a generator: b has two
        # maximal offsets, then one.
        ([1, "1/2", 1, 1], ["1/2", 1, "1/4", 1], False, "ab", "ab"),
        ([1, "1/2", 1, 1], ["1/2", 1, "1/4", "1/2"], False, "a", "ab"),
        # Both of period 1 (a maximal diagonal): each takes its spectral pass
        # only, and no row pairs or generators are formed.
        ([1, "1/2", 0, "1/4"], [1, "1/4", "1/2", "1/4"], True, "", "ab"),
        # The same a under a dominating b of period 1: no spectral pass.
        ([1, "1/2", 0, "1/4"], [1, "1/2", "1/2", "1/4"], True, "", ""),
        ([1, "1/2", 0, "1/4", 0, "1/3", 0, 0], [1, 0, "1/2", 0, 1, 0, 0, "1/4"], True, "", "ab"),
        # A period-1 a against a single-ray b: a keeps its window, refuted at
        # its first column, and b's one spectral pass answers both whether
        # its cone is the whole space and its rays.
        ([1, "1/2", 0, 0, 0], [0, 0, 1, 0, 0], False, "a", "ab"),
        # The window is constant, so the first unit-vector generator refutes.
        ([1, 0, 1, 0, 0], [0, 0, 1, 0, 0], False, "a", "ab"),
    ]
    for a, b, consistent, powered, spectral in cases:
        a, b = Circulant.of(a), Circulant.of(b)
        operands = {"a": a, "b": b}
        for calls in (powers, spectra, expanded):
            calls.clear()
        assert check_attraction_inclusion(a, b, trials=20, seed=2).consistent is consistent
        assert sorted((c.row, t) for c, t, _ in powers) == sorted((operands[k].row, a.n**2) for k in powered)
        assert sorted(c.row for c in spectra) == sorted(operands[k].row for k in spectral)
        assert expanded == []


@pytest.mark.parametrize("a", [EX21_A, MaxMatrix(EX21_B.rows)])
def test_inclusion_validates_a_general_second_cone_once(monkeypatch, a):
    # The orbit-period membership test of a general B takes B's cycle-mean
    # class at its first ray and reuses it for every later one.
    import maxcirc.periodicity as periodicity

    original = periodicity.component_cycle_means
    on_b = []

    def counting(m):
        if m is EX21_B:
            on_b.append(m)
        return original(m)

    monkeypatch.setattr(periodicity, "component_cycle_means", counting)
    verdict = check_attraction_inclusion(a, EX21_B, trials=40, seed=0)
    assert verdict.members_tested >= 2
    assert len(on_b) == 1


def test_a_general_second_cone_is_validated_at_its_first_ray():
    # Not admissible: the 2-cycle has mean 1, the loop at node 3 mean 1/2.
    b = MaxMatrix.of([[0, 1, 0], [1, 0, 0], [0, 0, "1/2"]])
    with pytest.raises(NotAdmissible, match="unequal cycle means"):
        check_attraction_inclusion(Circulant.of([0, 0, 0]), b)


@pytest.mark.parametrize(
    "a, b, trials, seed, members",
    [
        ([0, 0, 1, "1/4"], [0, 0, 1, "1/2"], 0, 0, 4),
        ([0, 0, 1, "1/4"], [0, 0, 1, "1/2"], 1, 0, 6),
        ([0, 0, 1, "1/4"], [0, 0, 1, "1/2"], 2, 0, 8),
        ([0, 0, 1, "1/4"], [0, 0, 1, "1/2"], 120, 2, 244),
        ([0, "1/2", 1], [0, "1/2", 1], 60, 1, 123),
        ([1], [1], 3, 0, 6),  # one window eigenvector: the first trial combines nothing
    ],
)
def test_inclusion_is_decided_from_the_generators_without_trials(monkeypatch, a, b, trials, seed, members):
    # Every generator of A's cone lies in B's, so no greatest solution is
    # computed; the counts are those the sampled trials reach.  Each pair is
    # dominated, so it is decided by the row comparison; B scaled by 2 has
    # the same cone and a larger largest entry, so it takes the generators.
    import maxcirc.attraction as attraction

    def no_trials(*args):
        raise AssertionError("a trial ran")

    a = Circulant.of(a)
    assert reduced_attraction_system(a)._generators is not None
    monkeypatch.setattr(attraction, "_greatest", no_trials)
    for scale in (1, 2):
        b_scaled = Circulant.of([scale * F(v) for v in b])
        assert attraction._is_dominated(a, b_scaled) is (scale == 1)
        assert check_attraction_inclusion(a, b_scaled, trials=trials, seed=seed) == InclusionVerdict(
            True, None, trials_run=trials, members_tested=members
        )


def _capped(*args):
    raise IterationCapExceeded("no stabilization")


def _zero_solution(system, upper, cap):
    return (0,) * len(upper[0]), 1


@pytest.mark.parametrize(
    "greatest, members",
    [
        (None, 68),
        # A capped trial is skipped together with its four combination draws.
        (_capped, 8),
        # A zero solution is not counted as a member, but its combination is.
        (_zero_solution, 38),
    ],
)
def test_sampler_skips_capped_trials_and_zero_solutions(monkeypatch, greatest, members):
    # The pair is past the generator limit, so the sampler decides it.
    import maxcirc.attraction as attraction

    wide = Circulant.of(["1/2", "1/4", "3/4", 0, 1, "1/2", "3/4", 0])
    if greatest is not None:
        monkeypatch.setattr(attraction, "_greatest", greatest)
    verdict = check_attraction_inclusion(wide, Circulant.of([2 * v for v in wide.row]), trials=30, seed=1)
    assert verdict == InclusionVerdict(True, None, trials_run=30, members_tested=members)


@pytest.mark.parametrize(
    "a, b",
    [
        ([0, 0, 0, 0, "1/4", "1/4"], ["1/4", 0, "1/2", "1/2", "3/4", 1]),
        ([0, "1/2", "1/2", "1/2", "1/2"], [0, 0, "1/4", "1/2", 0]),  # benchmark inclusion problem 235, seed 2
    ],
)
def test_a_generator_outside_the_second_cone_is_a_counterexample(a, b):
    # Every window eigenvector of A lies in B's cone, so a generator refutes
    # the inclusion.
    a, b = Circulant.of(a), Circulant.of(b)
    verdict = check_attraction_inclusion(a, b)
    assert not verdict.consistent and verdict.trials_run == 0
    x = verdict.counterexample.entries
    assert bf.orbit_member(expand(a).rows, x)
    assert not bf.orbit_member(expand(b).rows, x)


def test_inclusion_rejects_negative_trials():
    a = Circulant.of([0, 0, 1, "1/4"])
    b = Circulant.of([0, 0, 1, "1/2"])
    with pytest.raises(ValueError, match="trials"):
        check_attraction_inclusion(a, b, trials=-5)
    assert check_attraction_inclusion(a, b, trials=0).trials_run == 0


def test_circulant_eigenvector_window_equals_matrix_window():
    rng = random.Random(56)
    pool = [0, F(1, 3), F(2, 7), F(3, 4), 1, 2]
    for _ in range(40):
        c = random_nonzero_circulant(rng, rng.randint(1, 7), pool)
        power, _ = _scaled_power(c, c.n * c.n)
        window = [_vector(x) for x in _circulant_window_eigenvectors(c, power, circ_spectral(c))]
        a = expand(c)
        assert window == _period_window_eigenvectors(a, max_cycle_mean(a).value, transient_and_period(a))


def test_every_vector_is_in_the_cone_of_the_zero_matrix():
    for x in (MaxVector.zeros(2), MaxVector.of([1, 2]), MaxVector.of([0, "1/3"])):
        assert in_attraction_cone(MaxMatrix.zeros(2), x)


@pytest.mark.parametrize("a", [MaxMatrix.zeros(3), EX21_A])
def test_matrix_membership_rejects_a_vector_of_another_size(a):
    with pytest.raises(DimensionMismatch, match="vector size 2"):
        in_attraction_cone(a, MaxVector.of([1, 2]))


def test_inclusion_finds_counterexample_for_general_pair():
    verdict = check_attraction_inclusion(EX21_A, EX21_B, trials=200, seed=0)
    assert not verdict.consistent
    x = verdict.counterexample
    assert in_attraction_cone(EX21_A, x)
    assert not in_attraction_cone(EX21_B, x)


def test_inclusion_reflexive():
    a = Circulant.of([0, "1/2", 1])
    verdict = check_attraction_inclusion(a, a, trials=60, seed=1)
    assert verdict.consistent


def test_matrix_attraction_system_matches_membership():
    s = attraction_system_for_matrix(EX21_A)
    for x in (
        MaxVector.of([1, 1, 5, 1]),
        MaxVector.of(["1/2", 1, "10/3", 1]),
        MaxVector.of([1, 2, 0, 1]),
    ):
        assert satisfies(s, x) == in_attraction_cone(EX21_A, x)


def test_matrix_attraction_system_needs_rational_eigenvalue():
    irrational = MaxMatrix.of([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        attraction_system_for_matrix(irrational)
    # membership still decides through the orbit period
    assert not in_attraction_cone(irrational, MaxVector.of([1, 1]))


# --- the sampler against the Fraction copy in bruteforce.py ------------------

ENTRIES = [F(0), F(1, 3), F(2, 7), F(3, 4), F(1), F(2)]


@st.composite
def inclusion_operands(draw):
    """Two operands of one size: circulants (zero ones too, and dominated
    pairs, which run many trials), the general pair of Example 2.1, or
    random admissible general matrices.  A general first operand has its
    largest entry as eigenvalue, as the Fraction sampler requires; the
    second has a rational eigenvalue, or is a circulant.  A dominated pair
    is decided by the row comparison unless its second row is doubled,
    which keeps its cone and takes the general route."""
    kind = draw(st.sampled_from(["random", "dominated", "zero", "example", "general", "general"]))
    if kind == "example":
        return draw(st.sampled_from([(EX21_A, EX21_B), (EX21_B, EX21_A), (EX21_A, A31), (A31, EX21_B)]))
    if kind == "general":
        a, _ = draw(admissible_matrices())
        top = max(v for row in a.rows for v in row)
        weight, length = bf.best_cycle_mean(a.rows)
        assume(weight == top**length)
        if draw(st.booleans()):
            b, _ = draw(admissible_matrices(a.n))
        else:
            b = Circulant.of(draw(st.lists(st.sampled_from(ENTRIES), min_size=a.n, max_size=a.n)))
        return a, b
    n = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)
    a, b = draw(row), draw(row)
    if kind == "zero":
        a, b = draw(st.sampled_from([([0] * n, b), (a, [0] * n), ([0] * n, [0] * n)]))
    elif kind == "dominated" and any(b):
        top = max(b)
        a = [v if v == top else draw(st.sampled_from([u for u in ENTRIES if u <= v])) for v in b]
        if draw(st.booleans()):
            a, b = b, a
        if draw(st.booleans()):
            b = [2 * v for v in b]
    return Circulant.of(a), Circulant.of(b)


def oracle_equations(m):
    if m.is_zero():
        return None
    system = attraction_system(m) if isinstance(m, Circulant) else attraction_system_for_matrix(m)
    return eq_tuples(system)


def generators_of(a):
    """The generating set of A's cone as the inclusion check builds it; None
    for a zero ``a`` or past the size limit."""
    if a.is_zero():
        return None
    system = reduced_attraction_system(a) if isinstance(a, Circulant) else attraction_system_for_matrix(a)
    return system._generators


# Past every orbit transient of the operands that ``inclusion_operands`` draws.
ORBIT_BOUND = 100


def orbit_member(m, x):
    """Membership in the attraction cone of ``m`` by following the orbit of x."""
    if m.is_zero():
        return True
    rows = expand(m).rows if isinstance(m, Circulant) else m.rows
    return bf.orbit_member(rows, x, bound=ORBIT_BOUND, lam=bf.eigenvalue(rows))


def sampled_verdict(a, b, trials, seed):
    rows = expand(a).rows if isinstance(a, Circulant) else a.rows
    return bf.inclusion_sample(rows, oracle_equations(a), oracle_equations(b), trials, seed)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(inclusion_operands(), st.integers(0, 60), st.integers(0, 3))
def test_inclusion_verdict_equals_the_fraction_sampler(operands, trials, seed):
    # Without a generating set the verdict is the sampler's.  With one, A's
    # cone lies in B's exactly when every generator does, and a refutation
    # is a window eigenvector or else the first generator outside B's cone.
    a, b = operands
    got = check_attraction_inclusion(a, b, trials=trials, seed=seed)
    counterexample = got.counterexample.entries if got.counterexample else None
    verdict = (got.consistent, counterexample, got.trials_run, got.members_tested)
    sampled = sampled_verdict(a, b, trials, seed)
    if not sampled[0]:
        assert not got.consistent
    generators = generators_of(a)
    if generators is None:
        assert verdict == sampled
        return
    failing = [tuple(map(F, g)) for g in generators if not orbit_member(b, g)]
    assert got.consistent == (not failing)
    if got.consistent:
        assert verdict == sampled  # the trials are counted as they would run
        return
    assert orbit_member(a, counterexample) and not orbit_member(b, counterexample)
    windowed = sampled_verdict(a, b, 0, seed)
    assert verdict == (windowed if not windowed[0] else (False, failing[0], 0, windowed[3] + 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(inclusion_operands(), st.integers(0, 60), st.integers(0, 3))
def test_inclusion_verdict_from_the_sweep_is_never_stronger(operands, trials, seed):
    # With no generating set the sampler can miss a counterexample, but it
    # can never refute an inclusion that the generators prove.
    import maxcirc.twosided as twosided

    a, b = operands
    exact = check_attraction_inclusion(a, b, trials=trials, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twosided, "_GENERATOR_CANDIDATE_LIMIT", 0)
        swept = check_attraction_inclusion(a, b, trials=trials, seed=seed)
    if exact.consistent:
        assert swept == exact
    elif not swept.consistent:
        x = swept.counterexample.entries
        assert orbit_member(a, x) and not orbit_member(b, x)


def test_inclusion_past_the_generator_limit_samples_by_the_sweep():
    # Against itself the pair is dominated and decided by the row
    # comparison; scaled by 2, the same cone takes the sweep, with the same
    # counts.
    wide = Circulant.of(["1/2", "1/4", "3/4", 0, 1, "1/2", "3/4", 0])
    assert reduced_attraction_system(wide)._generators is None
    verdict = check_attraction_inclusion(wide, Circulant.of([2 * v for v in wide.row]), trials=30, seed=1)
    assert verdict.consistent and verdict.trials_run == 30 and verdict.members_tested > 0
    assert check_attraction_inclusion(wide, wide, trials=30, seed=1) == verdict


# --- dominated pairs: a <= b with equal largest entries ----------------------

# Zeros and mixed denominators.
DOMINATED_ENTRIES = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1), F(3, 2)]


@st.composite
def dominated_pairs(draw):
    """A nonzero b and an a <= b entrywise that keeps one of b's maximal entries."""
    n = draw(st.integers(2, 8))
    b = draw(st.lists(st.sampled_from(DOMINATED_ENTRIES), min_size=n, max_size=n).filter(any))
    kept = draw(st.sampled_from([t for t, v in enumerate(b) if v == max(b)]))
    a = [v if t == kept else draw(st.sampled_from([u for u in DOMINATED_ENTRIES if u <= v])) for t, v in enumerate(b)]
    return Circulant.of(a), Circulant.of(b)


# Dominated pairs at n = 8 whose first cone is past the generator limit, so
# the general route samples; the first is WIDE_PAIRS[9] of test_report_digests.py.
WIDE_DOMINATED = [
    (["1/4", "1/2", "1/3", "1/4", 1, "1/3", "1/3", "2/3"], ["1/4", "1/2", "1/2", "1/4", 1, "1/2", "2/3", "2/3"]),
    (["1/4", 0, "1/3", 0, 1, "1/3", "1/4", "1/3"], ["3/4", "1/3", "3/4", "1/3", 1, "1/3", "2/3", "1/3"]),
    (["1/2", "1/3", 0, 0, "1/3", 0, "3/4", "1/4"], ["2/3", "2/3", "1/4", 0, "3/4", "3/4", "3/4", "1/3"]),
]

UPPER_BOUNDS = st.lists(st.lists(st.sampled_from(DOMINATED_ENTRIES[1:]), min_size=8, max_size=8), min_size=1, max_size=2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dominated_pairs(), st.integers(0, 60), st.integers(0, 3), UPPER_BOUNDS)
@example((Circulant.of(WIDE_DOMINATED[0][0]), Circulant.of(WIDE_DOMINATED[0][1])), 60, 0, [[1] * 8, [F(1, 2), 1] * 4])
@example((Circulant.of(WIDE_DOMINATED[1][0]), Circulant.of(WIDE_DOMINATED[1][1])), 40, 1, [[F(3, 4), 1, F(1, 3), 1] * 2])
@example((Circulant.of(WIDE_DOMINATED[2][0]), Circulant.of(WIDE_DOMINATED[2][1])), 40, 2, [[F(2, 3)] * 4 + [1] * 4])
def test_a_dominated_pair_is_an_included_pair(pair, trials, seed, uppers):
    # The verdict is consistent with the counts of the generator path: n
    # window columns, then every trial, which the Fraction sampler reaches
    # too, past the generator limit included.  B scaled by 2 has the same
    # cone and a larger largest entry, so it takes the general route to the
    # same verdict; the swapped pair takes the general route too.  Members
    # of A's cone, greatest solutions of its system, reach B's eigencone.
    import maxcirc.attraction as attraction

    a, b = pair
    n = a.n
    verdict = check_attraction_inclusion(a, b, trials=trials, seed=seed)
    assert verdict == InclusionVerdict(True, None, trials_run=trials, members_tested=n + 2 * trials)
    assert check_attraction_inclusion(a, Circulant.of([2 * v for v in b.row]), trials=trials, seed=seed) == verdict
    assert sampled_verdict(a, b, trials, seed) == (True, None, trials, n + 2 * trials)
    system = reduced_attraction_system(a)
    for upper in uppers:
        x = greatest_solution_leq(system, MaxVector(tuple(upper[:n]))).entries
        assert bf.orbit_member(expand(b).rows, x, bound=n * n + 1)
    if a != b:
        spectra = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(attraction, "circ_spectral", lambda c: spectra.append(c) or circ_spectral(c))
            check_attraction_inclusion(b, a, trials=trials, seed=seed)
        assert b in spectra


@pytest.mark.parametrize(
    "a, b",
    [
        ([0, 0, 1, "1/4"], [0, 0, 1, "1/2"]),
        ([0, "1/2", 1], [0, "1/2", 1]),
        *WIDE_DOMINATED,
    ],
)
def test_a_dominated_pair_builds_nothing(monkeypatch, a, b):
    import maxcirc.attraction as attraction

    def forbidden(*args):
        raise AssertionError("a cone was built")

    for name in ("circ_spectral", "_scaled_power", "_cone_generators"):
        monkeypatch.setattr(attraction, name, forbidden)
    a, b = Circulant.of(a), Circulant.of(b)
    verdict = check_attraction_inclusion(a, b)
    assert verdict == InclusionVerdict(True, None, trials_run=200, members_tested=a.n + 400)


def test_a_zero_first_operand_keeps_its_unit_vector_route():
    # A zero a is <= every b but is not dominated: its cone is the whole
    # space, tested on the unit vectors with no trial.
    b = Circulant.of([1, "1/2", 0, "1/4"])
    assert check_attraction_inclusion(Circulant.of([0] * 4), b) == InclusionVerdict(True, None, 0, 4)
    assert check_attraction_inclusion(Circulant.of([0] * 4), Circulant.of([0] * 4)) == InclusionVerdict(True, None, 0, 4)
