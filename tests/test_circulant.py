import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcirc import (
    Circulant,
    DimensionMismatch,
    InternalError,
    NotAdmissible,
    circ_lambda,
    circ_mul,
    circ_power,
    circ_spectral,
    critical_structure,
    expand,
    mat_mul,
    mat_power,
    max_cycle_mean,
    transient_and_period,
)


def random_row(rng, n, pool):
    return [rng.choice(pool) for _ in range(n)]


def test_expand_running_example():
    a = expand(Circulant.of([0, 0, 1, "1/2"]))
    t = F(1, 2)
    assert a.rows == (
        (F(0), F(0), F(1), t),
        (t, F(0), F(0), F(1)),
        (F(1), t, F(0), F(0)),
        (F(0), F(1), t, F(0)),
    )


def test_expand_one_by_one():
    assert expand(Circulant.of(["2/3"])).rows == ((F(2, 3),),)


def test_expand_six_cycle_permutation():
    a = expand(Circulant.of([0, 1, 0, 0, 0, 0]))
    for i in range(6):
        for j in range(6):
            assert a.rows[i][j] == (1 if (j - i) % 6 == 1 else 0)


def test_construction_coerces_entries_like_of():
    c = Circulant((2, 1, 0))
    assert c == Circulant.of([2, 1, 0])
    assert all(type(v) is F for v in c.row)
    assert transient_and_period(c) == transient_and_period(expand(c))
    assert Circulant(("1/2", F(1, 3))).row == (F(1, 2), F(1, 3))


def test_construction_rejects_floats():
    with pytest.raises(TypeError, match="floats are not exact"):
        Circulant((0.5, -1, 0))
    with pytest.raises(TypeError, match="floats are not exact"):
        Circulant((F(1, 2), 1.0))


def test_construction_rejects_negative_entries():
    with pytest.raises(ValueError, match="negative"):
        Circulant((0, -1, 0))
    with pytest.raises(ValueError, match="negative"):
        Circulant((F(1, 2), F(-1, 3)))


def test_identity_needs_a_positive_size():
    assert Circulant.identity(3) == Circulant.of([1, 0, 0])
    for n in (0, -2):
        with pytest.raises(ValueError, match="at least one defining entry"):
            Circulant.identity(n)


def test_circ_mul_examples():
    a = Circulant.of([0, 0, 1, "1/2"])
    assert circ_mul(a, a) == Circulant.of([1, "1/2", "1/4", 0])
    shift = Circulant.of([0, 1, 0])
    assert circ_mul(shift, shift) == Circulant.of([0, 0, 1])
    c = Circulant.of(["1/3", 0, 2])
    assert circ_mul(Circulant.identity(3), c) == c
    with pytest.raises(DimensionMismatch):
        circ_mul(shift, a)


def test_circ_mul_is_expansion_homomorphism():
    rng = random.Random(21)
    pool = [0, F(1, 3), F(1, 2), 1, F(7, 4)]
    for _ in range(30):
        n = rng.randint(1, 10)
        c = Circulant.of(random_row(rng, n, pool))
        d = Circulant.of(random_row(rng, n, pool))
        assert expand(circ_mul(c, d)) == mat_mul(expand(c), expand(d))


def test_circ_power_matches_matrix_power():
    a = Circulant.of([0, 0, 1, "1/2"])
    assert circ_power(a, 16) == Circulant.of([1, "1/2", "1/4", "1/8"])
    assert circ_power(a, 0) == Circulant.identity(4)


def test_circ_lambda_examples():
    assert circ_lambda(Circulant.of([0, 0, 1, "1/2"])) == 1
    assert circ_lambda(Circulant.of([0, 0, 0])) == 0
    assert circ_lambda(Circulant.of([0, 1, 0, 1, 0, 0])) == 1


def test_circ_lambda_equals_max_cycle_mean():
    rng = random.Random(22)
    pool = [0, F(1, 4), F(1, 2), F(2, 3), 1, 3]
    for _ in range(25):
        n = rng.randint(1, 7)
        c = Circulant.of(random_row(rng, n, pool))
        if c.is_zero():
            assert max_cycle_mean(expand(c)) is None
            continue
        cm = max_cycle_mean(expand(c))
        assert cm.value == circ_lambda(c)


def test_critical_components_running_example():
    assert circ_spectral(Circulant.of([0, 0, 1, "1/2"])).components == ((1, 3), (2, 4))


def test_critical_components_full_component():
    assert circ_spectral(Circulant.of([0, 1, 0, 1, 0, 0])).components == (
        (1, 2, 3, 4, 5, 6),
    )


def test_critical_components_diagonal_only_gives_singletons():
    sp = circ_spectral(Circulant.of([1, "1/2", "1/2"]))
    assert sp.diagonal_is_maximal
    assert sp.critical_offsets == ()
    assert sp.component_count == 3
    assert sp.components == ((1,), (2,), (3,))
    assert sp.period == 1


def test_critical_components_rejects_zero():
    with pytest.raises(ValueError):
        circ_spectral(Circulant.of([0, 0]))


def test_components_agree_with_critical_structure():
    rng = random.Random(23)
    pool = [0, F(1, 2), F(3, 4), 1]
    for _ in range(25):
        n = rng.randint(1, 8)
        c = Circulant.of(random_row(rng, n, pool))
        if c.is_zero():
            continue
        assert circ_spectral(c).components == critical_structure(expand(c)).components


def test_spectral_cross_check_reads_the_graph_off_the_row(monkeypatch):
    # The threshold digraph comes from the row's maximal offsets, with no
    # expanded matrix; a graph cyclicity that disagrees with the gcd
    # formulas is still caught.
    import maxcirc.circulant as circulant

    def no_expand(c):
        raise AssertionError("circ_spectral expanded the circulant")

    monkeypatch.setattr(circulant, "expand", no_expand)
    c = Circulant.of([0, 0, 1, "1/2", 0, 1])
    assert circ_spectral(c).period == 3
    cyclicity = circulant.digraph_cyclicity

    def disagreeing(g):
        per, sigma = cyclicity(g)
        return per, sigma + 1

    monkeypatch.setattr(circulant, "digraph_cyclicity", disagreeing)
    with pytest.raises(InternalError, match="threshold digraph gives"):
        circ_spectral(c)


@st.composite
def nonzero_rows(draw):
    n = draw(st.integers(1, 10))
    pool = [0, F(1, 4), F(1, 3), F(1, 2), F(3, 4), 1, 2]
    shape = draw(st.sampled_from(["random", "diagonal_maximal", "all_equal"]))
    if shape == "all_equal":
        return [draw(st.sampled_from(pool[1:]))] * n
    row = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n).filter(any))
    if shape == "diagonal_maximal":
        row[0] = max(row)
    return row


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nonzero_rows())
def test_spectral_pass_matches_critical_structure(row):
    # The gcd components and period equal what Karp and the Kleene star give
    # on the expanded matrix.
    c = Circulant.of(row)
    sp = circ_spectral(c)
    cs = critical_structure(expand(c))
    assert sp.components == cs.components
    assert sp.period == cs.global_cyclicity


def test_circ_period_examples():
    assert circ_spectral(Circulant.of([0, 0, 1, "1/2"])).period == 2
    assert circ_spectral(Circulant.of([0, 1, 0, 1, 0, 0])).period == 2
    assert circ_spectral(Circulant.of([1, "1/2", "1/4", "1/8"])).period == 1


def test_circ_period_formula_values():
    sp = circ_spectral(Circulant.of([0, 1, 0, 1, 0, 0]))
    assert sp.period_formulas == (2, 2, 2)
    sp1 = circ_spectral(Circulant.of([1, 1, 0, 0]))
    assert sp1.period == 1
    assert sp1.period_formulas is None


def test_equal_weight_cycle_through_every_nonzero_entry():
    # every nonzero entry (i, j) lies on the cycle stepping by (j - i) mod n,
    # whose edges all carry that same entry value
    rng = random.Random(24)
    pool = [0, F(1, 3), F(1, 2), 1]
    for _ in range(20):
        n = rng.randint(1, 7)
        c = Circulant.of(random_row(rng, n, pool))
        a = expand(c)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                w = a.rows[i - 1][j - 1]
                if w == 0:
                    continue
                step = (j - i) % n
                node = i
                for _ in range(n):
                    nxt = (node - 1 + step) % n + 1
                    assert a.rows[node - 1][nxt - 1] == w
                    node = nxt
                assert node == i


# Denominators 3, 4 and 7 mixed in one row, and entries above 1.
KERNEL_POOL = [0, F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(2, 7), F(6, 7), 1, F(4, 3), F(7, 4), F(9, 7), 2]


@st.composite
def circulant_pairs(draw):
    n = draw(st.integers(1, 8))
    rows = st.one_of(st.just([0] * n), st.lists(st.sampled_from(KERNEL_POOL), min_size=n, max_size=n))
    return Circulant.of(draw(rows)), Circulant.of(draw(rows))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(circulant_pairs())
def test_integer_kernel_matches_fraction_matrices(pair):
    # Circulant products, powers and repeat detection run on integer
    # numerators; the matrix path runs on Fractions, an independent reference.
    c, d = pair
    n = c.n
    a = expand(c)
    assert expand(circ_mul(c, d)) == mat_mul(a, expand(d))
    for t in (0, 1, 2, n * n, n * n + 1):
        assert expand(circ_power(c, t)) == mat_power(a, t)
    if c.is_zero():
        for m in (c, a):
            with pytest.raises(NotAdmissible):
                transient_and_period(m)
    else:
        assert transient_and_period(c) == transient_and_period(a)
