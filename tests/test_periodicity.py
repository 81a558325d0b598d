import random
from fractions import Fraction as F

import pytest

from maxcirc import (
    Circulant,
    DimensionMismatch,
    InternalError,
    MaxMatrix,
    MaxVector,
    NotAdmissible,
    PeriodicityInfo,
    circ_lambda,
    circ_spectral,
    expand,
    orbit_period,
    transient_and_period,
)

import bruteforce as bf


def random_nonzero_circulant(rng, n, pool):
    while True:
        c = Circulant.of([rng.choice(pool) for _ in range(n)])
        if not c.is_zero():
            return c


def test_running_example_transient_and_period():
    info = transient_and_period(expand(Circulant.of([0, 0, 1, "1/2"])))
    assert (info.transient, info.period) == (3, 2)


def test_six_cycle_is_periodic_from_the_start():
    info = transient_and_period(expand(Circulant.of([0, 1, 0, 0, 0, 0])))
    assert (info.transient, info.period) == (1, 6)


def test_two_step_circulant_transient():
    # Power arithmetic gives B^2 == B^4 while B^1 != B^3, so the minimal
    # transient is 2 (the period is 2); cross-checked by the definition scan.
    b = expand(Circulant.of([0, 1, 0, 1, 0, 0]))
    info = transient_and_period(b)
    assert bf.minimal_transient_period(b.rows, F(1), 16) == (2, 2)
    assert (info.transient, info.period) == (2, 2)


def test_matches_definition_scan_on_random_circulants():
    rng = random.Random(31)
    vector_rng = random.Random(33)
    # The second pool has entries above 1 and mixed denominators, where Karp's
    # cycle-mean class of the expanded matrix often has length above 1.
    pools = [[0, F(1, 4), F(1, 2), 1], [0, F(1, 3), F(2, 7), F(1, 2), 1, 2]]
    for pool in pools:
        for _ in range(20):
            n = rng.randint(1, 6)
            c = random_nonzero_circulant(rng, n, pool)
            a = expand(c)
            lam = circ_lambda(c)
            scaled = tuple(tuple(v / lam for v in row) for row in a.rows)
            info = transient_and_period(c)
            bound = 2 * ((n - 1) ** 2 + 1 + n) + 4
            assert bf.minimal_transient_period(scaled, F(1), bound) == (
                info.transient,
                info.period,
            )
            x = MaxVector.of([vector_rng.choice(pool) for _ in range(n)])
            assert (orbit_period(c, x) == 1) == bf.orbit_member(a.rows, x.entries)


def test_circulant_branch_matches_general_branch():
    # The general branch, run on the expanded matrix, is the oracle for the
    # circulant branch's class and its powers on defining rows.
    rng = random.Random(34)
    pool = [0, F(1, 3), F(2, 7), F(1, 2), 1, 2, F(5, 2)]
    cases = [Circulant.of([0]), Circulant.of([0, 0, 0]), Circulant.of(["5/2"])]
    cases += [Circulant.of([rng.choice(pool) for _ in range(rng.randint(1, 6))]) for _ in range(60)]
    for c in cases:
        a = expand(c)
        x = MaxVector.of([rng.choice(pool) for _ in range(c.n)])
        if c.is_zero():
            for call in (transient_and_period, lambda m: orbit_period(m, x)):
                messages = set()
                for m in (c, a):
                    with pytest.raises(NotAdmissible) as raised:
                        call(m)
                    messages.add(str(raised.value))
                assert len(messages) == 1
            continue
        assert transient_and_period(c) == transient_and_period(a)
        assert orbit_period(c, x) == orbit_period(a, x)


def test_example_pair_of_general_matrices():
    a = MaxMatrix.of(
        [["1/2", 1, "1/5", 0], [1, "1/2", "1/5", 0], ["1/5", "1/5", "1/5", 0], [0, 0, 0, 1]]
    )
    b = MaxMatrix.of(
        [["1/2", 1, "1/5", 0], [1, "1/2", "3/10", 0], ["2/5", "2/5", "2/5", 0], [0, 0, 0, 1]]
    )
    info_a, info_b = transient_and_period(a), transient_and_period(b)
    assert (info_a.transient, info_a.period) == (2, 2)
    assert (info_b.transient, info_b.period) == (3, 2)


def test_irrational_eigenvalue_pair_arithmetic():
    # two-cycle with weights 1 and 2: the cycle mean is the square root of 2,
    # never materialized; detection runs on cross-powered fingerprints
    a = MaxMatrix.of([[0, 1], [2, 0]])
    info = transient_and_period(a)
    assert (info.transient, info.period) == (1, 2)
    assert orbit_period(a, MaxVector.of([1, 1])) == 2
    assert orbit_period(a, MaxVector.of([1, 0])) == 2


def test_rejects_non_completely_reducible():
    a = MaxMatrix.of([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        transient_and_period(a)


def test_rejects_unequal_component_means():
    a = MaxMatrix.of([[1, 0], [0, "1/2"]])
    with pytest.raises(ValueError):
        transient_and_period(a)


def test_rejects_zero_matrix():
    with pytest.raises(ValueError):
        transient_and_period(MaxMatrix.zeros(2))


def test_orbit_period_examples():
    a = expand(Circulant.of([0, 0, 1, "1/2"]))
    assert orbit_period(a, MaxVector.of(["1/2", 1, "1/4", 1])) == 1
    p6 = expand(Circulant.of([0, 1, 0, 0, 0, 0]))
    assert orbit_period(p6, MaxVector.unit(6, 0)) == 6
    assert orbit_period(a, MaxVector.zeros(4)) == 1


def test_orbit_period_rejects_a_vector_of_another_size():
    c = Circulant.of([0, 0, 1, "1/2"])
    for m in (c, expand(c), MaxMatrix.zeros(3)):
        with pytest.raises(DimensionMismatch, match="vector size 2"):
            orbit_period(m, MaxVector.of([1, 2]))


def test_orbit_period_divides_matrix_period():
    rng = random.Random(32)
    pool = [0, F(1, 2), 1]
    vec_pool = [0, F(1, 2), 1, 2]
    for _ in range(25):
        n = rng.randint(1, 6)
        c = random_nonzero_circulant(rng, n, pool)
        a = expand(c)
        info = transient_and_period(a)
        x = MaxVector.of([rng.choice(vec_pool) for _ in range(n)])
        assert info.period % orbit_period(a, x) == 0


def test_circulant_sweep_period_and_transient_bound():
    import itertools

    for n in range(1, 7):
        for bits in itertools.product([0, 1], repeat=n):
            if not any(bits):
                continue
            c = Circulant.of(bits)
            info = transient_and_period(c)
            assert info.period == circ_spectral(c).period
            assert info.transient <= (n - 1) ** 2 + 1


# Eigenvalue 1, critical on node 1 alone; the entries off node 1 decay by
# 29/30 per step, so the powers repeat only from transient 201.
SLOW = MaxMatrix.of([[1, "1/30"], ["1/30", "29/30"]])


def test_general_matrix_past_the_detection_cap_is_not_admissible(monkeypatch):
    import maxcirc.periodicity as periodicity

    assert transient_and_period(SLOW) == PeriodicityInfo(transient=201, period=1)
    monkeypatch.setattr(periodicity, "HARD_DETECTION_CAP", 50)
    with pytest.raises(NotAdmissible, match="detection cap of 50 steps"):
        transient_and_period(SLOW)
    with pytest.raises(NotAdmissible, match="detection cap of 50 steps"):
        orbit_period(SLOW, MaxVector.of([0, 1]))
    # An orbit that settles within the cap still answers.
    assert orbit_period(SLOW, MaxVector.of([1, 0])) == 1


def test_circulant_power_sequence_past_the_detection_cap_is_an_internal_error(monkeypatch):
    import maxcirc.periodicity as periodicity

    c = Circulant.of([0, 0, 1, "1/2"])  # transient 3: the proved bound makes a cap hit a bug
    monkeypatch.setattr(periodicity, "HARD_DETECTION_CAP", 2)
    with pytest.raises(InternalError, match="detection cap of 2 steps"):
        transient_and_period(c)
