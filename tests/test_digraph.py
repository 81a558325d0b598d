import random
from fractions import Fraction as F
from math import gcd

import pytest

from maxcirc import (
    Circulant,
    Digraph,
    MaxMatrix,
    associated_digraph,
    circ_lambda,
    critical_structure,
    digraph_cyclicity,
    expand,
    is_completely_reducible,
    max_cycle_mean,
    solvable_congruence,
    strongly_connected_components,
    threshold_digraph,
)

from maxcirc import digraph

import bruteforce as bf

EX21_A = MaxMatrix.of(
    [
        ["1/2", 1, "1/5", 0],
        [1, "1/2", "1/5", 0],
        ["1/5", "1/5", "1/5", 0],
        [0, 0, 0, 1],
    ]
)


def random_circulant(rng, n, pool):
    while True:
        c = Circulant.of([rng.choice(pool) for _ in range(n)])
        if not c.is_zero():
            return c


def test_associated_digraph_examples():
    assert associated_digraph(MaxMatrix.zeros(3)).edges == frozenset()
    g = associated_digraph(expand(Circulant.of([0, 0, 1, "1/2"])))
    assert g.edges == frozenset(
        (i, j) for i in range(1, 5) for j in range(1, 5) if (j - i) % 4 in (2, 3)
    )
    assert associated_digraph(MaxMatrix.identity(3)).edges == frozenset(
        {(1, 1), (2, 2), (3, 3)}
    )


def test_max_cycle_mean_of_circulant_is_max_entry():
    cm = max_cycle_mean(expand(Circulant.of([0, 0, 1, "1/2"])))
    assert cm.value == 1


def test_max_cycle_mean_identity():
    cm = max_cycle_mean(MaxMatrix.identity(3))
    assert cm.value == 1
    assert cm.length == 1


def test_max_cycle_mean_example_matrix():
    cm = max_cycle_mean(EX21_A)
    assert cm.value == 1
    # weight/length pair must match the enumerated optimum up to cross-powers
    w, l = bf.best_cycle_mean(EX21_A.rows)
    assert cm.weight**l == w**cm.length


def test_max_cycle_mean_acyclic_is_none():
    a = MaxMatrix.of([[0, 1], [0, 0]])
    assert max_cycle_mean(a) is None


def test_max_cycle_mean_irrational_stays_symbolic():
    a = MaxMatrix.of([[0, 1], [2, 0]])
    cm = max_cycle_mean(a)
    assert cm.value is None  # the mean is the square root of 2
    assert (cm.weight, cm.length) == (F(2), 2)
    cs = critical_structure(a)
    assert cs.critical_edges == frozenset({(1, 2), (2, 1)})
    assert cs.global_cyclicity == 2


def test_max_cycle_mean_pair_matches_enumeration_random(monkeypatch):
    # The mean is the best Karp class; only the critical digraph needs a Kleene sum.
    def forbidden(a):
        raise AssertionError("max_cycle_mean ran a Kleene sum")

    monkeypatch.setattr(digraph, "kleene_sum", forbidden)
    rng = random.Random(3)
    pool = [0, 0, F(1, 3), F(1, 2), 1, F(5, 2)]
    fixed = [
        MaxMatrix.of([[0, 1], [0, 0]]),  # acyclic
        MaxMatrix.of([[0, 1], [2, 0]]),  # irrational mean sqrt(2)
        MaxMatrix.of([[1, 1], [0, 1]]),  # not completely reducible
    ]
    randoms = [
        MaxMatrix.of([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        for n in (rng.randint(1, 5) for _ in range(40))
    ]
    seen = set()
    for a in fixed + randoms:
        cm = max_cycle_mean(a)
        best = bf.best_cycle_mean(a.rows)
        if cm is None:
            assert best is None
            seen.add("acyclic")
            continue
        w, l = best
        # the returned pair and the enumerated optimum define the same mean
        assert cm.weight**l == w**cm.length
        if cm.value is not None:
            assert cm.value**cm.length == cm.weight
        else:
            seen.add("irrational")
        if not is_completely_reducible(associated_digraph(a)):
            seen.add("not admissible")
    assert seen == {"acyclic", "irrational", "not admissible"}


def test_critical_edges_are_the_edges_of_maximum_mean_simple_cycles():
    rng = random.Random(17)
    pool = [0, 0, F(1, 3), F(1, 2), 1, 2, F(5, 2)]
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        a = MaxMatrix.of([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        best = bf.best_cycle_mean(a.rows)
        if best is None:
            continue
        w, l = best
        # A closed walk of maximum mean splits into simple cycles of that mean.
        expected = {
            (u, cycle[(k + 1) % len(cycle)])
            for cycle in bf.simple_cycles(n, bf.edges_of(a.rows))
            if bf.cycle_weight(a.rows, cycle) ** l == w ** len(cycle)
            for k, u in enumerate(cycle)
        }
        assert critical_structure(a).critical_edges == expected
        checked += 1
    assert checked >= 30


def test_threshold_digraph_examples():
    a = expand(Circulant.of([0, 0, 1, "1/2"]))
    assert threshold_digraph(a, F(1)).edges == frozenset({(1, 3), (2, 4), (3, 1), (4, 2)})
    assert threshold_digraph(a, F(2)).edges == frozenset()
    assert threshold_digraph(a, F(1, 2)).edges == associated_digraph(a).edges
    with pytest.raises(ValueError):
        threshold_digraph(a, F(0))


def test_complete_reducibility():
    assert not is_completely_reducible(Digraph(2, frozenset({(1, 2)})))
    assert is_completely_reducible(associated_digraph(EX21_A))
    rng = random.Random(8)
    pool = [0, F(1, 2), 1]
    for _ in range(20):
        c = random_circulant(rng, rng.randint(1, 7), pool)
        assert is_completely_reducible(associated_digraph(expand(c)))


def test_critical_structure_of_running_example():
    cs = critical_structure(expand(Circulant.of([0, 0, 1, "1/2"])))
    assert cs.components == ((1, 3), (2, 4))
    assert cs.cyclicity_per_component == (2, 2)
    assert cs.global_cyclicity == 2


def test_critical_structure_cyclic_classes():
    cs = critical_structure(expand(Circulant.of([0, 1, 0, 1, 0, 0])))
    assert cs.components == ((1, 2, 3, 4, 5, 6),)
    assert cs.cyclicity_per_component == (2,)
    assert set(map(frozenset, cs.cyclic_classes[0])) == {
        frozenset({1, 3, 5}),
        frozenset({2, 4, 6}),
    }


def test_critical_structure_six_cycle():
    cs = critical_structure(expand(Circulant.of([0, 1, 0, 0, 0, 0])))
    assert cs.components == ((1, 2, 3, 4, 5, 6),)
    assert cs.global_cyclicity == 6
    assert all(len(cl) == 1 for cl in cs.cyclic_classes[0])


def test_critical_structure_rejects_zero():
    with pytest.raises(ValueError):
        critical_structure(MaxMatrix.zeros(3))


def test_critical_edges_match_threshold_for_circulants():
    rng = random.Random(12)
    pool = [0, F(1, 4), F(1, 2), F(3, 4), 1]
    for _ in range(25):
        c = random_circulant(rng, rng.randint(1, 7), pool)
        a = expand(c)
        cs = critical_structure(a)
        assert cs.critical_edges == threshold_digraph(a, circ_lambda(c)).edges


def test_critical_edge_set_is_completely_reducible():
    rng = random.Random(13)
    pool = [0, 0, F(1, 3), F(1, 2), 1, 2]
    for _ in range(25):
        n = rng.randint(1, 5)
        a = MaxMatrix.of([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
        if max_cycle_mean(a) is None:
            continue
        cs = critical_structure(a)
        assert is_completely_reducible(Digraph(n, cs.critical_edges))


def test_cyclic_classes_partition_and_step_consistently():
    rng = random.Random(14)
    pool = [0, F(1, 2), 1]
    for _ in range(25):
        c = random_circulant(rng, rng.randint(2, 7), pool)
        cs = critical_structure(expand(c))
        for comp, classes, sigma in zip(
            cs.components, cs.cyclic_classes, cs.cyclicity_per_component
        ):
            flat = sorted(v for cl in classes for v in cl)
            assert flat == list(comp)
            class_of = {v: k for k, cl in enumerate(classes) for v in cl}
            steps = set()
            for u, v in cs.critical_edges:
                if u in class_of and v in class_of:
                    steps.add((class_of[v] - class_of[u]) % sigma)
            assert len(steps) <= 1  # every edge advances classes by the same step


def test_every_cycle_meets_every_cyclic_class():
    rng = random.Random(15)
    pool = [0, F(1, 2), 1]
    for _ in range(12):
        c = random_circulant(rng, rng.randint(2, 6), pool)
        cs = critical_structure(expand(c))
        for comp, classes in zip(cs.components, cs.cyclic_classes):
            inside = {(u, v) for u, v in cs.critical_edges if u in comp and v in comp}
            for cycle in bf.simple_cycles(max(comp), inside):
                for cl in classes:
                    assert set(cycle) & set(cl)


def test_digraph_cyclicity_matches_cycle_enumeration():
    rng = random.Random(16)
    for _ in range(25):
        n = rng.randint(2, 6)
        comp_edges = set()
        nodes = tuple(range(1, n + 1))
        # random strongly connected graph: a Hamilton cycle plus chords
        for i in range(n):
            comp_edges.add((nodes[i], nodes[(i + 1) % n]))
        for _ in range(rng.randint(0, n)):
            comp_edges.add((rng.randint(1, n), rng.randint(1, n)))
        g = Digraph(n, frozenset(comp_edges))
        per, overall = digraph_cyclicity(g)
        brute = 0
        for cycle in bf.simple_cycles(n, comp_edges):
            brute = gcd(brute, len(cycle))
        assert overall == brute
        assert len(per) == 1


def test_digraph_cyclicity_rejects_non_completely_reducible():
    with pytest.raises(ValueError):
        digraph_cyclicity(Digraph(2, frozenset({(1, 2)})))
    with pytest.raises(ValueError):
        digraph_cyclicity(Digraph(2, frozenset()))


def test_scc_matches_reachability_oracle():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 7)
        edges = frozenset(
            (rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 2 * n))
        )
        got = sorted(strongly_connected_components(Digraph(n, edges)))
        want = sorted(bf.scc_partition(n, edges))
        assert got == want


def test_solvable_congruence_examples():
    assert solvable_congruence([3, 1], 6, 1)
    assert not solvable_congruence([2], 6, 3)
    assert solvable_congruence([2], 6, 0)
    assert solvable_congruence([], 5, 10)
    assert not solvable_congruence([], 5, 7)


def test_solvable_congruence_against_enumeration():
    import itertools

    for n in range(1, 9):
        for ps in [(2,), (3,), (3, 2), (5, 3), (4, 6, 2), (5, 3, 1)]:
            reachable = set()
            for xs in itertools.product(range(0, n + 1), repeat=len(ps)):
                reachable.add(sum(p * x for p, x in zip(ps, xs)) % n)
            for m in range(0, n):
                assert solvable_congruence(list(ps), n, m) == (m in reachable)
