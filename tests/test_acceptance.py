"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic, so every comparison below is exact
equality (tolerance zero).  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest

from maxcirc import (
    Box,
    Circulant,
    IntervalCirculant,
    MaxMatrix,
    MaxVector,
    ScalarInterval,
    TwoSidedSystem,
    attraction_system,
    circ_lambda,
    circ_spectral,
    classify,
    expand,
    feasible_in_box,
    greatest_solution_leq,
    implication_violations,
    in_attraction_cone,
    is_kleene_star,
    mat_power,
    mat_vec,
    reduced_attraction_system,
    satisfies,
    transient_and_period,
)
from maxcirc.twosided import IterationCapExceeded

import bruteforce as bf


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


EX21_A = MaxMatrix.of(
    [["1/2", 1, "1/5", 0], [1, "1/2", "1/5", 0], ["1/5", "1/5", "1/5", 0], [0, 0, 0, 1]]
)
EX21_B = MaxMatrix.of(
    [["1/2", 1, "1/5", 0], [1, "1/2", "3/10", 0], ["2/5", "2/5", "2/5", 0], [0, 0, 0, 1]]
)


def test_criterion_01_four_by_four_reproduction():
    c = Circulant.of([0, 0, 1, "1/2"])
    a = expand(c)
    sp = circ_spectral(c)
    info = transient_and_period(a)
    x = MaxVector.of(["1/2", 1, "1/4", 1])
    checks = [
        circ_lambda(c) == 1,
        sp.components == ((1, 3), (2, 4)),
        sp.period == 2,
        info.transient == 3,
        mat_power(a, 2) == expand(Circulant.of([1, "1/2", "1/4", 0])),
        mat_power(a, 16) == expand(Circulant.of([1, "1/2", "1/4", "1/8"])),
        in_attraction_cone(c, x),
        mat_vec(a, x) != x,
    ]
    report(1, all(checks), "4x4 circulant: spectrum, powers, membership")
    assert all(checks)


def test_criterion_02_general_pair_reproduction():
    w1 = MaxVector.of([1, 1, 5, 1])
    w2 = MaxVector.of(["1/2", 1, "10/3", 1])
    info_a = transient_and_period(EX21_A)
    info_b = transient_and_period(EX21_B)
    checks = [
        in_attraction_cone(EX21_A, w1),
        not in_attraction_cone(EX21_B, w1),
        in_attraction_cone(EX21_B, w2),
        not in_attraction_cone(EX21_A, w2),
        info_a.period == 2,
        info_b.period == 2,
        mat_power(EX21_A, 2) == mat_power(EX21_A, 4),
        mat_power(EX21_B, 3) == mat_power(EX21_B, 5),
    ]
    report(2, all(checks), "completely reducible pair: memberships and periods")
    assert all(checks)


def test_criterion_03_zero_one_pair_reproduction():
    ca = Circulant.of([0, 1, 0, 0, 0, 0])
    cb = Circulant.of([0, 1, 0, 1, 0, 0])
    info_a = transient_and_period(expand(ca))
    info_b = transient_and_period(expand(cb))
    grid = [F(0), F(1), F(2)]
    sys_a = reduced_attraction_system(ca)
    sys_b = reduced_attraction_system(cb)
    systems_ok = True
    for combo in itertools.product(grid, repeat=6):
        x = MaxVector(combo)
        in_a = satisfies(sys_a, x)
        want_a = len(set(combo)) == 1
        want_b = max(combo[0], combo[2], combo[4]) == max(combo[1], combo[3], combo[5])
        if in_a != want_a or satisfies(sys_b, x) != want_b or (in_a and not want_b):
            systems_ok = False
            break
    # B = Circ(0,1,0,1,0,0) has steps {1, 3} on Z_6 and eigenvalue 1; the
    # supports of B^1..B^5 are {1,3}, {0,2,4}, {1,3,5}, {0,2,4}, {1,3,5}.
    # So B^2 == B^4 while B^1 != B^3: the least onset of 2-periodicity is 2.
    # The convention is pinned by A's (transient, period) == (1, 6) above,
    # and test_periodicity's two-step case and the definition-scan oracle
    # below agree.  A stated transient of 3 holds only as an upper bound on
    # the onset (B^3 == B^5), not as the minimal transient.
    checks = [
        (info_a.transient, info_a.period) == (1, 6),
        (info_b.transient, info_b.period) == (2, 2),
        mat_power(expand(cb), 5) == mat_power(expand(cb), 3),
        systems_ok,
    ]
    report(3, all(checks), "0-1 pair: systems, transients and periods")
    assert all(checks)
    assert bf.minimal_transient_period(expand(cb).rows, F(1), 16) == (2, info_b.period)
    assert info_b.transient == 2


def test_criterion_04_cyclicity_formula_sweep():
    cases = 0
    for n in range(2, 13):
        for r in range(1, n):
            for subset in itertools.combinations(range(1, n), r):
                row = [0] * n
                for p in subset:
                    row[p] = 1
                sp = circ_spectral(Circulant.of(row))
                f1, f2, f3 = sp.period_formulas
                assert f1 == f2 == f3 == sp.period
                # independent graph cyclicity: potentials over the edge set
                # {i -> i+p : p in subset}, gcd of cycle defects
                sigma = _cyclicity_by_potentials(n, subset)
                assert sigma == sp.period, (n, subset)
                cases += 1
    report(4, True, f"three gcd expressions == graph cyclicity on {cases} circulants")


def _cyclicity_by_potentials(n: int, subset) -> int:
    # independent implementation on the shift structure: nodes 0..n-1,
    # edges i -> (i+p) % n for each offset p; BFS the underlying undirected
    # graph, then gcd of (level[u] + 1 - level[v]) over all edges of each
    # component, combined across components by lcm
    edges = [(i, (i + p) % n) for i in range(n) for p in subset]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append((v, 1))
        adj[v].append((u, -1))
    level: dict[int, int] = {}
    comp_of: dict[int, int] = {}
    for root in range(n):
        if root in level:
            continue
        level[root] = 0
        comp_of[root] = root
        queue = [root]
        while queue:
            u = queue.pop()
            for v, step in adj[u]:
                if v not in level:
                    level[v] = level[u] + step
                    comp_of[v] = root
                    queue.append(v)
    defects: dict[int, int] = {}
    for u, v in edges:
        root = comp_of[u]
        defects[root] = gcd(defects.get(root, 0), level[u] + 1 - level[v])
    overall = 1
    for g in defects.values():
        sigma = abs(g)
        overall = overall * sigma // gcd(overall, sigma)
    return overall


def test_criterion_05_kleene_star_property():
    rng = random.Random(1005)
    pool = [0, F(1, 5), F(1, 3), F(1, 2), F(4, 5), 1]
    count = 0
    while count < 500:
        n = rng.randint(2, 8)
        row = [rng.choice(pool) for _ in range(n)]
        c = Circulant.of(row)
        if c.is_zero():
            continue
        scaled = expand(c).scale(1 / circ_lambda(c))
        assert is_kleene_star(mat_power(scaled, n * n))
        count += 1
    report(5, True, f"(C/lambda)^(n^2) is a Kleene star on {count} random circulants")


def _dominated_pair(rng, n, pool):
    """Random circulants a <= b with equal eigenvalue."""
    while True:
        b = Circulant.of([rng.choice(pool) for _ in range(n)])
        if not b.is_zero():
            break
    lam = circ_lambda(b)
    tops = [t for t, v in enumerate(b.row) if v == lam]
    keep = set(rng.sample(tops, rng.randint(1, len(tops))))
    row = []
    for t, v in enumerate(b.row):
        if t in keep:
            row.append(v)
        else:
            row.append(rng.choice([u for u in pool if u <= v]))
    return Circulant.of(row), b


def test_criterion_06_attraction_inclusion_property():
    rng = random.Random(1006)
    pool = [0, F(1, 4), F(1, 2), F(3, 4), 1]
    pairs = 0
    while pairs < 500:
        n = rng.randint(2, 6)
        a, b = _dominated_pair(rng, n, pool)
        sys_a = reduced_attraction_system(a)
        sys_b = reduced_attraction_system(b)
        entries = sorted({v for v in a.row if v > 0})
        ratios = sorted({x / y for x in entries for y in entries} | {F(1), F(2)})
        members = []
        while len(members) < 50:
            if len(members) >= 2 and rng.random() < 0.5:
                u = rng.choice(members)
                v = rng.choice(members)
                x = u.scale(rng.choice(ratios)).max_with(v.scale(rng.choice(ratios)))
            else:
                upper = MaxVector(tuple(rng.choice(ratios) for _ in range(n)))
                try:
                    x = greatest_solution_leq(sys_a, upper)
                except IterationCapExceeded:
                    # the constant vector is an eigenvector of any circulant
                    x = MaxVector((min(upper.entries),) * n)
            assert satisfies(sys_a, x)
            members.append(x)
        for x in members:
            assert satisfies(sys_b, x), (a, b, x)
        pairs += 1
    report(6, True, f"50 members of the smaller cone inside the larger, {pairs} pairs")


def test_criterion_07_transient_bound():
    checked = 0
    for n in range(1, 9):
        for bits in itertools.product([0, 1], repeat=n):
            if not any(bits):
                continue
            info = transient_and_period(Circulant.of(bits))
            assert info.transient <= (n - 1) ** 2 + 1
            checked += 1
    rng = random.Random(1007)
    pool = [0, F(1, 4), F(1, 3), F(1, 2), F(2, 3), 1]
    randoms = 0
    while randoms < 500:
        n = rng.randint(2, 8)
        c = Circulant.of([rng.choice(pool) for _ in range(n)])
        if c.is_zero():
            continue
        info = transient_and_period(c)
        assert info.transient <= (n - 1) ** 2 + 1
        randoms += 1
    report(7, True, f"transient bound held on {checked} exhaustive + {randoms} random")


GRID3 = (F(0), F(1, 2), F(1))
_member_cache: dict = {}


def _oracle_member(row: tuple, vec: tuple) -> bool:
    key = (row, vec)
    if key not in _member_cache:
        _member_cache[key] = bf.orbit_member(bf.expand_row(row), vec)
    return _member_cache[key]


def _oracle_classify(ic: IntervalCirculant, box: Box) -> dict[str, bool]:
    mats = [
        tuple(combo)
        for combo in itertools.product(
            *[[g for g in GRID3 if iv.contains(g)] for iv in ic.intervals]
        )
    ]
    vecs = [
        tuple(combo)
        for combo in itertools.product(
            *[[g for g in GRID3 if iv.contains(g)] for iv in box.intervals]
        )
    ]
    member = {(m, v): _oracle_member(m, v) for m in mats for v in vecs}
    return {
        "possibly_box_robust": any(all(member[(m, v)] for v in vecs) for m in mats),
        "universally_box_robust": all(member[(m, v)] for m in mats for v in vecs),
        "tolerance_box_robust": all(any(member[(m, v)] for v in vecs) for m in mats),
        "weak_tolerance_box_robust": any(member[(m, v)] for m in mats for v in vecs),
        "box_possibly_robust": any(all(member[(m, v)] for m in mats) for v in vecs),
        "box_tolerance_robust": all(any(member[(m, v)] for m in mats) for v in vecs),
    }


def _random_grid_instance(rng):
    n = rng.randint(2, 4)
    ics, boxes = [], []
    for _ in range(n):
        lo, hi = sorted((rng.choice(GRID3), rng.choice(GRID3)))
        ics.append(ScalarInterval.of(lo, hi))
        lo, hi = sorted((rng.choice(GRID3), rng.choice(GRID3)))
        boxes.append(ScalarInterval.of(lo, hi))
    return IntervalCirculant(tuple(ics)), Box(tuple(boxes))


_classified_grid_instances: list = []


def _criterion8_instances():
    if not _classified_grid_instances:
        rng = random.Random(1008)
        for _ in range(200):
            ic, box = _random_grid_instance(rng)
            _classified_grid_instances.append((ic, box, classify(ic, box)))
    return _classified_grid_instances


def test_criterion_08_classifier_matches_brute_force():
    for ic, box, reportd in _criterion8_instances():
        got = {name: v.status for name, v in reportd.as_dict().items()}
        assert all(status in ("yes", "no") for status in got.values()), got
        want = _oracle_classify(ic, box)
        for name, flag in want.items():
            assert got[name] == ("yes" if flag else "no"), (ic, box, name, got, want)
    report(8, True, "six classifiers match grid quantifier evaluation on 200 instances")


def test_criterion_09_solver_soundness():
    rng = random.Random(1009)
    coeff_pool = [0, F(1, 2), 1, 2]
    bound_pool = [0, F(1, 2), 1]
    candidates = [F(0)] + [F(2) ** k for k in range(-9, 3)]
    feasible_count = infeasible_count = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        eqs = [
            (
                tuple(rng.choice(coeff_pool) for _ in range(n)),
                tuple(rng.choice(coeff_pool) for _ in range(n)),
            )
            for _ in range(rng.randint(1, 3))
        ]
        system = TwoSidedSystem.of(n, eqs)
        ivs = []
        for _ in range(n):
            lo, hi = sorted((rng.choice(bound_pool), rng.choice(bound_pool)))
            ivs.append(ScalarInterval.of(lo, hi))
        box = Box(tuple(ivs))
        res = feasible_in_box(system, box)
        if res.status == "feasible":
            assert satisfies(system, res.witness)
            assert box.contains(res.witness)
            feasible_count += 1
        else:
            assert res.status == "infeasible"
            per_coord = [[v for v in candidates if iv.contains(v)] for iv in box.intervals]
            eq_pairs = [(l.entries, r.entries) for l, r in system.equations]
            assert bf.grid_feasible(eq_pairs, per_coord) is None
            infeasible_count += 1
    report(
        9,
        True,
        f"{feasible_count} witnesses verified, {infeasible_count} infeasibilities confirmed",
    )


def test_criterion_10_implication_lattice():
    for _, _, rep in _criterion8_instances():
        assert implication_violations(rep) == []
    rng = random.Random(1010)
    brackets = ["[]", "[]", "[)", "(]", "()"]
    extra = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        ics, boxes = [], []
        for _ in range(n):
            lo, hi = sorted((rng.choice(GRID3), rng.choice(GRID3)))
            token = "[]" if lo == hi else rng.choice(brackets)
            ics.append(ScalarInterval.of(lo, hi, token))
            lo, hi = sorted((rng.choice(GRID3), rng.choice(GRID3)))
            token = "[]" if lo == hi else rng.choice(brackets)
            boxes.append(ScalarInterval.of(lo, hi, token))
        rep = classify(IntervalCirculant(tuple(ics)), Box(tuple(boxes)))
        assert implication_violations(rep) == []
        extra += 1
    report(
        10,
        True,
        f"lattice held on criterion-8 instances plus {extra} mixed-bracket instances",
    )
