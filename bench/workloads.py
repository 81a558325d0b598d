"""Seeded problem generators for the three benchmark workloads.

Problem ``i`` of a workload depends only on (workload, seed, i), so a run can
draw problems on demand and two runs with the same seed see the same problem
sequence.  Every problem is a JSON object in the CLI's interchange format plus
the CLI flags it runs with.

Kinds, sizes and cost classes follow a fixed rotation over the problem
index, and only the values are random.  A time-bounded run therefore always
sees the same mix, which keeps throughput and latency quantiles comparable
from seed to seed.  A cost class is an input property that decides most of a
problem's cost; the generator draws until the property holds, deciding it
with the benchmark's own checker code, never with maxcirc.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks

VALUES = tuple(Fraction(v) for v in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"))
OPEN_BRACKETS = ("[)", "(]", "()")
DEFAULT_FLAGS = {"mode": "min_transient", "trials": 200, "seed": 0}


def fmt(q: Fraction) -> int | str:
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _row(values) -> list:
    return [fmt(v) for v in values]


def _random_row(rng: random.Random, n: int) -> list:
    return _row(rng.choice(VALUES) for _ in range(n))


def _interval(rng: random.Random, open_share: float) -> dict:
    lo, hi = sorted((rng.choice(VALUES), rng.choice(VALUES)))
    brackets = "[]"
    # A degenerate interval must be closed on both sides.
    if lo < hi and rng.random() < open_share:
        brackets = rng.choice(OPEN_BRACKETS)
    return {"lower": fmt(lo), "upper": fmt(hi), "brackets": brackets}


def classify_problem(rng: random.Random, i: int) -> tuple[dict, dict]:
    """Interval circulant of size 6 with closed entries, box with ~20% open coordinates.

    The cost class is whether the instance is universally robust: then
    classify runs its full n^2 corner loop, otherwise the loop stops at the
    first corner vector outside a corner matrix's cone.  One problem in 26
    is universally robust, the share measured in the unstratified draw
    (192 of 5000 at n = 6).  They are problems 13, 39, 65, ...
    """
    robust = i % 26 == 13
    n = 6
    while True:
        problem = {
            "kind": "robustness_classify",
            "interval_circulant": [_interval(rng, 0.0) for _ in range(n)],
            "box": [_interval(rng, 0.2) for _ in range(n)],
        }
        if checks.universally_robust(problem) == robust:
            return problem, dict(DEFAULT_FLAGS)


def dominated_pair(rng: random.Random, n: int) -> tuple[list, list]:
    """Circulant rows a <= b (entrywise) with the same largest entry."""
    while True:
        b = [rng.choice(VALUES) for _ in range(n)]
        if any(b):
            break
    lam = max(b)
    tops = [t for t, v in enumerate(b) if v == lam]
    keep = set(rng.sample(tops, rng.randint(1, len(tops))))
    a = [v if t in keep else rng.choice([u for u in VALUES if u <= v]) for t, v in enumerate(b)]
    return a, b


def inclusion_problem(rng: random.Random, i: int) -> tuple[dict, dict]:
    """Dominated circulant pair of size 5; every fourth pair is swapped.

    The cost class is the period of the A side.  At period 1 its attraction
    system is empty and the check is cheap; otherwise the period is 5, as 5
    is prime.  In a rotation of eight, two of the six unswapped pairs and
    one of the two swapped pairs have an A side of period 1, the shares
    measured in the unstratified draw (36% and 46% of 4000 pairs).
    """
    n = 5
    swapped = i % 4 == 3
    trivial = i % 8 in (0, 4, 3)
    while True:
        a, b = dominated_pair(rng, n)
        if swapped:
            a, b = b, a
        if (checks.row_power_scan(a)[2] == 1) == trivial:
            break
    problem = {"kind": "inclusion_check", "a": {"circulant": _row(a)}, "b": {"circulant": _row(b)}}
    return problem, dict(DEFAULT_FLAGS)


def analysis_problem(rng: random.Random, i: int) -> tuple[dict, dict]:
    """Rotation of five slots: 2 circulant analyses, 2 circulant checks, 1 general check.

    Circulant analyses are n = 20, circulant attraction checks are n = 16
    and alternate the two exponent modes, and general matrices rotate
    n = 4, 6, 8.  At these sizes an analysis and a check cost about the
    same, so the median and the tail percentile fall inside one pool of
    four fifths of the problems rather than between two classes.
    """
    cycle, slot = divmod(i, 5)
    flags = dict(DEFAULT_FLAGS)
    if slot in (0, 2):
        return {"kind": "circulant_analysis", "circulant": _random_row(rng, 20)}, flags
    if slot in (1, 3):
        n = 16
        flags["mode"] = "min_transient" if slot == 1 else "exact_n2"
        problem = {"kind": "attraction_check", "circulant": _random_row(rng, n), "vector": _random_row(rng, n)}
        return problem, flags
    # General matrices are drawn unfiltered: some have an irrational
    # eigenvalue or are not admissible, and those outcomes stay in the mix.
    n = (4, 6, 8)[cycle % 3]
    matrix = [_random_row(rng, n) for _ in range(n)]
    problem = {"kind": "attraction_check", "matrix": matrix, "vector": _random_row(rng, n)}
    return problem, flags


GENERATORS = {
    "classify": classify_problem,
    "inclusion": inclusion_problem,
    "analysis": analysis_problem,
}


def make_problem(workload: str, seed: int, i: int) -> tuple[dict, dict]:
    """Problem ``i`` of ``workload`` under ``seed``, with its CLI flags."""
    rng = random.Random(f"{workload}:{seed}:{i}")
    return GENERATORS[workload](rng, i)
