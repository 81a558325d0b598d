"""Independent brute-force oracles used to check the library.

Everything here is written from definitions with naive algorithms (cycle
enumeration, reachability closures, orbit simulation, grid search) and does
not call into the library's computational paths, so the two sides of every
comparison are independent.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

F = Fraction


# --- raw matrix helpers ------------------------------------------------------


def expand_row(row):
    n = len(row)
    return tuple(tuple(row[(j - i) % n] for j in range(n)) for i in range(n))


def mul(a, b):
    n = len(a)
    return tuple(
        tuple(max(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def power_chain(a, t):
    """a^1 .. a^t by successive multiplication; returns the list (1-indexed)."""
    out = [None, a]
    for _ in range(t - 1):
        out.append(mul(out[-1], a))
    return out


def apply_mat(a, x):
    n = len(a)
    return tuple(max(a[i][j] * x[j] for j in range(n)) for i in range(n))


# --- cycles and cyclicity ----------------------------------------------------


def edges_of(a):
    n = len(a)
    return {(i + 1, j + 1) for i in range(n) for j in range(n) if a[i][j] > 0}


def simple_cycles(n, edges):
    """All simple cycles as node tuples starting at their smallest node."""
    succ = {v: sorted(j for (i, j) in edges if i == v) for v in range(1, n + 1)}
    cycles = []

    def search(start, v, path, on_path):
        for w in succ[v]:
            if w == start:
                cycles.append(tuple(path))
            elif w > start and w not in on_path:
                on_path.add(w)
                path.append(w)
                search(start, w, path, on_path)
                path.pop()
                on_path.discard(w)

    for s in range(1, n + 1):
        search(s, s, [s], {s})
    return cycles


def cycle_weight(a, cycle):
    w = F(1)
    for k, u in enumerate(cycle):
        w *= a[u - 1][cycle[(k + 1) % len(cycle)] - 1]
    return w


def best_cycle_mean(a):
    """Maximum cycle mean as a (weight, length) pair via enumeration; None if acyclic."""
    n = len(a)
    best = None
    for cycle in simple_cycles(n, edges_of(a)):
        w, l = cycle_weight(a, cycle), len(cycle)
        if best is None or w ** best[1] > best[0] ** l:
            best = (w, l)
    return best


def scc_partition(n, edges):
    """SCCs via the reachability closure (Warshall), independent of the library's SCC search."""
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(1, n + 1):
                    if row_k[j]:
                        row_i[j] = True
    comps = []
    assigned = set()
    for v in range(1, n + 1):
        if v in assigned:
            continue
        comp = {v} | {w for w in range(1, n + 1) if reach[v][w] and reach[w][v]}
        comps.append(tuple(sorted(comp)))
        assigned |= comp
    return comps


def component_cyclicity_brute(n, edges, comp):
    """gcd of the lengths of all simple cycles inside one component."""
    inside = {(i, j) for (i, j) in edges if i in comp and j in comp}
    g = 0
    for cycle in simple_cycles(n, inside):
        g = gcd(g, len(cycle))
    return g


# --- membership and feasibility ------------------------------------------------


def eigenvalue(a):
    """The maximum cycle mean as a Fraction; None when it is irrational or A is acyclic."""
    best = best_cycle_mean(a)
    if best is None:
        return None
    w, l = best
    root = F(round(w.numerator ** (1 / l)), round(w.denominator ** (1 / l)))
    return root if root**l == w else None


def orbit_member(a, x, bound=None, lam=None):
    """Whether the orbit of x hits the eigencone, straight from the definition.

    ``lam`` is the eigenvalue of A; it defaults to the largest entry, which is
    the eigenvalue of every circulant.
    """
    n = len(a)
    if lam is None:
        lam = max(v for row in a for v in row)
    if lam == 0:
        return True
    if bound is None:
        bound = (n - 1) ** 2 + 1 + n + 2
    y = tuple(x)
    for _ in range(bound + 1):
        if apply_mat(a, y) == tuple(lam * v for v in y):
            return True
        y = apply_mat(a, y)
    return False


def holds(equations, x):
    """Evaluate a list of ((l...), (r...)) coefficient pairs at x."""
    return all(
        max(c * v for c, v in zip(l, x)) == max(c * v for c, v in zip(r, x))
        for l, r in equations
    )


def grid_vectors(values, n):
    return itertools.product(values, repeat=n)


def grid_feasible(equations, per_coordinate_candidates):
    """Exhaustive witness search over explicit per-coordinate candidate lists."""
    for combo in itertools.product(*per_coordinate_candidates):
        if holds(equations, combo):
            return combo
    return None


def minimal_transient_period(a, lam, bound):
    """Minimal (transient, period) of the normalized powers, by definition scan.

    Materializes a^1..a^bound, normalizes by the rational ``lam``, and finds
    the least period of the tail followed by the least onset, directly from
    the definition of ultimate periodicity.
    """
    chain = power_chain(a, bound)
    norm = [None] + [
        tuple(tuple(v / lam**t for v in row) for row in chain[t]) for t in range(1, bound + 1)
    ]
    probe = max(bound // 2, 1)
    period = None
    for p in range(1, bound - probe + 1):
        if norm[probe] == norm[probe + p]:
            period = p
            break
    assert period is not None, "oracle bound too small to see the periodic regime"
    transient = probe
    while transient > 1 and norm[transient - 1] == norm[transient - 1 + period]:
        transient -= 1
    return transient, period


def span_greatest(generators, x):
    """Greatest element of the max-span of ``generators`` at or below ``x``.

    Each generator enters scaled by the largest factor that keeps it below x.
    """
    best = [F(0)] * len(x)
    for g in generators:
        c = min(F(v) / w for v, w in zip(x, g) if w)
        best = [max(b, c * w) for b, w in zip(best, g)]
    return tuple(best)


# --- two-sided systems: the rational residuation sweep ---------------------------
#
# A plain-Fraction copy of the library's greatest-solution sweep and box
# feasibility decision, on raw tuples.  The library runs the same algorithm on
# integer-scaled equations; the two must agree value for value, including
# which inputs exhaust the iteration cap.  Intervals are
# (lower, upper, lower_closed, upper_closed) tuples.


class SweepCapExceeded(Exception):
    """The oracle sweep did not stabilize within the iteration cap."""


def sweep_cap(n, equations):
    distinct = {c for l, r in equations for c in (*l, *r) if c > 0}
    return max(10 * n * max(len(distinct), 1), 60)


def side(coeffs, x):
    return max(c * v for c, v in zip(coeffs, x))


def residuation_round(equations, x):
    """One Jacobi round: every bound comes from the old iterate ``x``."""
    new = list(x)
    for l, r in equations:
        t = min(side(l, x), side(r, x))
        for coeffs in (l, r):
            for j, c in enumerate(coeffs):
                if c > 0 and t / c < new[j]:
                    new[j] = t / c
    return new


def collapsed(prev, new):
    """new <= c * prev for one factor c < 1 (zero coordinates must stay zero)."""
    for p, v in zip(prev, new):
        if p == 0:
            assert v == 0, "residuation round increased a zero coordinate"
        elif v >= p:
            return False
    return True


def _run_sweep(n, equations, upper, cap, lower=None):
    """Iterate to a fixpoint: returns the iterate, None when below ``lower``,
    and the zero vector when an iterate collapses against ``upper``.

    Raises SweepCapExceeded when no fixpoint is reached within ``cap`` rounds.
    """
    x = list(upper)
    for _ in range(cap):
        new = residuation_round(equations, x)
        if lower is not None and any(v < lo for v, lo in zip(new, lower)):
            return None
        if new == x:
            return tuple(x)
        if collapsed(upper, new):
            return (F(0),) * n
        x = new
    raise SweepCapExceeded


def greatest_solution_sweep(n, equations, upper, cap=None):
    """Greatest solution at or below ``upper`` by the rational sweep."""
    if not equations:
        return tuple(upper)
    return _run_sweep(n, equations, upper, sweep_cap(n, equations) if cap is None else cap)


def interval_contains(iv, v):
    lo, hi, lo_closed, hi_closed = iv
    return (lo < v or (v == lo and lo_closed)) and (v < hi or (v == hi and hi_closed))


def enumeration_pool(n, equations, intervals):
    """Bounds times up to n-1 coefficient ratios, or None past 120 values."""
    coeffs = sorted({c for l, r in equations for c in (*l, *r) if c > 0})
    bounds = sorted({b for lo, hi, _, _ in intervals for b in (lo, hi) if b > 0})
    if not bounds:
        return [F(0)]
    ratios = sorted({a / b for a in coeffs for b in coeffs}) if coeffs else [F(1)]
    lo = min(iv[0] for iv in intervals)
    hi = max(iv[1] for iv in intervals)
    values = set(bounds)
    frontier = set(bounds)
    for _ in range(max(n - 1, 0)):
        nxt = {v * r for v in frontier for r in ratios if lo <= v * r <= hi} - values
        values |= nxt
        frontier = nxt
        if len(values) > 120:
            return None
    values.add(F(0))
    return sorted(values)


def enumeration_search(n, equations, intervals):
    """(complete, witness) over the pool, in the library's search order."""
    values = enumeration_pool(n, equations, intervals)
    if values is None:
        return False, None
    per_coord = []
    total = 1
    for iv in intervals:
        cand = [v for v in values if interval_contains(iv, v)]
        if not cand:
            return True, None
        per_coord.append(cand)
        total *= len(cand)
        if total > 400_000:
            return False, None
    return True, grid_feasible(equations, per_coord)


def feasible_in_box_sweep(n, equations, intervals):
    """(status, witness) of the box feasibility decision by the rational sweep.

    Raises SweepCapExceeded where the cap is hit and the enumeration is not
    attempted.
    """
    if not equations:
        return "feasible", tuple(
            lo if lo_closed else (lo + hi) / 2 for lo, hi, lo_closed, _ in intervals
        )
    lower = [iv[0] for iv in intervals]
    try:
        g = _run_sweep(n, equations, [iv[1] for iv in intervals], sweep_cap(n, equations), lower)
    except SweepCapExceeded:
        complete, witness = enumeration_search(n, equations, intervals)
        if witness is not None:
            return "feasible", witness
        if not complete:
            raise
        closed = all(iv[2] and iv[3] for iv in intervals)
        return ("infeasible" if closed else "unknown_strict_boundary"), None
    if g is None:
        return "infeasible", None
    for v, (lo, _, lo_closed, _) in zip(g, intervals):
        if v < lo or (v == lo and not lo_closed):
            return "infeasible", None
    if not any(not hi_closed and v == hi for v, (_, hi, _, hi_closed) in zip(g, intervals)):
        return "feasible", g
    c_min = max([lo / v for v, (lo, _, _, _) in zip(g, intervals) if lo > 0], default=F(0))
    if c_min < 1:
        scaled = tuple((c_min + 1) / 2 * v for v in g)
        if all(interval_contains(iv, v) for iv, v in zip(intervals, scaled)):
            return "feasible", scaled
    _, witness = enumeration_search(n, equations, intervals)
    if witness is not None:
        return "feasible", witness
    return "unknown_strict_boundary", None


# --- attraction-cone inclusion: the sampler on plain Fractions ------------------
#
# The library's inclusion sampler, step for step, on raw tuples: the same random
# draws in the same order, greatest solutions by the rational sweep above, and
# membership by evaluating the defining equations.  The library runs it on
# integer numerators and tests each gcd-reduced ray against the second cone
# anew; the verdicts must be equal, counterexample included.


def period_window(a, lam):
    """Columns of the entrywise max of (A/lam)^T .. (A/lam)^(T+p-1), zero ones dropped."""
    n = len(a)
    bound = 2 * ((n - 1) ** 2 + 1 + n)
    transient, period = minimal_transient_period(a, lam, bound)
    chain = power_chain(a, transient + period - 1)
    window = [
        [max(chain[t][i][j] / lam**t for t in range(transient, transient + period)) for j in range(n)]
        for i in range(n)
    ]
    columns = [tuple(window[i][j] for i in range(n)) for j in range(n)]
    return [col for col in columns if any(col)]


def inclusion_sample(a, equations_a, equations_b, trials, seed):
    """(consistent, counterexample, trials_run, members_tested) of the sampled check.

    ``a`` is the raw matrix of the first operand, whose eigenvalue must be its
    largest entry (true of every circulant); ``equations_a`` and
    ``equations_b`` define the two attraction cones, None for the whole space
    (a zero matrix).
    """
    n = len(a)
    members = []
    tested = 0

    def inside(equations, x):
        return equations is None or holds(equations, x)

    def probe(x):
        nonlocal tested
        if not any(x) or not inside(equations_a, x):
            return None
        tested += 1
        if not inside(equations_b, x):
            return x
        members.append(x)
        return None

    if equations_a is None:
        for i in range(n):
            bad = probe(tuple(F(int(i == j)) for j in range(n)))
            if bad is not None:
                return False, bad, 0, tested
        return True, None, 0, tested

    lam = max(v for row in a for v in row)
    w, l = best_cycle_mean(a)
    assert w == lam**l, "the oracle needs the eigenvalue to be the largest entry"
    for v in period_window(a, lam):
        bad = probe(v)
        if bad is not None:
            return False, bad, 0, tested

    rng = random.Random(seed)
    entries = sorted({v for row in a for v in row if v > 0})
    pool = sorted({x / y for x in entries for y in entries} | {F(1)})
    for trial in range(trials):
        upper = tuple(rng.choice(pool) for _ in range(n))
        try:
            g = greatest_solution_sweep(n, equations_a, upper)
        except SweepCapExceeded:
            continue
        candidates = [g]
        if len(members) >= 2:
            u, v = rng.choice(members), rng.choice(members)
            cu, cv = rng.choice(pool), rng.choice(pool)
            candidates.append(tuple(max(cu * x, cv * y) for x, y in zip(u, v)))
        for x in candidates:
            bad = probe(x)
            if bad is not None:
                return False, bad, trial + 1, tested
    return True, None, trials, tested
