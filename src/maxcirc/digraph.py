"""Digraphs associated with max-times matrices and their spectral structure.

Covers the maximum cycle (geometric) mean, threshold digraphs, complete
reducibility, the critical subgraph with its strongly connected components,
per-component cyclicity and cyclic classes, and a small number-theoretic
congruence helper.

Nodes are 1-based throughout this module, matching the usual matrix-index
convention; matrix entry access stays 0-based internally.

Cycle means are never materialized as irrational k-th roots.  A candidate
mean is carried as a (weight, length) pair and two candidates are compared
root-free by cross-powering: w1^(1/l1) <= w2^(1/l2) iff w1^l2 <= w2^l1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .core import (
    ONE,
    ZERO,
    InternalError,
    MaxMatrix,
    Record,
    exact_kth_root,
    kleene_sum,
)
from .core import mat_mul  # noqa: F401  bench/test_bench.py checks the tracer patches it here


class Digraph(Record):
    """Directed graph on nodes 1..node_count with an explicit edge set."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("digraph needs at least one node")
        for i, j in self.edges:
            if not (1 <= i <= self.node_count and 1 <= j <= self.node_count):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.node_count}")


def associated_digraph(a: MaxMatrix) -> Digraph:
    """Digraph with an edge (i,j) exactly where a[i,j] > 0."""
    edges = frozenset(
        (i + 1, j + 1) for i in range(a.n) for j in range(a.n) if a.rows[i][j] > 0
    )
    return Digraph(a.n, edges)


def threshold_digraph(a: MaxMatrix, h: Fraction) -> Digraph:
    """Digraph keeping exactly the edges whose weight is at least ``h`` (h > 0)."""
    if h <= 0:
        raise ValueError("threshold must be positive")
    edges = frozenset(
        (i + 1, j + 1) for i in range(a.n) for j in range(a.n) if a.rows[i][j] >= h
    )
    return Digraph(a.n, edges)


def _successor_lists(g: Digraph) -> list[list[int]]:
    """``succ[v]`` lists the heads of the edges leaving node v; ``succ[0]`` stays empty."""
    succ: list[list[int]] = [[] for _ in range(g.node_count + 1)]
    for u, v in g.edges:
        succ[u].append(v)
    return succ


def _tarjan(succ: list[list[int]]) -> list[tuple[int, ...]]:
    """SCCs of the digraph with successor lists ``succ``, as ``strongly_connected_components`` lists them.

    One iterative pass of Tarjan's algorithm, linear in nodes and edges: a
    node closes a component when no node it reaches lies lower on the
    depth-first stack.  ``index`` numbers the nodes in visiting order from
    1 (0 is unvisited), and ``low`` is the least number of a node on the
    stack that each one reaches.
    """
    size = len(succ)
    index = [0] * size
    low = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    visited = 0
    for root in range(1, size):
        if index[root]:
            continue
        # Depth-first frames: a node and the successors it has still to look at.
        work: list[tuple[int, Iterator[int]]] = [(root, iter(succ[root]))]
        visited += 1
        index[root] = low[root] = visited
        stack.append(root)
        on_stack[root] = True
        while work:
            v, rest = work[-1]
            for w in rest:
                if not index[w]:
                    visited += 1
                    index[w] = low[w] = visited
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    comps.append(tuple(sorted(comp)))
    return sorted(comps)


def strongly_connected_components(g: Digraph) -> list[tuple[int, ...]]:
    """SCCs as sorted node tuples, listed in increasing order of smallest node.

    One iterative pass of Tarjan's algorithm over successor lists, linear in
    nodes and edges.
    """
    return _tarjan(_successor_lists(g))


def _edges_within(g: Digraph, comps: list[tuple[int, ...]]) -> bool:
    """Whether every edge of ``g`` joins two nodes of one of its SCCs ``comps``."""
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    return all(comp_of[i] == comp_of[j] for i, j in g.edges)


def is_completely_reducible(g: Digraph) -> bool:
    """True iff every edge lies on a cycle, i.e. joins two nodes of one SCC."""
    return _edges_within(g, strongly_connected_components(g))


# --- maximum cycle mean ----------------------------------------------------


class CycleMean(Record):
    """A maximum cycle mean, carried as a (weight, length) pair.

    The geometric mean is weight^(1/length).  ``value`` is that mean when it
    is an exact rational, and None otherwise (the pair itself stays the
    exact carrier).
    """

    weight: Fraction
    length: int

    @property
    def value(self) -> Fraction | None:
        return exact_kth_root(self.weight, self.length)


def _pair_lt(a: tuple[Fraction, int], b: tuple[Fraction, int]) -> bool:
    """Cross-powered strict comparison of geometric means w^(1/l)."""
    wa, la = a
    wb, lb = b
    return wa**lb < wb**la


def pair_eq(a: tuple[Fraction, int], b: tuple[Fraction, int]) -> bool:
    """Cross-powered equality of geometric means."""
    wa, la = a
    wb, lb = b
    return wa**lb == wb**la


def _karp_class_in_scc(a: MaxMatrix, nodes: tuple[int, ...]) -> tuple[Fraction, int] | None:
    """Maximum cycle mean of the subgraph induced by one SCC, as a (w, l) pair.

    Karp's minimax over walk tables, run inside the strongly connected
    component; returns None when the component has no edge (no cycle).
    ``d[k][v]`` is the greatest weight of a walk of k arcs from the first
    node to v, and 0 where there is none: every arc weight is positive, so
    a real walk never weighs 0.
    """
    idx = {v: k for k, v in enumerate(nodes)}
    m = len(nodes)
    in_edges: list[list[tuple[int, Fraction]]] = [[] for _ in range(m)]
    for u in nodes:
        for v in nodes:
            w = a.rows[u - 1][v - 1]
            if w > 0:
                in_edges[idx[v]].append((idx[u], w))
    if not any(in_edges):
        return None
    d = [[ONE] + [ZERO] * (m - 1)]
    for _ in range(m):
        prev = d[-1]
        d.append([max((prev[u] * w for u, w in edges), default=ZERO) for edges in in_edges])
    best_class: tuple[Fraction, int] | None = None
    for v, dn in enumerate(d[m]):
        if not dn:
            continue
        worst: tuple[Fraction, int] | None = None
        for k in range(m):
            if d[k][v]:
                cand = (dn / d[k][v], m - k)
                if worst is None or _pair_lt(cand, worst):
                    worst = cand
        if worst is not None and (best_class is None or _pair_lt(best_class, worst)):
            best_class = worst
    if best_class is None:
        raise InternalError("strongly connected component with edges but no Karp value")
    return best_class


def component_cycle_means(a: MaxMatrix) -> tuple[bool, list[tuple[Fraction, int]]]:
    """Complete reducibility and the cycle-mean class of each cyclic SCC.

    One SCC pass over the associated digraph, then Karp inside each SCC
    that has a cycle; the (w, l) classes are listed in SCC order.
    """
    g = associated_digraph(a)
    comps = strongly_connected_components(g)
    classes = [cls for comp in comps if (cls := _karp_class_in_scc(a, comp)) is not None]
    return _edges_within(g, comps), classes


def max_cycle_mean(a: MaxMatrix) -> CycleMean | None:
    """Greatest geometric cycle mean: the best class of ``component_cycle_means``.

    ``None`` corresponds to the caller convention that an acyclic matrix has
    greatest eigenvalue 0.
    """
    best: tuple[Fraction, int] | None = None
    for cls in component_cycle_means(a)[1]:
        if best is None or _pair_lt(best, cls):
            best = cls
    return None if best is None else CycleMean(*best)


# --- critical structure ----------------------------------------------------


class CriticalStructure(Record):
    """Critical nodes/edges with components, cyclic classes and cyclicities."""

    critical_nodes: frozenset[int]
    critical_edges: frozenset[tuple[int, int]]
    components: tuple[tuple[int, ...], ...]
    cyclic_classes: tuple[tuple[tuple[int, ...], ...], ...]
    cyclicity_per_component: tuple[int, ...]
    global_cyclicity: int


def _cyclic_components(g: Digraph) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """(component, cyclicity, levels) for each SCC of ``g`` with an edge.

    One pass over successor lists: Tarjan's pass gives the SCCs, then a
    breadth-first search from each component's smallest node levels its
    nodes by distance.  Along any cycle the values level[u] + 1 - level[v]
    of its edges (u, v) sum to its length.  Conversely each value is the
    difference of the lengths of two closed walks, root -> u -> v -> root
    and root -> v -> root, so the gcd of the values over the component's
    edges is the gcd of its cycle lengths: the cyclicity.  The cyclic
    classes are the level residues modulo it.  ``levels`` is indexed
    by node and is shared by the components.

    Rejects a digraph that is not completely reducible, for which cyclicity
    is undefined.
    """
    succ = _successor_lists(g)
    comps = _tarjan(succ)
    comp_of = [0] * len(succ)
    for k, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = k
    level = [-1] * len(succ)
    out = []
    for k, comp in enumerate(comps):
        level[comp[0]] = 0
        queue = [comp[0]]
        sigma = 0
        for u in queue:
            for v in succ[u]:
                if comp_of[v] != k:
                    raise ValueError("cyclicity undefined: digraph is not completely reducible")
                if level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
                else:
                    sigma = math.gcd(sigma, level[u] + 1 - level[v])
        if len(queue) != len(comp):
            raise InternalError("critical component not connected")
        if not sigma:
            if any(succ[u] for u in comp):
                raise InternalError("strongly connected component with edges has cyclicity 0")
            continue
        if any((level[u] + 1 - level[v]) % sigma for u in comp for v in succ[u]):
            raise InternalError("inconsistent cyclic-class potentials")
        out.append((comp, sigma, level))
    return out


def _cyclic_classes(comp: tuple[int, ...], sigma: int, level: list[int]) -> tuple[tuple[int, ...], ...]:
    """The cyclic classes of one component: its nodes grouped by level modulo ``sigma``.

    ``comp`` is sorted, so each class is sorted and the classes come in
    increasing order of smallest node.
    """
    by_residue: dict[int, list[int]] = {}
    for v in comp:
        by_residue.setdefault(level[v] % sigma, []).append(v)
    return tuple(map(tuple, by_residue.values()))


def digraph_cyclicity(g: Digraph) -> tuple[tuple[tuple[tuple[int, ...], int], ...], int]:
    """Per-component cyclicities and their lcm, for a completely reducible digraph.

    Components are the SCCs that contain at least one edge; isolated nodes
    (present only as untouched endpoints) do not contribute.  Digraphs that
    are not completely reducible are rejected: cyclicity is defined only for
    strongly connected and completely reducible digraphs.
    """
    per = tuple((comp, sigma) for comp, sigma, _ in _cyclic_components(g))
    if not per:
        raise ValueError("cyclicity undefined: digraph has no cycles")
    return per, math.lcm(*(sigma for _, sigma in per))


def critical_structure(a: MaxMatrix) -> CriticalStructure:
    """Critical digraph of ``a`` with components, cyclicities and cyclic classes.

    Requires a positive maximum cycle mean.  The critical test stays in
    exact rationals even when the mean itself is irrational: with the mean
    class (w, l) of ``max_cycle_mean``, the rescaled matrix with entries
    a_ij^l / w has maximum cycle mean exactly 1 and the same critical edges,
    so an edge is critical exactly when it closes a cycle of weight 1 in the
    Kleene star of that matrix.
    """
    cm = max_cycle_mean(a)
    if cm is None:
        raise ValueError("no critical structure: maximum cycle mean is zero")
    w, l = cm.weight, cm.length
    n = a.n
    scaled = MaxMatrix(
        tuple(tuple((v**l) / w if v > 0 else ZERO for v in row) for row in a.rows)
    )
    star = kleene_sum(scaled)
    crit_edges = frozenset(
        (i + 1, j + 1)
        for i in range(n)
        for j in range(n)
        if scaled.rows[i][j] > 0 and scaled.rows[i][j] * star.rows[j][i] == 1
    )
    # Every critical edge lies on a critical cycle, so the critical digraph is
    # completely reducible.
    cyclic = _cyclic_components(Digraph(n, crit_edges))
    per_sigma = tuple(sigma for _, sigma, _ in cyclic)
    return CriticalStructure(
        critical_nodes=frozenset(v for e in crit_edges for v in e),
        critical_edges=crit_edges,
        components=tuple(comp for comp, _, _ in cyclic),
        cyclic_classes=tuple(_cyclic_classes(*cc) for cc in cyclic),
        cyclicity_per_component=per_sigma,
        global_cyclicity=math.lcm(*per_sigma),
    )


# --- congruence helper -----------------------------------------------------


def solvable_congruence(ps: list[int] | tuple[int, ...], n: int, m: int) -> bool:
    """Whether p1*x1 + ... + ps*xs = m (mod n) has a nonnegative solution.

    Holds exactly when m is a multiple of gcd(p1, ..., ps, n).  An empty
    coefficient list is interpreted as the gcd over {n} alone.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    g = n
    for p in ps:
        if p < 1:
            raise ValueError("coefficients must be positive")
        g = math.gcd(g, p)
    return m % g == 0
