"""SCCs, cyclicities and cyclic classes checked against networkx on small random digraphs."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcirc import (
    Digraph,
    MaxMatrix,
    associated_digraph,
    critical_structure,
    digraph_cyclicity,
    is_completely_reducible,
    max_cycle_mean,
    strongly_connected_components,
)

nx = pytest.importorskip("networkx")

# Repeated 1s make ties, so critical digraphs with several cycles are common.
WEIGHTS = (0, 0, F(1, 2), 1, 1, 2)


@st.composite
def weighted_digraphs(draw) -> MaxMatrix:
    n = draw(st.integers(1, 6))
    return MaxMatrix.of(
        [[draw(st.sampled_from(WEIGHTS)) for _ in range(n)] for _ in range(n)]
    )


def nx_cyclicities(edges) -> dict[tuple[int, ...], int]:
    """gcd of the simple-cycle lengths of each SCC of ``edges`` that has an edge."""
    h = nx.DiGraph(list(edges))
    out = {}
    for comp in nx.strongly_connected_components(h):
        sub = h.subgraph(comp)
        if sub.number_of_edges():
            out[tuple(sorted(comp))] = gcd(*(len(c) for c in nx.simple_cycles(sub)))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weighted_digraphs())
def test_scc_and_cyclicity_match_networkx(a):
    n = a.n
    g = associated_digraph(a)
    h = nx.DiGraph()
    h.add_nodes_from(range(1, n + 1))
    h.add_edges_from(g.edges)
    nx_comps = [tuple(sorted(c)) for c in nx.strongly_connected_components(h)]
    assert sorted(strongly_connected_components(g)) == sorted(nx_comps)

    comp_of = {v: k for k, comp in enumerate(nx_comps) for v in comp}
    inside = frozenset((u, v) for u, v in g.edges if comp_of[u] == comp_of[v])
    assert is_completely_reducible(g) == (inside == g.edges)
    if inside:
        per, overall = digraph_cyclicity(Digraph(n, inside))
        want = nx_cyclicities(inside)
        assert dict(per) == want
        assert overall == lcm(*want.values())

    if max_cycle_mean(a) is not None:
        cs = critical_structure(a)
        want = nx_cyclicities(cs.critical_edges)
        assert dict(zip(cs.components, cs.cyclicity_per_component)) == want
        assert cs.global_cyclicity == lcm(*want.values())


@st.composite
def random_digraphs(draw) -> Digraph:
    # Up to 40 nodes, sparse to dense: long paths, nested cycles and many
    # components, which exercise the depth-first frames of Tarjan's pass.
    n = draw(st.integers(1, 40))
    node = st.integers(1, n)
    edges = draw(st.lists(st.tuples(node, node), max_size=draw(st.sampled_from((n, 2 * n, 4 * n)))))
    return Digraph(n, frozenset(edges))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(random_digraphs())
def test_scc_matches_networkx_on_random_digraphs(g):
    h = nx.DiGraph()
    h.add_nodes_from(range(1, g.node_count + 1))
    h.add_edges_from(g.edges)
    want = sorted(tuple(sorted(c)) for c in nx.strongly_connected_components(h))
    # Sorted node tuples, listed by smallest node.
    assert strongly_connected_components(g) == want


def nx_cyclic_classes(h, comp, sigma) -> tuple[tuple[int, ...], ...]:
    """Cyclic classes of ``comp``, listed by smallest node, from walk lengths.

    v lies in class r when a walk from the smallest node reaches it with a
    length of r mod sigma.  Reachability runs on the product with Z/sigma,
    so each node must turn up with exactly one residue.
    """
    product = nx.DiGraph(((u, r), (v, (r + 1) % sigma)) for u, v in h.subgraph(comp).edges for r in range(sigma))
    root = (comp[0], 0)
    reached = nx.descendants(product, root) | {root}
    residues = dict(reached)
    assert len(residues) == len(reached) == len(comp)
    classes = {}
    for v in comp:
        classes.setdefault(residues[v], []).append(v)
    return tuple(sorted(map(tuple, classes.values())))


@st.composite
def completely_reducible_digraphs(draw) -> Digraph:
    # The edges of a random digraph that lie inside its SCCs, at most 8
    # nodes, so that networkx can list every simple cycle.  About half of
    # them keep only edges from layer r to layer r + 1 mod some count of
    # layers, so that cyclicities above 1 are common.
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    if draw(st.booleans()):
        layers = draw(st.integers(2, 4))
        layer = draw(st.lists(st.integers(0, layers - 1), min_size=n + 1, max_size=n + 1))
        pairs = [(u, v) for u, v in pairs if layer[v] == (layer[u] + 1) % layers]
    size = draw(st.sampled_from((n, 2 * n, 4 * n)))
    edges = frozenset(draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=size))) if pairs else frozenset()
    comp_of = {v: k for k, comp in enumerate(strongly_connected_components(Digraph(n, edges))) for v in comp}
    return Digraph(n, frozenset((u, v) for u, v in edges if comp_of[u] == comp_of[v]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(completely_reducible_digraphs())
def test_cyclicity_and_cyclic_classes_match_networkx(g):
    h = nx.DiGraph(list(g.edges))
    want = nx_cyclicities(g.edges)
    if not want:
        with pytest.raises(ValueError, match="no cycles"):
            digraph_cyclicity(g)
        return
    per, overall = digraph_cyclicity(g)
    assert dict(per) == want
    assert overall == lcm(*want.values())
    # With weight 1 on every edge each cycle is critical, so the critical
    # digraph is g itself.
    n = g.node_count
    cs = critical_structure(MaxMatrix.of([[int((i, j) in g.edges) for j in range(1, n + 1)] for i in range(1, n + 1)]))
    assert cs.critical_edges == g.edges
    assert dict(zip(cs.components, cs.cyclicity_per_component)) == want
    for comp, classes in zip(cs.components, cs.cyclic_classes):
        assert classes == nx_cyclic_classes(h, comp, want[comp])


def test_scc_of_a_long_cycle_with_a_tail():
    # 4900 nodes on one cycle and a 100-node tail: one linear pass, with no
    # recursion, however deep the depth-first search goes.
    n = 5000
    cycle = {(i, i + 1) for i in range(1, n - 100)} | {(n - 100, 1)}
    tail = {(i, i + 1) for i in range(n - 100, n)}
    comps = strongly_connected_components(Digraph(n, frozenset(cycle | tail)))
    assert comps == [tuple(range(1, n - 99))] + [(v,) for v in range(n - 99, n + 1)]
