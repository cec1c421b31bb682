import pytest

from turanlab.enumeration import enumerate_graphs
from turanlab.graph import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    twin_classes,
)
from turanlab.invariants import chromatic_number, clique_number
from turanlab.symmetrization import zykov, zykov_reduce


def test_zykov_twins_already():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert zykov(p3, 0, 2) == p3


def test_zykov_adjacent_variant():
    z = zykov(complete_graph(2), 0, 1)
    assert z.n == 2 and z.edge_count == 0
    assert chromatic_number(z)[0] == 1


def test_zykov_c5():
    c5 = cycle_graph(5)
    z = zykov(c5, 0, 2)
    assert z.edge_count == 5
    assert chromatic_number(z)[0] == 2
    assert chromatic_number(c5.induced([1, 2, 3, 4]))[0] == 2


def test_zykov_rejects_same_vertex():
    with pytest.raises(ValueError):
        zykov(cycle_graph(5), 1, 1)


def test_deletion_identities_exhaustive_small():
    # omega/chi of the symmetrized graph equal those of the graph minus
    # the replaced vertex, for every graph on up to 5 vertices and every
    # ordered pair (adjacent pairs use the extended operation)
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            for u in range(n):
                rest = [x for x in range(n) if x != u]
                sub = g.induced(rest)
                w_del = clique_number(sub)[0]
                chi_del = chromatic_number(sub)[0]
                for v in range(n):
                    if u == v:
                        continue
                    z = zykov(g, u, v)
                    assert clique_number(z)[0] == w_del
                    assert chromatic_number(z)[0] == chi_del


def test_increasing_never_loses_edges():
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            for u in range(n):
                for v in range(n):
                    if u == v or g.has_edge(u, v):
                        continue
                    if g.degree(u) <= g.degree(v):
                        assert zykov(g, u, v).edge_count >= g.edge_count


def test_zykov_reduce_fixed_point():
    t63 = complete_multipartite([2, 2, 2])
    out, trace = zykov_reduce(t63)
    assert out == t63 and trace.steps == ()


def _apply(g, steps):
    for u, v in steps:
        g = zykov(g, u, v)
    return g


def test_zykov_reduce_c5():
    out, trace = zykov_reduce(cycle_graph(5))
    assert out.edge_count >= 5
    blocks = twin_classes(out)
    assert len(blocks) <= 2
    assert _apply(cycle_graph(5), trace.steps) == out
    assert trace.steps == ((2, 0), (3, 0))
    for name in trace._fields:
        with pytest.raises(AttributeError):
            setattr(trace, name, None)


def test_zykov_reduce_postconditions_exhaustive():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            out, trace = zykov_reduce(g)
            assert out.edge_count >= g.edge_count
            w = clique_number(g)[0]
            blocks = twin_classes(out)
            assert len(blocks) <= max(w, 1)
            for i in range(len(blocks)):
                for j in range(i + 1, len(blocks)):
                    assert out.has_edge(blocks[i][0], blocks[j][0])
            assert _apply(g, trace.steps) == out
