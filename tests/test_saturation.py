import pytest

from turanlab.constructions import turan_number
from turanlab.enumeration import enumerate_graphs
from turanlab.graph import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    twin_classes,
)
from turanlab.invariants import CliquePresentError, is_clique_free
from turanlab.saturation import is_saturated, saturate

# Largest twin-class count observed over all 3-saturated graphs of order
# at most 8 above the near-extremal size bar; frozen after the first
# exhaustive run as a toy-scale sanity companion to the bounded-blow-up
# behaviour of dense saturated graphs.
NEAR_EXTREMAL_TWIN_BOUND = 8


def test_report_examples():
    rep = is_saturated(complete_multipartite([2, 2, 2]), 4)
    assert rep.saturated and rep.clique_free and rep.obstruction is None
    rep = is_saturated(cycle_graph(5), 3)
    assert rep.saturated
    rep = is_saturated(Graph(4, [(0, 1), (1, 2), (2, 3)]), 3)  # P4
    assert not rep.saturated
    assert rep.completions[(0, 3)] is None
    assert rep.missing() == [(0, 3)]
    # one completion per non-edge is too long for the repr, which leaves
    # them out
    assert repr(rep) == ("SaturationReport(q=3, clique_free=True, "
                         "obstruction=None, saturated=False)")
    for name in rep._fields:
        with pytest.raises(AttributeError):
            setattr(rep, name, None)


def test_report_witnesses_induce_near_clique():
    rep = is_saturated(cycle_graph(5), 3)
    g = cycle_graph(5)
    for (u, v), w in rep.completions.items():
        assert w is not None and len(w) == 1
        x = w[0]
        assert g.has_edge(u, x) and g.has_edge(v, x) and not g.has_edge(u, v)


def test_clique_present_reported():
    rep = is_saturated(complete_graph(4), 4)
    assert not rep.clique_free and not rep.saturated
    assert rep.obstruction is not None and len(rep.obstruction) == 4


def test_saturate_examples():
    star = saturate(Graph(4), 3)
    assert sorted(star.degrees()) == [1, 1, 1, 3]
    assert saturate(cycle_graph(5), 3) == cycle_graph(5)
    k222 = complete_multipartite([2, 2, 2])
    dent = Graph(6, [e for e in k222.edges() if e != (0, 2)])
    assert saturate(dent, 4) == k222


def test_saturate_rejects_clique():
    with pytest.raises(CliquePresentError):
        saturate(complete_graph(3), 3)


def test_saturate_monotone_and_saturating_exhaustive():
    for q in (3, 4):
        for n in range(1, 9):
            for g in enumerate_graphs(n, q):
                out = saturate(g, q)
                # never removes an edge
                assert all((out.rows[v] & g.rows[v]) == g.rows[v]
                           for v in range(n))
                rep = is_saturated(out, q)
                assert rep.saturated
                assert is_clique_free(out, q)


def test_near_extremal_saturated_twin_bound():
    for n in range(3, 9):
        for g in enumerate_graphs(n, 3):
            if g.edge_count <= turan_number(n, 2) - 2 * n:
                continue
            if is_saturated(g, 3).saturated:
                assert len(twin_classes(g)) <= NEAR_EXTREMAL_TWIN_BOUND
