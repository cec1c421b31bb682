import importlib
import time
from itertools import combinations

import pytest

from turanlab.canon import certificate
from turanlab.constructions import (
    groetzsch_graph,
    k4free_5chromatic,
    trianglefree_5chromatic,
    turan_number,
)
from turanlab.deficiency import (
    _maximal_cliques,
    blowup_bound_gap_times_r,
    blowup_edge_count,
    deficiency,
    deficiency_lower_bound,
    optimal_blowup,
)
from turanlab import enumeration
from turanlab.enumeration import enumerate_graphs
from turanlab.graph import (
    Graph,
    complete_graph,
    complete_multipartite,
    bits,
    cycle_graph,
    from_graph6,
)
from turanlab.invariants import CliquePresentError, clique_number
from turanlab.verify import deficiency_search


def test_deficiency_examples():
    assert deficiency(complete_multipartite([2, 2, 2]), 3).value == 0
    assert deficiency(cycle_graph(5), 2).value == 1
    assert deficiency(groetzsch_graph(), 2).value == 3
    assert deficiency(k4free_5chromatic(), 3).value == 2
    assert deficiency(trianglefree_5chromatic(), 2).value == 6


def test_deficiency_requires_exact_clique_number():
    with pytest.raises(CliquePresentError):
        deficiency(cycle_graph(5), 3)
    with pytest.raises(CliquePresentError):
        deficiency(complete_graph(4), 3)


def test_deficiency_report_consistency():
    rep = deficiency(groetzsch_graph(), 2)
    g = groetzsch_graph()
    assert len(rep.clique) == 2 and g.has_edge(*rep.clique)
    assert sum(rep.deficiencies) == rep.value
    assert all(d >= 0 for d in rep.deficiencies)
    assert (rep.value, rep.clique) == (3, (5, 10))
    for name in rep._fields:
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
    # the realizing pair attains degree sum 8; the adjacent degree-4
    # pairs are among the maximizers
    assert sum(g.degree(v) for v in rep.clique) == 8
    assert any(g.degree(u) == g.degree(v) == 4 and g.has_edge(u, v)
               for u in range(g.n) for v in range(u + 1, g.n))


def test_formula_agreement_exhaustive():
    # the defining formula and its per-vertex rewriting agree; checked
    # internally by deficiency() on every graph up to order 8
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            w = clique_number(g)[0]
            if w >= 1:
                rep = deficiency(g, w)
                assert rep.value >= 0


def _deficiency_oracle(g, r):
    """(value, clique, per-vertex deficiencies) by trying every r-set:
    the first heaviest clique in (-deg, v) order, as deficiency documents."""
    degs = g.degrees()
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    best = None
    for picked in combinations(order, r):
        if all(g.has_edge(u, v) for u, v in combinations(picked, 2)):
            weight = sum(degs[v] for v in picked)
            if best is None or weight > best[0]:
                best = (weight, tuple(sorted(picked)))
    per_vertex = tuple(r - 1 - sum(g.has_edge(v, c) for c in best[1])
                       for v in range(g.n))
    return (r - 1) * g.n - best[0], best[1], per_vertex


def test_deficiency_needs_no_clique_number_when_it_succeeds(monkeypatch):
    # clique number r is proved by the r-clique found and the missing
    # (r+1)-clique; the full maximum clique is for the failure message
    cases = [(g, clique_number(g)[0]) for n in range(1, 8) for g in enumerate_graphs(n)]
    expected_search = deficiency_search(2, 3, 7)

    def unused(g):
        raise AssertionError("clique_number called on the success path")

    # the package exports the function under the module's name
    module = importlib.import_module("turanlab.deficiency")
    monkeypatch.setattr(module, "clique_number", unused)
    for g, w in cases:
        rep = deficiency(g, w)
        assert (rep.value, rep.clique, rep.deficiencies) == _deficiency_oracle(g, w)
    assert deficiency_search(2, 3, 7) == expected_search


def test_lower_bound():
    assert deficiency_lower_bound(2, 4) == 2
    assert deficiency_lower_bound(3, 5) == 2
    assert deficiency_lower_bound(3, 3) == 0
    with pytest.raises(ValueError):
        deficiency_lower_bound(4, 3)


def _plus_universal(g):
    """``g`` plus one new vertex adjacent to everything."""
    n = g.n
    return Graph.from_rows([r | 1 << n for r in g.rows] + [(1 << n) - 1])


def test_monotone_transfer():
    # a universal vertex lifts a realizing graph one rank without changing
    # the deficiency
    assert deficiency(_plus_universal(groetzsch_graph()), 3).value == 3
    assert deficiency(_plus_universal(cycle_graph(5)), 3).value == 1
    assert deficiency(_plus_universal(k4free_5chromatic()), 4).value == 2


def test_search_small():
    res = deficiency_search(2, 3, 5)
    assert res["value"] == 1
    assert res["minimal_order"] == 5
    assert res["complete"]
    assert certificate(cycle_graph(5)) in {
        certificate(from_graph6(w)) for w in res["witnesses"]}
    assert res["value"] >= deficiency_lower_bound(2, 3)


def test_search_empty_range():
    res = deficiency_search(2, 4, 6)
    assert res["value"] is None and res["minimal_order"] is None
    assert res["complete"]


def test_search_budget_flagging():
    res = deficiency_search(2, 3, 6, node_budget=3)
    assert not res["complete"]
    assert res["examined"] == 3


def test_budget_builds_no_level_past_the_one_it_runs_out_in(monkeypatch):
    # orders 1-8 hold 582 triangle-free graphs, so a budget of 1000 runs
    # out inside order 9 and orders 10 and 11 must never be built
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    build = enumeration._next_level

    def next_level(parents, k, q):
        if k >= 9:
            raise AssertionError(f"order {k + 1} was built")
        return build(parents, k, q)

    monkeypatch.setattr(enumeration, "_next_level", next_level)
    res = deficiency_search(2, 4, 11, node_budget=1000)
    assert not res["complete"] and res["examined"] == 1000
    assert len(enumeration._LEVELS[3]) == 9


def test_search_stops_at_the_order_that_meets_the_lower_bound(monkeypatch):
    # C5 meets the lower bound 1 at order 5, where orders 1-5 hold 27
    # triangle-free graphs; orders 6 to 11 must never be built
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    build = enumeration._next_level

    def next_level(parents, k, q):
        if k >= 5:
            raise AssertionError(f"order {k + 1} was built")
        return build(parents, k, q)

    monkeypatch.setattr(enumeration, "_next_level", next_level)
    res = deficiency_search(2, 3, 11)
    assert (res["value"], res["minimal_order"]) == (1, 5)
    assert res["complete"] and res["examined"] == 27


def test_search_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="node budget must be >= 0"):
        deficiency_search(2, 3, 6, node_budget=-1)


def test_optimal_blowup_complete_graph():
    for n in (3, 7, 10):
        w, e = optimal_blowup(complete_graph(3), n)
        assert e == turan_number(n, 3)
        assert sum(w) == n and min(w) >= 1


def test_optimal_blowup_c5():
    w, e = optimal_blowup(cycle_graph(5), 10)
    assert e == 21
    assert blowup_edge_count(cycle_graph(5), w) == e


def _all_weightings(l, n):
    for cuts in combinations(range(1, n), l - 1):
        parts = []
        prev = 0
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(n - prev)
        yield parts


def test_optimal_blowup_matches_oracle_selected():
    # exhaustive equivalence on a spread of shapes (the full sweep over
    # every graph on up to six vertices runs in the acceptance suite)
    shapes = [
        cycle_graph(5),
        complete_multipartite([2, 2, 1]),
        Graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)]),  # K2 + K3
        from_graph6("DQo"),  # bull-ish 5-vertex graph
        Graph(2),  # K1 + K1
    ]
    for h in shapes:
        for n in range(h.n, h.n + 5):
            _, got = optimal_blowup(h, n)
            best = max(blowup_edge_count(h, w) for w in _all_weightings(h.n, n))
            assert got == best, (h, n)


def _greedy_blowup(h, n):
    """``optimal_blowup`` by its greedy, one unit at a time: per maximal
    clique, each unit goes to the v of largest d_v - w_v (d_v the
    neighbours outside the clique), lowest v on ties."""
    degs = h.degrees()
    best_w, best_e = (), -1
    for cmask in _maximal_cliques(h):
        cl = list(bits(cmask))
        w = [1] * h.n
        d = {v: degs[v] - (len(cl) - 1) for v in cl}
        e = h.edge_count
        inside = len(cl)
        for _ in range(n - h.n):
            v = max(cl, key=lambda u: (d[u] - w[u], -u))
            e += d[v] + inside - w[v]
            w[v] += 1
            inside += 1
        if e > best_e:
            best_w, best_e = tuple(w), e
    return best_w, best_e


def test_optimal_blowup_equals_the_unit_greedy_up_to_order_six():
    for l in range(1, 7):
        for h in enumerate_graphs(l):
            for n in (l, l + 1, l + 2, 2 * l + 3, 5 * l + 7):
                assert optimal_blowup(h, n) == _greedy_blowup(h, n), (h.rows, n)


def test_optimal_blowup_is_closed_form_in_the_target():
    # the unit greedy's time grows with the target: about 27 s at 10**6
    time_limit = 1.0
    start = time.perf_counter()
    assert optimal_blowup(groetzsch_graph(), 10 ** 6)[1] == 249998500007
    assert time.perf_counter() - start < time_limit


def test_optimal_blowup_groetzsch_band():
    _, e = optimal_blowup(groetzsch_graph(), 30)
    assert e == 187
    assert abs(e - (turan_number(30, 2) - 45)) <= 25
    # exact scaled gap against the leading-order bound
    assert blowup_bound_gap_times_r(2, 3, 30, e) == 2 * 187 - 2 * 225 + 3 * 30

