import random
from itertools import combinations

import pytest

from turanlab.constructions import (
    extremal_family,
    groetzsch_graph,
    k4free_5chromatic,
    trianglefree_5chromatic,
)
from turanlab.deficiency import deficiency
from turanlab.enumeration import enumerate_graphs
from turanlab.graph import (
    Graph,
    bits,
    complete_graph,
    complete_multipartite,
    cycle_graph,
)
from turanlab.invariants import (
    Coloring,
    SearchBudgetExceeded,
    _Budget,
    _best_clique,
    _greedy_clique,
    _k_color,
    _peel,
    chromatic_number,
    clique_number,
    find_clique,
    is_clique_free,
    is_r_colorable,
    max_clique,
)


def _is_clique(g, vs):
    return all(g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1:])


def test_clique_number_examples():
    assert clique_number(complete_graph(5))[0] == 5
    assert clique_number(groetzsch_graph())[0] == 2
    assert clique_number(complete_multipartite([4, 3, 3]))[0] == 3
    assert clique_number(Graph(0)) == (0, ())


def test_clique_witness_is_clique():
    for g in (complete_graph(5), cycle_graph(7), groetzsch_graph(),
              k4free_5chromatic(), complete_multipartite([2, 3, 4])):
        w = max_clique(g)
        assert _is_clique(g, w)


def test_find_clique_early_exit():
    g = complete_multipartite([2, 2, 2])
    assert find_clique(g, 3) is not None
    assert find_clique(g, 4) is None
    assert is_clique_free(g, 4)
    assert not is_clique_free(g, 3)


def test_find_clique_is_first_clique_in_lexicographic_order():
    for n in range(7):
        for g in enumerate_graphs(n):
            for within in range(1 << n):
                for s in range(5):
                    first = next((c for c in combinations(bits(within), s)
                                  if _is_clique(g, c)), None)
                    assert _best_clique(g.rows, within, s) == first, (g.rows, within, s)
                    if within == (1 << n) - 1:
                        assert find_clique(g, s) == first, (g.rows, s)


def test_deficiency_clique_is_first_degree_sum_maximiser():
    # first maximiser over omega-subsets in (-deg, v) order; orders up to 6
    # still pass with an off-by-one bound or tie-break, order 7 does not
    for n in range(8):
        for g in enumerate_graphs(n):
            w, _ = clique_number(g)
            deg = g.degrees()
            order = sorted(range(n), key=lambda v: (-deg[v], v))
            best = max((c for c in combinations(order, w) if _is_clique(g, c)),
                       key=lambda c: sum(deg[v] for v in c))
            assert deficiency(g, w).clique == tuple(sorted(best)), g.rows


def test_chromatic_examples():
    assert chromatic_number(cycle_graph(5))[0] == 3
    assert chromatic_number(groetzsch_graph())[0] == 4
    assert chromatic_number(k4free_5chromatic())[0] == 5
    # no vertex or no edge: the general search answers these
    assert chromatic_number(Graph(0)) == (0, Coloring((), 0))
    assert chromatic_number(Graph(3)) == (1, Coloring((0, 0, 0), 1))


def test_chromatic_witness_proper():
    for g in (cycle_graph(7), groetzsch_graph(), complete_multipartite([3, 2, 1])):
        chi, col = chromatic_number(g)
        assert col.is_proper(g)
        assert col.palette == chi == max(col.colors) + 1
        for name in col._fields:
            with pytest.raises(AttributeError):
                setattr(col, name, None)


def test_is_proper_matches_the_edge_rule():
    rng = random.Random(5)
    for g in (cycle_graph(5), groetzsch_graph(), complete_multipartite([3, 2, 1])):
        for _ in range(200):
            colors = tuple(rng.randrange(4) for _ in range(g.n))
            expected = all(colors[u] != colors[v] for u, v in g.edges())
            assert Coloring(colors, 4).is_proper(g) == expected
    # a colouring of another order is not one of g, even if no edge is
    # monochromatic: the edge rule would accept the first and fail on the second
    assert not Coloring((0, 1, 0), 2).is_proper(complete_graph(2))
    assert not Coloring((0, 1), 2).is_proper(cycle_graph(4))


def test_r_colorable_examples():
    assert not is_r_colorable(cycle_graph(5), 2)[0]
    ok, col = is_r_colorable(complete_multipartite([3, 3, 3]), 3)
    assert ok and col.is_proper(complete_multipartite([3, 3, 3]))
    assert not is_r_colorable(extremal_family(7, 2), 2)[0]
    assert is_r_colorable(Graph(5), 1)[0]
    assert not is_r_colorable(complete_graph(2), 1)[0]
    assert is_r_colorable(Graph(0), 0)[0]
    assert is_r_colorable(Graph(3), 0) == (False, None)
    assert is_r_colorable(Graph(0), 2) == (True, Coloring((), 0))


def _colourable_by_counting(g, k):
    """Whether g is k-colourable, counted and not searched, so it shares no
    code with the search: with i(S) the number of independent sets of
    G[S], g is k-colourable iff the sum over vertex sets S of
    (-1)^(n-|S|) i(S)^k is positive (Bjorklund, Husfeldt and Koivisto,
    SIAM J. Comput. 39, 2009)."""
    n = g.n
    closed = [row | 1 << v for v, row in enumerate(g.rows)]
    # i(S) = i(S - v) + i(S - N[v]) for the lowest vertex v of S
    ind = [1] * (1 << n)
    for s in range(1, 1 << n):
        v = (s & -s).bit_length() - 1
        ind[s] = ind[s ^ 1 << v] + ind[s & ~closed[v]]
    return sum((-1) ** (n - s.bit_count()) * ind[s] ** k
               for s in range(1 << n)) > 0


def test_r_colorable_equals_counting_oracle():
    for n in range(8):
        for g in enumerate_graphs(n):
            for k in range(n + 1):
                assert is_r_colorable(g, k)[0] == _colourable_by_counting(g, k), (g.rows, k)
    # the triangle-free order-9 level at k = 3, where the search branches,
    # and at k = 2, where many graphs are disconnected and bipartite
    for g in enumerate_graphs(9, 3):
        assert is_r_colorable(g, 3)[0] == _colourable_by_counting(g, 3), g.rows
        assert is_r_colorable(g, 2)[0] == _colourable_by_counting(g, 2), g.rows


def test_chi_at_least_omega_small_orders():
    # equality on complete multipartite instances, inequality in general
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            assert chromatic_number(g)[0] >= clique_number(g)[0]
    for sizes in ([2, 2, 2], [3, 1], [4, 2, 1], [2, 2, 1, 1]):
        g = complete_multipartite(sizes)
        assert chromatic_number(g)[0] == clique_number(g)[0] == len(sizes)


def test_budget_abort_is_distinct():
    g = k4free_5chromatic()
    with pytest.raises(SearchBudgetExceeded) as err:
        chromatic_number(g, node_budget=1)
    assert err.value.lower is not None and err.value.upper is not None
    assert err.value.lower <= 5 <= err.value.upper


def _union(*graphs):
    """The disjoint union, vertices in the order given."""
    rows, n = [], 0
    for g in graphs:
        rows += [r << n for r in g.rows]
        n += g.n
    return Graph.from_rows(rows)


def test_a_refuted_component_ends_the_search():
    # the star centres have the highest degree, so every star is coloured
    # before the odd cycle or the Groetzsch graph; a search that
    # backtracked through the stars' colourings after refuting the last
    # component would spend over a million nodes on either graph
    c5_stars = _union(cycle_graph(5), *[complete_multipartite([1, 3])] * 20)
    assert chromatic_number(c5_stars, node_budget=100)[0] == 3
    assert not is_r_colorable(c5_stars, 2)[0]
    groetzsch_stars = _union(groetzsch_graph(), *[complete_multipartite([1, 6])] * 20)
    assert chromatic_number(groetzsch_stars, node_budget=200)[0] == 4


class _Refuted(Exception):
    """A part of the graph that no colours chosen so far constrain has no
    k-colouring."""


def _trail_k_color(rows, n, k, budget):
    """The trail-based colouring search the bitmask one replaced: same
    branching vertex, colour order and fresh-colour rule, one domain mask
    per vertex and an undo trail.  Kept as the oracle."""
    if n == 0:
        return []
    if k <= 0:
        return None
    if k == 1:
        return [0] * n if all(r == 0 for r in rows) else None
    if k >= n:
        return list(range(n))

    clique = _greedy_clique(rows, n)
    if len(clique) > k:
        return None

    full = (1 << k) - 1
    dom = [full] * n
    color = [-1] * n
    degs = [r.bit_count() for r in rows]
    state = {"uncolored": n, "used": 0}

    trail = []  # (vertex, previous domain)
    assigned_stack = []

    def place(v, c):
        queue = [(v, c)]
        while queue:
            w, cw = queue.pop()
            if color[w] >= 0:
                if color[w] != cw:
                    return False
                continue
            color[w] = cw
            assigned_stack.append(w)
            state["uncolored"] -= 1
            state["used"] |= 1 << cw
            for u in bits(rows[w]):
                if color[u] >= 0:
                    if color[u] == cw:
                        return False
                    continue
                d = dom[u]
                if d & (1 << cw):
                    trail.append((u, d))
                    d &= ~(1 << cw)
                    dom[u] = d
                    if d == 0:
                        return False
                    if d & (d - 1) == 0:
                        queue.append((u, d.bit_length() - 1))
        return True

    def dfs():
        if state["uncolored"] == 0:
            return True
        if not budget.spend():
            raise SearchBudgetExceeded(f"{k}-colourability search budget exhausted")
        v = -1
        best_key = None
        for u in range(n):
            if color[u] >= 0:
                continue
            key = (dom[u].bit_count(), -degs[u], u)
            if best_key is None or key < best_key:
                best_key = key
                v = u
        used = state["used"]
        fresh = ~used & (used + 1) if used != full else 0
        allowed = dom[v] & (used | fresh)
        # a vertex with every colour left has no coloured neighbour, nor
        # has any other uncoloured one: colour 0 settles the rest
        free = dom[v] == full
        for c in bits(1 if free else allowed):
            tmark = len(trail)
            amark = len(assigned_stack)
            umark = state["used"]
            if place(v, c) and dfs():
                return True
            while len(trail) > tmark:
                u, d = trail.pop()
                dom[u] = d
            while len(assigned_stack) > amark:
                w = assigned_stack.pop()
                color[w] = -1
                state["uncolored"] += 1
            state["used"] = umark
        if free:
            raise _Refuted
        return False

    for i, v in enumerate(clique):
        if not place(v, i):
            return None
    try:
        if state["uncolored"] and not dfs():
            return None
    except _Refuted:
        return None
    return color


def _colourings_agree(rows, n, k):
    """Both searches give the same colouring (or None) and spend the same
    number of nodes, with and without a limit one node short."""
    want_budget, got_budget = _Budget(None), _Budget(None)
    want = _trail_k_color(rows, n, k, want_budget)
    got = _k_color(rows, n, k, got_budget)
    assert got == want and got_budget.spent == want_budget.spent, (rows, k)
    spent = want_budget.spent
    if spent:
        with pytest.raises(SearchBudgetExceeded) as err:
            _k_color(rows, n, k, _Budget(spent - 1))
        assert err.value.nodes == spent - 1, (rows, k)


def test_k_color_equals_trail_oracle_on_small_orders():
    for n in range(8):
        for g in enumerate_graphs(n):
            for k in range(n + 1):
                _colourings_agree(g.rows, n, k)


def test_k_color_equals_trail_oracle_on_random_graphs():
    # dense random graphs, and random maximal triangle-free graphs, whose
    # 3- and 4-colouring searches branch deepest
    rng = random.Random(2718)
    for _ in range(400):
        n = rng.randint(1, 16)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        for k in range(7):
            _colourings_agree(g.rows, n, k)
    for _ in range(200):
        n = rng.randint(8, 16)
        rows = [0] * n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        for u, v in pairs:
            if not rows[u] & rows[v]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        for k in (3, 4):
            _colourings_agree(rows, n, k)


def test_gadget_search_tree_is_pinned():
    # chromatic_number on the triangle-free chi = 5 gadget spends 18,262
    # nodes, over k = 3 and k = 4; one node fewer is a budget trip
    g = trianglefree_5chromatic()
    assert chromatic_number(g, node_budget=18_262)[0] == 5
    with pytest.raises(SearchBudgetExceeded) as err:
        chromatic_number(g, node_budget=18_261)
    assert err.value.nodes == 18_261
    assert (err.value.lower, err.value.upper) == (4, 5)


def test_aes_peel_balanced_bipartite():
    removed, parts = _peel(complete_multipartite([4, 4]), 2)
    assert removed == []
    assert parts == [0b00001111, 0b11110000]


def test_aes_peel_c5():
    removed, parts = _peel(cycle_graph(5), 2)
    assert (removed, parts) == ([0], [0b01010, 0b10100])
    rest = [v for v in range(5) if v not in removed]
    assert is_r_colorable(cycle_graph(5).induced(rest), 2)[0]


def test_aes_peel_groetzsch():
    g = groetzsch_graph()
    removed, parts = _peel(g, 2)
    # frozen from the first run of the specified procedure (min degree,
    # lowest index on ties); every removal stayed within 2n/5
    assert removed == [5, 1, 7, 0, 4, 3]
    cur = g
    alive = list(range(g.n))
    for v in removed:
        i = alive.index(v)
        assert cur.degree(i) * 5 <= 2 * cur.n
        assert cur.degree(i) == min(cur.degrees())
        alive.pop(i)
        cur = cur.induced([u for u in range(cur.n) if u != i])
    ok, _ = is_r_colorable(cur, 2)
    assert ok
    # the parts partition the remainder and are independent
    assert parts[0] | parts[1] == sum(1 << v for v in alive)
    assert not parts[0] & parts[1]
    assert not any(g.rows[v] & p for p in parts for v in bits(p))
