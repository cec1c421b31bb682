import random

import pytest

from turanlab.graph import (
    Graph,
    GraphFormatError,
    Partition,
    blow_up,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    from_graph6,
    path_graph,
    to_graph6,
    twin_classes,
)


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.n == 4
    assert g.edge_count == 2
    assert g.has_edge(1, 0) and g.has_edge(1, 2)
    assert not g.has_edge(0, 2)
    assert g.degrees() == [1, 2, 1, 0]
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_rows([0b10, 0b00])  # asymmetric


def test_complement_and_union():
    c5 = cycle_graph(5)
    assert c5.complement().edge_count == 10 - 5
    u = c5.disjoint_union(complete_graph(2))
    assert u.n == 7 and u.edge_count == 6
    assert u.has_edge(5, 6) and not u.has_edge(4, 5)


def test_induced_and_relabel():
    p4 = path_graph(4)
    assert p4.induced([1, 2, 3]).edge_count == 2
    h = p4.relabel([3, 2, 1, 0])
    assert h == p4  # path is symmetric under reversal
    with pytest.raises(ValueError):
        p4.relabel([0, 0, 1, 2])


def test_induced_and_relabel_match_edge_sets():
    # edge-set oracles that share no code with the bitset relabelling
    rng = random.Random(31337)
    for _ in range(300):
        n = rng.randrange(0, 13)
        p = rng.choice([0.2, 0.5, 0.8])
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p}
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert set(g.relabel(perm).edges()) == {
            tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        verts = rng.sample(range(n), rng.randrange(0, n + 1))
        pos = {v: i for i, v in enumerate(verts)}
        assert g.induced(verts).n == len(verts)
        assert set(g.induced(verts).edges()) == {
            tuple(sorted((pos[u], pos[v]))) for u, v in edges
            if u in pos and v in pos}
    with pytest.raises(ValueError):
        path_graph(4).induced([1, 2, 1])


# -- graph6 -------------------------------------------------------------------


def test_graph6_known_encodings():
    # header-only: single vertex
    assert to_graph6(Graph(1)) == "@"
    # K2: one bit set, padded -> 32+63 = '_'
    assert to_graph6(complete_graph(2)) == "A_"
    # C5 labelled around the cycle: bits 101001 100100 -> 'h','c'
    assert to_graph6(cycle_graph(5)) == "Dhc"


def test_graph6_decoding_known():
    assert from_graph6("@") == Graph(1)
    assert from_graph6("A_") == complete_graph(2)
    assert from_graph6("Dhc") == cycle_graph(5)
    assert from_graph6(">>graph6<<A_") == complete_graph(2)


def test_graph6_round_trip_random():
    rng = random.Random(20240901)
    for _ in range(300):
        n = rng.randrange(0, 14)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        g = Graph.from_rows(rows)
        assert from_graph6(to_graph6(g)) == g


def test_graph6_large_order_header():
    g = empty_graph(63)
    s = to_graph6(g)
    assert s.startswith("~")
    assert from_graph6(s) == g
    g = complete_multipartite([50, 50])
    assert from_graph6(to_graph6(g)) == g


def test_graph6_malformed():
    with pytest.raises(GraphFormatError):
        from_graph6("")
    with pytest.raises(GraphFormatError):
        from_graph6("D")  # payload too short for n=5
    with pytest.raises(GraphFormatError):
        from_graph6("A" + chr(30))  # character below 63
    with pytest.raises(GraphFormatError):
        from_graph6("A_?")  # trailing bytes
    # nonzero padding bits: K2 body with a stray low bit
    with pytest.raises(GraphFormatError):
        from_graph6("A" + chr(63 + 33))


# -- blow-ups ----------------------------------------------------------------


def test_blow_up_examples():
    t63 = blow_up(complete_graph(3), (2, 2, 2))
    assert t63 == complete_multipartite([2, 2, 2])
    k34 = blow_up(complete_graph(2), (3, 4))
    assert k34.edge_count == 12
    assert blow_up(cycle_graph(5), (1, 1, 1, 1, 1)) == cycle_graph(5)


def test_blow_up_rejects_zero_weight():
    with pytest.raises(ValueError):
        blow_up(complete_graph(2), (0, 5))
    with pytest.raises(ValueError):
        blow_up(complete_graph(2), (1,))


def test_blow_up_edge_multiplicativity():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(1, 7)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.5])
        w = [rng.randrange(1, 4) for _ in range(n)]
        b = blow_up(g, w)
        assert b.edge_count == sum(w[u] * w[v] for u, v in g.edges())
        assert b.n == sum(w)


# -- twin classes -------------------------------------------------------------


def test_twin_classes_multipartite():
    t73 = complete_multipartite([3, 2, 2])
    part = twin_classes(t73)
    assert sorted(len(b) for b in part.blocks) == [2, 2, 3]
    assert part.covers(7)


def test_twin_classes_cycle_is_twin_free():
    part = twin_classes(cycle_graph(5))
    assert len(part) == 5
    assert all(len(b) == 1 for b in part.blocks)


def test_twin_classes_equal_degrees():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.4])
        part = twin_classes(g)
        assert part.covers(n)
        for block in part.blocks:
            degs = {g.degree(v) for v in block}
            assert len(degs) == 1
            # twins are never adjacent under the open-neighbourhood rule
            for i, u in enumerate(block):
                for v in block[i + 1:]:
                    assert not g.has_edge(u, v)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)), "coloring")
    with pytest.raises(ValueError):
        Partition(((0,), ()), "coloring")
