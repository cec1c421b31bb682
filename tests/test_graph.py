import hashlib
import random

import pytest

from turanlab import graph
from turanlab.constructions import sat_twin_free
from turanlab.enumeration import enumerate_graphs
from turanlab.graph import (
    Graph,
    GraphFormatError,
    _graph6_chunks,
    _key_rows,
    _upper_key,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    from_graph6,
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
    with pytest.raises(ValueError):
        Graph.from_rows([0b110, 0b001])  # bit 2 outside order 2
    with pytest.raises(ValueError):
        Graph.from_rows([-1, 0])
    with pytest.raises(ValueError):
        Graph.from_rows([0b01, 0b00])  # self-loop at 0


_P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])


def test_induced_and_relabel():
    assert _P4.induced([1, 2, 3]).edge_count == 2
    # induced on every vertex relabels; the path is symmetric under reversal
    assert _P4.induced([3, 2, 1, 0]) == _P4


def test_induced_and_relabel_match_edge_sets():
    # edge-set oracles that share no code with the bitset relabelling
    rng = random.Random(31337)
    for _ in range(300):
        n = rng.randrange(0, 13)
        p = rng.choice([0.2, 0.5, 0.8])
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p}
        g = Graph(n, edges)
        # the first sample, of all n vertices, is a relabelling
        for size in (n, rng.randrange(0, n + 1)):
            verts = rng.sample(range(n), size)
            pos = {v: i for i, v in enumerate(verts)}
            assert g.induced(verts).n == len(verts)
            assert set(g.induced(verts).edges()) == {
                tuple(sorted((pos[u], pos[v]))) for u, v in edges
                if u in pos and v in pos}
    with pytest.raises(ValueError):
        _P4.induced([1, 2, 1])


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
    g = Graph(63)
    s = to_graph6(g)
    assert s.startswith("~")
    assert from_graph6(s) == g
    g = complete_multipartite([50, 50])
    assert from_graph6(to_graph6(g)) == g


def _random_graphs(count, orders, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(orders)
        p = rng.random()
        out.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < p]))
    return out


def _all_labelled_rows(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for t, (i, j) in enumerate(pairs):
            if mask >> t & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield rows


def _key_test_graphs():
    """Every graph with n <= 8, up to isomorphism, and 2,000 seeded random
    labelled graphs with n = 9..16."""
    graphs = [g for n in range(1, 9) for g in enumerate_graphs(n)]
    return graphs + _random_graphs(2000, range(9, 17), 7)


def test_key_decodes_to_the_rows():
    for g in _key_test_graphs():
        assert tuple(_key_rows(_upper_key(g.rows), g.n)) == g.rows
    assert _upper_key(()) == 0 and _key_rows(0, 0) == []
    assert _upper_key((0,)) == 0 and _key_rows(0, 1) == [0]
    with pytest.raises(ValueError, match="orders up to 64"):
        _key_rows(0, 65)  # a row no longer fits a machine word


def test_key_is_row_major_upper_triangle():
    # fields of 3, 2 and 1 bits, row 0 first; in a field the bit of the
    # higher vertex is the more significant
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    assert _upper_key(g.rows) == 0b011_01_0
    assert _upper_key(Graph(4, [(0, 3)]).rows) == 0b100_00_0
    assert _upper_key(Graph(4, [(2, 3)]).rows) == 0b000_00_1


def test_key_order_is_row_order():
    labelled = [Graph.from_rows(rows) for rows in _all_labelled_rows(5)]
    random.Random(3).shuffle(labelled)
    by_rows = sorted(labelled, key=lambda g: g.rows)
    assert sorted(labelled, key=lambda g: _upper_key(g.rows)) == by_rows
    graphs = _key_test_graphs()
    for n in range(1, 17):
        same = [g for g in graphs if g.n == n]
        assert sorted(same, key=lambda g: _upper_key(g.rows)) == \
            sorted(same, key=lambda g: g.rows), n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 9, 12, 16, 63])
def test_graph6_from_keys_equals_to_graph6(monkeypatch, n):
    # C(4, 2) = 6 fills one payload byte, C(9, 2) = 36 six; order 63 has
    # the long header
    graphs = [Graph(n), complete_graph(n), *_random_graphs(50, [n], n)]
    if n <= 5:
        graphs += [Graph.from_rows(rows) for rows in _all_labelled_rows(n)]
    keys = [_upper_key(g.rows) for g in graphs]
    monkeypatch.setattr(graph, "_GRAPH6_CHUNK", 7)
    chunks = list(_graph6_chunks(keys, n))
    assert "".join(chunks) == "".join(to_graph6(g) + "\n" for g in graphs)
    assert [c.count("\n") for c in chunks] == \
        [7] * (len(graphs) // 7) + [len(graphs) % 7] * (len(graphs) % 7 > 0)


def test_graph6_from_keys_equals_to_graph6_on_every_small_graph():
    for n in range(1, 9):
        level = enumerate_graphs(n)
        assert level.graph6() == "".join(to_graph6(g) + "\n" for g in level), n


def test_graph6_malformed():
    def error(text):
        with pytest.raises(ValueError) as err:
            from_graph6(text)
        return type(err.value), str(err.value)

    assert error("") == (GraphFormatError, "empty graph6 string")
    assert error("D") == (  # payload too short for n=5
        GraphFormatError, "bit payload too short: need 2 bytes, got 0")
    assert error("A>") == (  # a character below 63
        GraphFormatError, "character '>' outside graph6 range 63..126")
    # control characters are no whitespace to graph6, \x1c-\x1f included
    assert error("A" + chr(30)) == (
        GraphFormatError, "character '\\x1e' outside graph6 range 63..126")
    assert error("A_" + chr(31)) == (
        GraphFormatError, "character '\\x1f' outside graph6 range 63..126")
    assert error("A_\t") == (
        GraphFormatError, "character '\\t' outside graph6 range 63..126")
    assert error("A_?") == (
        GraphFormatError, "trailing bytes after graph6 payload (1 extra)")
    # nonzero padding bits: K2 body with a stray low bit
    assert error("A" + chr(63 + 33)) == (
        GraphFormatError, "nonzero padding bits in graph6 payload")
    assert error("~@?") == (GraphFormatError, "truncated graph6 order header")
    assert error("~~??") == (
        GraphFormatError, "graph6 orders above 258047 not supported")
    # an order above MAX_ORDER is rejected from the header, before the
    # payload is read: its characters are never checked
    order = (ValueError, "order must be in 0..4096, got 4097")
    assert error("~@?@") == order
    assert error("~@?@" + chr(127)) == order
    assert error("~@?@" + "~" * 1_398_101) == order


def _pin_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if (i * i + 3 * j) % 7 < 3])


@pytest.mark.parametrize("g,head,length,digest", [
    # orders 62, 63 and 64 cross the switch to the four-character header
    (_pin_graph(62), "}KN@MscU", 317,
     "1a5b20b0d3a3f821ca5ec35c59c3889839c4bf9d288c5333b34fe1f397d4dcf5"),
    (_pin_graph(63), "~??~KN@M", 330,
     "d48531728557aeaac06c09bc21eaf141bf4030273225f10daa926c0185e6a6e9"),
    (_pin_graph(64), "~?@?KN@M", 340,
     "ed1ad50c81da856756d631c72809101081e8c90ec843ca04765b0e040663b6e3"),
    (sat_twin_free(8, 3), "~?CD????", 5659,
     "1db7e5e1dc2047e6a53feb74ab1ce83002a4feb866c7372ab368a6c6da974012"),
], ids=["62", "63", "64", "sat-twin-free-8-3"])
def test_graph6_pinned_encodings_round_trip(g, head, length, digest):
    s = to_graph6(g)
    assert (s[:8], len(s), hashlib.sha256(s.encode()).hexdigest()) == \
        (head, length, digest)
    assert from_graph6(s) == g


# -- twin classes -------------------------------------------------------------


def test_twin_classes_multipartite():
    t73 = complete_multipartite([3, 2, 2])
    blocks = twin_classes(t73)
    assert sorted(len(b) for b in blocks) == [2, 2, 3]
    assert sorted(v for b in blocks for v in b) == list(range(7))


def test_twin_classes_cycle_is_twin_free():
    blocks = twin_classes(cycle_graph(5))
    assert len(blocks) == 5
    assert all(len(b) == 1 for b in blocks)


def test_twin_classes_equal_degrees():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.4])
        blocks = twin_classes(g)
        assert sorted(v for b in blocks for v in b) == list(range(n))
        for block in blocks:
            degs = {g.degree(v) for v in block}
            assert len(degs) == 1
            # twins are never adjacent under the open-neighbourhood rule
            for i, u in enumerate(block):
                for v in block[i + 1:]:
                    assert not g.has_edge(u, v)
