"""Canonical labelling is checked three ways: certificates must agree
across relabellings (all of them for n <= 6, seeded ones for n = 7, 8),
must separate non-isomorphic graphs, and must equal, bit for bit, the
certificates of the full-recompute refinement that ``canon._refine``
replaced, kept here as ``_full_refine`` over vertex lists where canon's
cells are vertex masks.  The automorphism orbits that
``canonical_labelling`` returns must equal those of a search over every
permutation."""

import itertools
import random

import pytest

from turanlab import canon
from turanlab.canon import (
    _refine,
    canonical_certificate_rows,
    canonical_labelling,
    certificate,
)
from turanlab.constructions import extremal_family, groetzsch_graph, turan_graph
from turanlab.enumeration import enumerate_graphs
from turanlab.graph import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
)


def _random_graph(rng, n, p=0.5):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


def _relabel(g, perm):
    """Old vertex v becomes ``perm[v]``, through the edge list, so the
    shared row relabelling is not on both sides of a comparison."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _mask(cell):
    return sum(1 << v for v in cell)


def _cell(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _full_refine(cells, rows):
    """The refinement ``canon._refine`` replaced: every pass rebuilds every
    cell mask and splits every cell by its counts into all cells."""
    while True:
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        out = []
        split = False
        for c in cells:
            if len(c) == 1:
                out.append(c)
                continue
            groups = {}
            for v in c:
                sig = tuple((rows[v] & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(c)
            else:
                split = True
                for sig in sorted(groups):
                    out.append(groups[sig])
        if not split:
            return out
        cells = out


def _full_refine_certificates(monkeypatch, graphs):
    # canon's cells are vertex masks, the oracle's are vertex lists
    monkeypatch.setattr(canon, "_refine", lambda cells, rows, fresh: [
        _mask(c) for c in _full_refine([_cell(m) for m in cells], rows)])
    return [canonical_certificate_rows(g.rows, g.n) for g in graphs]


def test_refine_equals_full_refine_at_root_and_first_individualisation():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            rows = g.rows
            root = [_cell(m) for m in
                    _refine([(1 << n) - 1], rows, [(1 << n) - 1])]
            assert root == _full_refine([list(range(n))], rows)
            for idx, cell in enumerate(root):
                if len(cell) == 1:
                    continue
                for v in cell:
                    sub = root[:idx] + [[v], [u for u in cell if u != v]] \
                        + root[idx + 1:]
                    got = _refine([_mask(c) for c in sub], rows, [1 << v])
                    assert [_cell(m) for m in got] == _full_refine(sub, rows)


def test_certificates_equal_full_refine_up_to_order_eight(monkeypatch):
    graphs = [g for n in range(1, 9) for g in enumerate_graphs(n)]
    fast = [canonical_certificate_rows(g.rows, g.n) for g in graphs]
    assert _full_refine_certificates(monkeypatch, graphs) == fast


def test_certificates_equal_full_refine_on_random_graphs(monkeypatch):
    rng = random.Random(2024)
    graphs = [_random_graph(rng, rng.randrange(9, 17), rng.choice([0.2, 0.5, 0.8]))
              for _ in range(2000)]
    fast = [canonical_certificate_rows(g.rows, g.n) for g in graphs]
    assert _full_refine_certificates(monkeypatch, graphs) == fast


def test_relabellings_of_p3_agree():
    base = Graph(3, [(0, 1), (1, 2)])
    for perm in ([0, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0], [0, 2, 1], [2, 0, 1]):
        assert certificate(_relabel(base, perm)) == certificate(base)


def test_permutation_invariance_bulk():
    rng = random.Random(1729)
    for _ in range(1000):
        n = rng.randrange(1, 11)
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert certificate(_relabel(g, perm)) == certificate(g)


def test_certificate_equal_under_all_relabellings():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            edges = list(g.edges())
            for perm in itertools.permutations(range(n)):
                h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
                assert certificate(h) == g.rows


def test_certificate_equal_under_random_relabellings_orders_seven_eight():
    rng = random.Random(7)
    for n in (7, 8):
        for g in enumerate_graphs(n):
            edges = list(g.edges())
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
                assert certificate(h) == g.rows


def test_c5_self_complementary():
    c5 = cycle_graph(5)
    complement = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                           if not c5.has_edge(u, v)])
    assert complement != c5
    assert certificate(c5) == certificate(complement)


def test_groetzsch_relabellings():
    rng = random.Random(5)
    g = groetzsch_graph()
    target = certificate(g)
    for _ in range(25):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert certificate(_relabel(g, perm)) == target


def test_isomorphism_examples():
    assert certificate(complete_graph(3)) == certificate(cycle_graph(3))
    assert (certificate(Graph(4, [(0, 1), (1, 2), (2, 3)]))
            != certificate(Graph(4, [(0, 1), (0, 2), (0, 3)])))
    assert certificate(extremal_family(5, 2)) == certificate(cycle_graph(5))
    assert certificate(Graph(0)) == ()


def test_symmetric_families():
    # twin-heavy, component-heavy and vertex-transitive inputs all stay fast
    k555 = complete_multipartite([5, 5, 5])
    assert certificate(_relabel(k555, list(reversed(range(15))))) == \
        certificate(k555)
    five_k2 = Graph(10, [(2 * i, 2 * i + 1) for i in range(5)])
    perm = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
    assert certificate(_relabel(five_k2, perm)) == certificate(five_k2)
    c11 = cycle_graph(11)
    rot = [(i + 3) % 11 for i in range(11)]
    assert certificate(_relabel(c11, rot)) == certificate(c11)


def test_certificate_separates_non_isomorphic():
    # all 11 graphs on 4 vertices yield 11 distinct certificates
    seen = set()
    for bits in range(1 << 6):
        edges = []
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for t, pair in enumerate(pairs):
            if (bits >> t) & 1:
                edges.append(pair)
        seen.add(certificate(Graph(4, edges)))
    assert len(seen) == 11


def _brute_force_orbits(g):
    """orbit[v]: the least vertex that an automorphism maps v to, over
    every permutation of the vertices.  Permutations are built one image
    at a time, and a prefix that already breaks an adjacency is dropped
    with all its completions, none of which is an automorphism."""
    n = g.n
    adj = [[g.has_edge(u, v) for v in range(n)] for u in range(n)]
    orbit = list(range(n))
    image = []

    def extend(used):
        v = len(image)
        if v == n:
            for u, w in enumerate(image):
                orbit[u] = min(orbit[u], w)
            return
        for w in range(n):
            if not used >> w & 1 and all(adj[u][v] == adj[x][w]
                                         for u, x in enumerate(image)):
                image.append(w)
                extend(used | 1 << w)
                image.pop()

    extend(0)
    return orbit


def _disjoint(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


_STAR3 = complete_multipartite([1, 3])
_ORBIT_CASES = {
    "2C5": _disjoint(cycle_graph(5), cycle_graph(5)),
    "3K2+K1": _disjoint(*[complete_graph(2)] * 3, Graph(1)),
    "2K13": _disjoint(_STAR3, _STAR3),
    "K33": complete_multipartite([3, 3]),
    "T(7,3)": turan_graph(7, 3),
}


def _check_labelling(g):
    cert, lab, orbit = canonical_labelling(g.rows, g.n)
    assert cert == canonical_certificate_rows(g.rows, g.n)
    assert sorted(lab) == list(range(g.n))
    assert g.induced(lab).rows == cert
    assert orbit == _brute_force_orbits(g)


def test_orbits_equal_brute_force_up_to_order_six():
    rng = random.Random(11)
    for n in range(7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            _check_labelling(g)
            _check_labelling(_relabel(g, perm))


@pytest.mark.parametrize("name", sorted(_ORBIT_CASES))
def test_orbits_equal_brute_force_across_components_and_twins(name):
    g = _ORBIT_CASES[name]
    rng = random.Random(name)
    _check_labelling(g)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        _check_labelling(_relabel(g, perm))
