import itertools
import random

from turanlab.canon import are_isomorphic, canonical_form, certificate
from turanlab.constructions import extremal_graph, groetzsch_graph
from turanlab.enumeration import enumerate_graphs
from turanlab.graph import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
)


def _random_graph(rng, n, p=0.5):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


def test_relabellings_of_p3_agree():
    base = path_graph(3)
    for perm in ([0, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0], [0, 2, 1], [2, 0, 1]):
        assert canonical_form(base.relabel(perm)) == canonical_form(base)


def test_permutation_invariance_bulk():
    rng = random.Random(1729)
    for _ in range(1000):
        n = rng.randrange(1, 11)
        g = _random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert certificate(g.relabel(perm)) == certificate(g)


def test_certificate_equal_under_all_relabellings():
    # relabel through edge lists, not Graph.relabel, so a fault in the
    # shared row relabelling cannot hide on both sides of the comparison
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            edges = list(g.edges())
            for perm in itertools.permutations(range(n)):
                h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
                assert certificate(h) == g.rows


def test_c5_self_complementary():
    c5 = cycle_graph(5)
    assert canonical_form(c5) == canonical_form(c5.complement())


def test_groetzsch_relabellings():
    rng = random.Random(5)
    g = groetzsch_graph()
    target = canonical_form(g)
    for _ in range(25):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == target


def test_isomorphism_examples():
    assert are_isomorphic(complete_graph(3), cycle_graph(3))
    assert not are_isomorphic(path_graph(4), Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert are_isomorphic(extremal_graph(5, 2), cycle_graph(5))


def test_symmetric_families():
    # twin-heavy, component-heavy and vertex-transitive inputs all stay fast
    assert canonical_form(complete_multipartite([5, 5, 5])) == \
        canonical_form(complete_multipartite([5, 5, 5]).relabel(
            list(reversed(range(15)))))
    five_k2 = Graph(10, [(2 * i, 2 * i + 1) for i in range(5)])
    perm = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
    assert canonical_form(five_k2.relabel(perm)) == canonical_form(five_k2)
    c11 = cycle_graph(11)
    rot = [(i + 3) % 11 for i in range(11)]
    assert canonical_form(c11.relabel(rot)) == canonical_form(c11)


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
