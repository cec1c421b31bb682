import pytest

from turanlab.constructions import sat_non_blowup, sat_twin_free
from turanlab.graph import Graph, complete_graph, complete_multipartite, from_graph6
from turanlab.invariants import CliquePresentError
from turanlab.tripartite import (
    CertificateError,
    TripartiteCertificate,
    extract_tripartite,
    validate_certificate,
)


def test_full_cover_on_balanced_multipartite():
    cert = extract_tripartite(complete_multipartite([4, 4, 4]))
    assert cert.covered == cert.order == 12
    for name in cert._fields:
        with pytest.raises(AttributeError):
            setattr(cert, name, None)
    assert sorted(len(p) for p in cert.parts) == [4, 4, 4]
    # with no exceptional vertex each colour class is one bucket, and it
    # lands in its own slot, empty slots included
    for g, parts in [
        (Graph(0), ((), (), ())),
        (complete_graph(1), ((0,), (), ())),
        (complete_graph(2), ((0,), (1,), ())),
        (complete_graph(3), ((0,), (1,), (2,))),
        (complete_multipartite([2, 3, 4]), ((0, 1), (2, 3, 4), (5, 6, 7, 8))),
        (complete_multipartite([3, 1, 2]), ((0, 1, 2), (3,), (4, 5))),
    ]:
        assert extract_tripartite(g).parts == parts, g.rows


def test_gadget_graph_extraction():
    g = sat_non_blowup(4, 3, 40)
    cert = extract_tripartite(g)
    assert 2 * cert.covered >= cert.order
    # regression: the window-free bulks plus the first window survive
    assert (cert.covered, cert.order) == (31, 40)
    validate_certificate(g, cert)


@pytest.mark.parametrize("build,covered,parts", [
    (lambda: sat_twin_free(4, 3), {1: 18, 2: 18, 3: 18, 4: 18, 10: 16},
     {4: (range(0, 6), range(14, 20), range(28, 34))}),
    (lambda: sat_twin_free(8, 3), {1: 210, 2: 210, 3: 210, 8: 210, 10: 148},
     {8: (range(0, 70), range(86, 156), range(172, 242))}),
    # 4-saturated, from a seeded random greedy saturation: at c_param = 1
    # every A_v stays out of the core, and the certificate still covers 10
    (lambda: from_graph6("K^zMmjcN~Gx^"), {1: 10, 2: 10, 3: 10, 10: 10}, {}),
], ids=["sat-twin-free-4", "sat-twin-free-8", "saturated-12"])
def test_large_neighbourhood_branch(build, covered, parts):
    # a peeled vertex with |A_v| >= c_param keeps A_v out of the core (A_v
    # still leaves the parts); the largest |A_v| is 8 on sat_twin_free(8, 3),
    # so the default cutoff of 10 never takes that branch there.  The parts
    # are pinned where c_param equals some |A_v| (4 and 8 on the twin-free
    # graphs), so the comparison's boundary is fixed
    g = build()
    for c_param, count in covered.items():
        cert = extract_tripartite(g, c_param=c_param)
        validate_certificate(g, cert)
        assert cert.covered == count, c_param
        if c_param in parts:
            assert cert.parts == tuple(map(tuple, parts[c_param])), c_param


def test_rejects_non_saturated():
    # K_{4,4,4} less the edges from 0 to 4..7
    bad = Graph(12, [(u, v) for u, v in complete_multipartite([4, 4, 4]).edges()
                     if not (u == 0 and v < 8)])
    with pytest.raises(CliquePresentError):
        extract_tripartite(bad)


def test_rejects_k4():
    with pytest.raises(CliquePresentError) as err:
        extract_tripartite(complete_graph(4))
    assert len(err.value.witness) == 4
    # neither saturated nor K4-free: the K4 is reported, with the first one
    g = Graph(7, [(a, b) for a in range(1, 6) for b in range(a + 1, 6)
                  if (a, b) != (1, 2)] + [(0, 6)])
    with pytest.raises(CliquePresentError) as err:
        extract_tripartite(g)
    assert str(err.value) == "graph contains a K_4"
    assert err.value.witness == (1, 3, 4, 5)


def test_validate_catches_bad_certificates():
    g = complete_multipartite([2, 2, 2])
    with pytest.raises(CertificateError):
        validate_certificate(
            g, TripartiteCertificate(((0, 1), (2,), (2,)), 6))  # reuse
    with pytest.raises(CertificateError):
        validate_certificate(
            g, TripartiteCertificate(((0, 2), (1,), (4,)), 6))  # not independent
    dent = Graph(6, [e for e in g.edges() if e != (0, 2)])
    with pytest.raises(CertificateError) as err:
        validate_certificate(
            dent, TripartiteCertificate(((0, 1), (2, 3), (4, 5)), 6))
    assert err.value.offender == (0, 2)
