import hashlib
import tracemalloc
from math import comb

import pytest

from turanlab.canon import certificate
from turanlab.constructions import (
    extremal_family,
    groetzsch_graph,
    k4free_5chromatic,
    sat_non_blowup,
    sat_twin_free,
    three_sat_many_twin_classes,
    three_sat_twin_free,
    threshold_size,
    trianglefree_5chromatic,
    turan_graph,
    turan_number,
)
from turanlab.graph import Graph, complete_graph, cycle_graph, to_graph6, twin_classes
from turanlab.invariants import (
    chromatic_number,
    clique_number,
    find_clique,
    is_clique_free,
    is_r_colorable,
)
from turanlab.saturation import is_saturated


def test_turan_numbers():
    assert turan_number(5, 2) == 6
    assert turan_number(10, 3) == 33
    assert turan_number(7, 4) == 18


def test_turan_graph_shapes():
    t63 = turan_graph(6, 3)
    assert t63.n == 6 and t63.edge_count == 12
    t52 = turan_graph(5, 2)
    assert sorted(t52.degrees()) == [2, 2, 2, 3, 3]
    assert turan_graph(10, 3).edge_count == turan_number(10, 3)


def test_turan_graph_is_saturated():
    for n, r in ((5, 2), (6, 3), (9, 3), (8, 4)):
        assert is_saturated(turan_graph(n, r), r + 1).saturated


def test_threshold_values():
    assert threshold_size(5, 2) == 5
    assert threshold_size(10, 3) == 31
    assert threshold_size(7, 4) == 16  # small-order branch
    with pytest.raises(ValueError):
        threshold_size(6, 4)  # n < r+3


def test_extremal_graph_properties():
    assert certificate(extremal_family(5, 2)) == certificate(cycle_graph(5))
    g = extremal_family(10, 3)
    assert g.edge_count == 31 == threshold_size(10, 3)
    assert not is_r_colorable(extremal_family(7, 2), 2)[0]


def test_extremal_family_sweep():
    # every valid member hits the threshold size, avoids the forbidden
    # clique and is not r-colourable (orders up to 14); the builder alone
    # says which l it takes
    for r in (2, 3, 4):
        for n in range(r + 3, 15):
            for l in range(1, n):
                for variant in ("standard", "prime"):
                    try:
                        g = extremal_family(n, r, l, variant)
                    except ValueError:
                        continue
                    assert g.edge_count == threshold_size(n, r)
                    assert is_clique_free(g, r + 1)
                    assert not is_r_colorable(g, r)[0]


def test_extremal_family_prime_distinct_when_sizes_differ():
    std = extremal_family(8, 2, 2, "standard")
    prime = extremal_family(8, 2, 2, "prime")
    assert certificate(std) != certificate(prime)
    # l = 1 coincides with the base construction in both variants
    assert extremal_family(8, 2, 1, "prime") == extremal_family(8, 2, 1)


def test_extremal_family_prime_rejected_on_equal_classes():
    # the two attachment classes have equal size here, so the mirrored
    # move is isomorphic to the standard one and is not a separate member
    with pytest.raises(ValueError):
        extremal_family(8, 3, 1, "prime")
    with pytest.raises(ValueError):
        extremal_family(7, 2, 1, "prime")


def test_extremal_family_range_errors():
    with pytest.raises(ValueError):
        extremal_family(10, 3, 0)
    with pytest.raises(ValueError):
        extremal_family(10, 3, 3)
    with pytest.raises(ValueError):
        extremal_family(10, 3, 1, "dual")


def test_groetzsch():
    g = groetzsch_graph()
    assert g.n == 11 and g.edge_count == 20
    assert clique_number(g)[0] == 2
    assert chromatic_number(g)[0] == 4


def test_k4free_5chromatic():
    g = k4free_5chromatic()
    assert g.n == 12 and g.edge_count == 33
    assert clique_number(g)[0] == 3
    assert chromatic_number(g)[0] == 5


def test_trianglefree_5chromatic_inclusive():
    g = trianglefree_5chromatic()
    # 22 independent sets (11 in the 5-cycle, doubled by the free vertex)
    assert g.n == 8 + 2 * 22
    assert is_clique_free(g, 3)
    assert chromatic_number(g)[0] == 5


def test_trianglefree_5chromatic_exclusive_variant():
    g = trianglefree_5chromatic(include_empty=False)
    assert g.n == 8 + 2 * 21
    assert is_clique_free(g, 3)
    assert chromatic_number(g)[0] == 5


def test_three_sat_many_twin_classes():
    g = three_sat_many_twin_classes(2, 40)
    assert g.n == 40
    rep = is_saturated(g, 3)
    assert rep.clique_free and rep.saturated
    assert len(twin_classes(g)) >= 2 ** 3 + 2  # 2^{f+1} + f
    assert g.edge_count > turan_number(40, 2) - 40 * 2


def test_three_sat_many_twin_classes_parameter_checks():
    with pytest.raises(ValueError):
        three_sat_many_twin_classes(3, 40)  # f too large for n
    with pytest.raises(ValueError):
        three_sat_many_twin_classes(2, 11)  # bulk sets would be empty


def test_sat_non_blowup():
    g = sat_non_blowup(4, 3, 40)
    rep = is_saturated(g, 4)
    assert rep.clique_free and rep.saturated
    # no two window-one vertices are twins
    block_of = {v: i for i, b in enumerate(twin_classes(g)) for v in b}
    w1 = list(range(comb(4, 2)))
    assert len({block_of[v] for v in w1}) == len(w1)


def test_sat_non_blowup_small_m():
    # m = 2: exactly two distinct half-subsets of a 2-window exist
    assert len({frozenset(c) for c in
                __import__("itertools").combinations(range(2), 1)}) == 2
    g = sat_non_blowup(2, 3, 30)
    assert is_saturated(g, 4).saturated


def test_three_sat_twin_free_m16():
    g = three_sat_twin_free(16)
    assert g.n == 48
    assert g.edge_count == 424  # 256 + 128 + 32 + 8
    assert g.edge_count > 16 * 16 + 2 * 16 * 4
    rep = is_saturated(g, 3)
    assert rep.clique_free and rep.saturated
    assert len(twin_classes(g)) == g.n


def test_three_sat_twin_free_closed_form():
    for m, t in ((2, 1), (4, 2), (8, 3)):
        g = three_sat_twin_free(m)
        assert g.n == 2 * m + 4 * t
        assert g.edge_count == m * m + 2 * m * t + 2 * t * t + 2 * t
        assert is_saturated(g, 3).saturated
        assert len(twin_classes(g)) == g.n
    with pytest.raises(ValueError):
        three_sat_twin_free(12)


def test_sat_twin_free():
    g = sat_twin_free(4, 3)
    assert g.n == 3 * (6 + 8 + 1) == 45
    rep = is_saturated(g, 4)
    assert rep.clique_free and rep.saturated
    assert len(twin_classes(g)) == 45
    # edge count: the exact accounting gives 525 (including all three
    # greedily addable hub edges); the leading-order shape says the size
    # sits within r*n of the balanced count minus r*M*m
    t, r, big_m, m, n = turan_number(45, 3), 3, 6, 4, 45
    assert g.edge_count == 525
    assert abs(g.edge_count - (t - r * big_m * m)) <= r * n
    assert g.edge_count <= t - 3 * big_m * m + 3 * n
    hub_edges = sum(1 for u, v in g.edges() if u >= 42 and v >= 42)
    base = turan_number(42, 3)
    assert g.edge_count == (base - r * (2 * big_m * m + m * m - big_m * m - m)
                            + r * (2 * m + big_m) + hub_edges)


def test_sat_twin_free_hub_edges_follow_the_full_graph_rule():
    # oracle: strip the hub edges and add them back in index order, each
    # kept when the whole graph stays K_{r+1}-free
    for m in (2, 4):
        for r in (3, 4, 5):
            g = sat_twin_free(m, r)
            hubs = range(g.n - r, g.n)
            hub_mask = sum(1 << h for h in hubs)
            rows = [row & ~hub_mask if v in hubs else row
                    for v, row in enumerate(g.rows)]
            for i in hubs:
                for j in range(i + 1, g.n):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                    if find_clique(Graph.from_rows(rows), r + 1) is not None:
                        rows[i] &= ~(1 << j)
                        rows[j] &= ~(1 << i)
            assert tuple(rows) == g.rows, (m, r)
            assert is_clique_free(g, r + 1), (m, r)


def _family_grid():
    """(builder, arguments) over a grid of every parameterised family,
    accepted and rejected sets alike, with r >= 2 throughout."""
    for n in range(30):
        for r in range(2, 9):
            yield turan_graph, (n, r)
            for l in range(8):
                for variant in ("standard", "prime"):
                    yield extremal_family, (n, r, l, variant)
    for f in range(-1, 4):
        for n in range(72):
            yield three_sat_many_twin_classes, (f, n)
    for m in range(9):
        for r in range(2, 6):
            for n in (20, 40, 60, 120):
                yield sat_non_blowup, (m, r, n)
        yield three_sat_twin_free, (m,)
    for m in range(7):
        for r in range(2, 6):
            yield sat_twin_free, (m, r)
    for include_empty in (True, False):
        yield trianglefree_5chromatic, (include_empty,)


def test_family_grid_is_pinned():
    # one line per parameter set: its graph6, or ValueError where it is
    # rejected, so a rewrite of a builder must keep every labelling and
    # every rejection
    lines = []
    for build, args in _family_grid():
        try:
            out = to_graph6(build(*args))
        except ValueError:
            out = "ValueError"
        lines.append(f"{build.__name__}{args} {out}")
    assert len(lines) == 4113
    assert sum(not line.endswith("ValueError") for line in lines) == 1027
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3d4eba9aa67b9dabb7ee9c93923959f85cd4875879fa96eefc0d4c377c60b12a"


@pytest.mark.parametrize("build,args", [
    (extremal_family, (5, 1)),
    (extremal_family, (6, 1, 2)),
    (extremal_family, (6, 0, 2)),
    (extremal_family, (6, -1, 2)),
])
def test_extremal_builders_reject_r_below_two(build, args):
    # at r = 1 the two attachment classes would be one and the same class
    with pytest.raises(ValueError, match="r must be >= 2"):
        build(*args)


@pytest.mark.parametrize("build,args,expected", [
    (turan_graph, (5, 10 ** 6), complete_graph(5)),
    (turan_graph, (0, 10 ** 6), Graph(0)),
    (turan_number, (5, 10 ** 6), 10),
    (sat_non_blowup, (2, 10 ** 6, 20), ValueError),
], ids=["turan-graph", "turan-graph-order-0", "turan-number", "sat-non-blowup"])
def test_huge_r_is_bounded_before_it_allocates(build, args, expected):
    tracemalloc.start()
    try:
        try:
            value = build(*args)
        except ValueError as exc:
            value = type(exc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak < 1 << 20  # a list of r class sizes would take 8 MB


def test_huge_f_is_rejected_without_its_power():
    # n <= 4^f is decided from bit lengths: 4^(10^7) would take 2.5 MB and
    # could not be written into the message
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"need n > 4\^f \(f below"):
            three_sat_many_twin_classes(10 ** 7, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a small power is still written out, and n = 4^f + 1 is accepted
    with pytest.raises(ValueError, match=r"need n > 4\^f = 16 \(f below"):
        three_sat_many_twin_classes(2, 16)
    assert three_sat_many_twin_classes(2, 17).n == 17
