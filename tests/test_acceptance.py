"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is zero.  Expensive enumerations are shared between
criteria through the module-level level cache, so the whole suite runs in
a few minutes; the chromatic refutation of the big triangle-free gadget
carries an explicit node budget and fails loudly (never silently) if the
budget trips.
"""

from itertools import combinations

import pytest

from turanlab.canon import are_isomorphic, certificate
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
    turan_number,
)
from turanlab.deficiency import (
    blowup_edge_count,
    deficiency,
    deficiency_lower_bound,
    optimal_blowup,
)
from turanlab.enumeration import enumerate_graphs, levels_up_to
from turanlab.graph import (
    Graph,
    complete_multipartite,
    from_graph6,
    to_graph6,
    twin_classes,
)
from turanlab.invariants import (
    SearchBudgetExceeded,
    chromatic_number,
    clique_number,
    is_clique_free,
    is_r_colorable,
)
from turanlab.saturation import is_saturated
from turanlab.symmetrization import zykov, zykov_reduce
from turanlab.tripartite import extract_tripartite, validate_certificate
from turanlab.verify import classify_extremal, deficiency_search, deficiency_table


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- criterion 1: exact threshold reproduction --------------------------------

THRESHOLD_RANGES = {2: range(5, 11), 3: range(6, 9), 4: range(7, 9)}


def test_criterion_1_threshold_exact():
    checked = []
    for r, ns in THRESHOLD_RANGES.items():
        for n in ns:
            predicted = threshold_size(n, r)
            best = -1
            for g in enumerate_graphs(n, r + 1):
                if g.edge_count > best and not is_r_colorable(g, r)[0]:
                    best = g.edge_count
            assert best == predicted, (r, n, best, predicted)
            checked.append((r, n))
    _report("criterion 1", f"threshold exact at {len(checked)} (r, n) pairs")


# -- criterion 2: classification of the extremal graphs -----------------------

CLASSIFY_RANGES = {2: range(5, 9), 3: range(7, 9), 4: range(7, 9)}


def test_criterion_2_classification():
    total = 0
    for r, ns in CLASSIFY_RANGES.items():
        for n in ns:
            rep = classify_extremal(r, n)
            assert rep["ok"], (r, n, rep["unexplained"])
            assert rep["extremal_count"] >= 1
            assert rep["unexplained"] == []
            total += rep["extremal_count"]
    _report("criterion 2", f"{total} extremal graphs, zero unexplained")


# -- criterion 3: deficiency pinches ------------------------------------------


def test_criterion_3_deficiency_pinches():
    assert deficiency(groetzsch_graph(), 2).value == 3

    empty = deficiency_search(2, 4, 10)
    assert empty["complete"] and empty["value"] is None

    found = deficiency_search(2, 4, 11)
    assert found["complete"] and found["value"] == 3
    assert found["minimal_order"] == 11
    assert any(are_isomorphic(from_graph6(w), groetzsch_graph())
               for w in found["witnesses"])

    table35 = deficiency_table(3, 5)
    assert table35["pinched"] and table35["global_value"] == 2
    assert deficiency(k4free_5chromatic(), 3).value == 2
    assert deficiency_lower_bound(3, 5) == 2
    assert chromatic_number(k4free_5chromatic())[0] == 5

    gadget = trianglefree_5chromatic()
    assert deficiency(gadget, 2).value == 6
    try:
        chi, coloring = chromatic_number(gadget, node_budget=20_000_000)
    except SearchBudgetExceeded as exc:
        pytest.fail("chromatic refutation budget tripped: chi in "
                    f"[{exc.lower}, {exc.upper}] is an unknown outcome")
    assert chi == 5 and coloring.is_proper(gadget)
    _report("criterion 3",
            "search min 3 at order 11 (empty at 10); rank-3 pinch at 2; "
            "gadget deficiency 6 with chi = 5 exact")


# -- criterion 4: construction suite ------------------------------------------


def test_criterion_4_construction_suite():
    # 3-saturated with many twin classes (f = 2, n = 40)
    g = three_sat_many_twin_classes(2, 40)
    rep = is_saturated(g, 3)
    assert rep.clique_free and rep.saturated
    assert len(twin_classes(g)) >= 2 ** 3 + 2
    assert g.edge_count > turan_number(40, 2) - 40 * 2

    # clique-saturated non-blow-up (m = 4, r = 3, n = 40)
    g = sat_non_blowup(4, 3, 40)
    rep = is_saturated(g, 4)
    assert rep.clique_free and rep.saturated
    block_of = {v: i for i, b in enumerate(twin_classes(g)) for v in b}
    w1_blocks = [block_of[v] for v in range(6)]
    assert len(set(w1_blocks)) == 6

    # twin-free triangle-saturated (m = 16): exact size 424
    g = three_sat_twin_free(16)
    rep = is_saturated(g, 3)
    assert rep.clique_free and rep.saturated
    assert g.n == 48 and g.edge_count == 424
    assert g.edge_count > 16 * 16 + 2 * 16 * 4
    assert len(twin_classes(g)) == g.n

    # twin-free clique-saturated (m = 4, r = 3): n = 45, exact size 525,
    # leading-order shape within r*n of the balanced count minus r*M*m
    g = sat_twin_free(4, 3)
    rep = is_saturated(g, 4)
    assert rep.clique_free and rep.saturated
    assert g.n == 45 and len(twin_classes(g)) == 45
    assert g.edge_count == 525
    t = turan_number(45, 3)
    assert abs(g.edge_count - (t - 3 * 6 * 4)) <= 3 * 45
    assert g.edge_count <= t - 3 * 6 * 4 + 3 * 45
    _report("criterion 4", "all four constructions pass their predicate sets")


# -- criterion 5: property-based substitutes for the asymptotic results -------


def test_criterion_5a_symmetrization_identities():
    checked = 0
    for n in range(2, 8):
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
                    assert clique_number(z)[0] == w_del, (g.rows, u, v)
                    assert chromatic_number(z)[0] == chi_del, (g.rows, u, v)
                    checked += 1
    _report("criterion 5a", f"deletion identities on {checked} cases")


def test_criterion_5b_turan_pointwise():
    checked = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            w = clique_number(g)[0]
            reduced, _ = zykov_reduce(g)
            assert g.edge_count <= reduced.edge_count
            assert reduced.edge_count <= turan_number(n, max(w, 1))
            checked += 1
    _report("criterion 5b", f"size bound reproved pointwise on {checked} graphs")


def test_criterion_5c_degree_bound():
    checked = 0
    for level in levels_up_to(9, forbidden_clique=3):
        for g in level:
            if g.n < 3 or is_r_colorable(g, 2)[0]:
                continue
            assert min(g.degrees()) * 5 <= 2 * g.n, g.rows
            checked += 1
    _report("criterion 5c", f"min-degree bound on {checked} non-bipartite graphs")


def test_criterion_5d_tripartite_bound_m2():
    from turanlab.graph import bits

    pairs = [(i, j) for i in range(2) for j in range(2)]
    best = -1
    for ab in range(16):
        for ac in range(16):
            for bc in range(16):
                edges = [(pairs[t][0], 2 + pairs[t][1]) for t in bits(ab)]
                edges += [(pairs[t][0], 4 + pairs[t][1]) for t in bits(ac)]
                edges += [(2 + pairs[t][0], 4 + pairs[t][1]) for t in bits(bc)]
                g = Graph(6, edges)
                if is_clique_free(g, 3):
                    best = max(best, g.edge_count)
    assert best <= turan_number(6, 3) - 1
    _report("criterion 5d", f"exhaustive tripartite bound, max size {best}")


def test_criterion_5e_certificates_revalidate():
    instances = [
        complete_multipartite([4, 4, 4]),
        sat_non_blowup(4, 3, 40),
        sat_twin_free(4, 3),
    ]
    for g in instances:
        cert = extract_tripartite(g)
        validate_certificate(g, cert)
        assert cert.covered > 0
    _report("criterion 5e", f"{len(instances)} certificates re-validated")


def test_criterion_5f_small_window_colorable():
    checked = 0
    for level in levels_up_to(9, forbidden_clique=3):
        for g in level:
            n = g.n
            if not any(n - g.degree(u) - g.degree(v) <= 2 for u, v in g.edges()):
                continue
            assert is_r_colorable(g, 3)[0], g.rows
            checked += 1
    _report("criterion 5f", f"window implies 3-colourable on {checked} graphs")


# -- criterion 6: blow-up optimiser oracle equivalence -------------------------


def _weight_vectors(l: int, n: int):
    for cuts in combinations(range(1, n), l - 1):
        prev = 0
        parts = []
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(n - prev)
        yield parts


def test_criterion_6_blowup_oracle_equivalence():
    checked = 0
    for order in range(1, 7):
        for h in enumerate_graphs(order):
            for n in range(order, 15):
                _, got = optimal_blowup(h, n)
                best = max(blowup_edge_count(h, w)
                           for w in _weight_vectors(order, n))
                assert got == best, (h.rows, n, got, best)
                checked += 1
    _report("criterion 6", f"optimizer equals brute force on {checked} instances")


# -- criterion 7: kernel oracles ----------------------------------------------


def _labeled_class_count(n: int) -> int:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for bitsel in range(1 << len(pairs)):
        g = Graph(n, [p for t, p in enumerate(pairs) if (bitsel >> t) & 1])
        seen.add(certificate(g))
    return len(seen)


def test_criterion_7_kernel_oracles():
    counts = [len(enumerate_graphs(n)) for n in range(1, 7)]
    assert counts == [1, 2, 4, 11, 34, 156]
    oracle = [_labeled_class_count(n) for n in range(1, 7)]
    assert oracle == counts

    round_tripped = 0
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            assert from_graph6(to_graph6(g)) == g
            round_tripped += 1
    _report("criterion 7",
            f"counts {counts} match the labeled oracle; "
            f"{round_tripped} graphs round-trip bit-exactly")


# -- class counts against OEIS -------------------------------------------------

A006785 = [1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172, 105071]  # triangle-free
A000088 = [1, 2, 4, 11, 34, 156, 1044, 12346]                  # all graphs


def test_class_counts_match_oeis():
    # the levels come from the cache criteria 3 and 7 fill
    assert [len(level) for level in levels_up_to(11, forbidden_clique=3)] == A006785
    assert [len(level) for level in levels_up_to(8)] == A000088
    _report("OEIS counts", "A006785 to order 11, A000088 to order 8")
