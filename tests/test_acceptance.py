"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is zero.  Expensive enumerations are shared between
criteria through the module-level level cache, so the whole suite runs in
a few minutes; the chromatic refutation of the big triangle-free gadget
carries an explicit node budget and fails loudly (never silently) if the
budget trips.
"""

from itertools import combinations

import pytest

from turanlab.canon import certificate
from turanlab.constructions import (
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
from turanlab.invariants import SearchBudgetExceeded, chromatic_number
from turanlab.saturation import is_saturated
from turanlab.tripartite import extract_tripartite, validate_certificate
from turanlab.verify import (
    check_min_degree_bound,
    check_small_window_colorable,
    check_symmetrization_identities,
    check_trifree_tripartite_bound,
    check_turan_pointwise,
    classify_extremal,
    deficiency_search,
    deficiency_table,
    verify_threshold,
)


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- criterion 1: exact threshold reproduction --------------------------------

THRESHOLD_RANGES = {2: range(5, 11), 3: range(6, 9), 4: range(7, 9)}


def test_criterion_1_threshold_exact():
    checked = []
    for r, ns in THRESHOLD_RANGES.items():
        rep = verify_threshold(r, ns)
        assert rep["ok"], rep
        for case in rep["cases"]:
            assert case["computed_max"] == threshold_size(case["n"], r), (r, case)
            checked.append((r, case["n"]))
    assert len(checked) == sum(len(ns) for ns in THRESHOLD_RANGES.values())
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
    assert certificate(groetzsch_graph()) in {
        certificate(from_graph6(w)) for w in found["witnesses"]}

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
    rep = check_symmetrization_identities()
    assert rep["ok"] and rep["checked"] == 49_368, rep
    _report("criterion 5a", f"deletion identities on {rep['checked']} cases")


def test_criterion_5b_turan_pointwise():
    rep = check_turan_pointwise()
    assert rep["ok"] and rep["checked"] == 1_252, rep
    _report("criterion 5b", f"size bound reproved pointwise on {rep['checked']} graphs")


def test_criterion_5c_degree_bound():
    rep = check_min_degree_bound()
    assert rep["ok"] and rep["checked"] == 908, rep
    _report("criterion 5c", f"min-degree bound on {rep['checked']} non-bipartite graphs")


def test_criterion_5d_tripartite_bound_m2():
    # every triangle-free tripartite graph with parts (2, 2, 2) misses at
    # least one edge off the balanced count; the exhaustive maximum is two
    # complete cross-pairs
    rep = check_trifree_tripartite_bound()
    assert rep["ok"] and rep["labeled_graphs"] == 4_096, rep
    assert rep["max_size"] == 8 and rep["bound"] == turan_number(6, 3) - 1 == 11
    _report("criterion 5d", f"exhaustive tripartite bound, max size {rep['max_size']}")


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
    rep = check_small_window_colorable()
    assert rep["ok"] and rep["checked"] == 1_729, rep
    _report("criterion 5f", f"window implies 3-colourable on {rep['checked']} graphs")


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
