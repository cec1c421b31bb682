import subprocess
import sys

import pytest

from turanlab import invariants
from turanlab.canon import certificate
from turanlab.constructions import (
    extremal_family,
    groetzsch_graph,
    threshold_size,
    turan_class_sizes,
)
from turanlab.graph import from_graph6, cycle_graph
from turanlab.verify import (
    _threshold_case,
    analyze_graph,
    classify_extremal,
    deficiency_table,
    family_inventory,
    verify_threshold,
)


def test_threshold_r2_small():
    rep = verify_threshold(2, [5, 6])
    assert rep["ok"]
    by_n = {c["n"]: c for c in rep["cases"]}
    assert by_n[5]["computed_max"] == 5
    assert by_n[5]["extremal_count"] == 1
    assert (certificate(from_graph6(by_n[5]["witnesses"][0]))
            == certificate(cycle_graph(5)))
    assert by_n[6]["computed_max"] == 7


def test_threshold_counts_enumeration():
    rep = verify_threshold(2, [5])
    assert rep["cases"][0]["enumerated"] == 14  # triangle-free order 5


def test_classification_r2_n5():
    rep = classify_extremal(2, 5)
    assert rep["ok"]
    assert rep["extremal_count"] == 1
    assert rep["unexplained"] == []
    assert rep["matched"][0]["family"] == [{"c5": [1, 1, 1, 1, 1], "parts": []}]


def test_classification_r2_n6_inventory():
    # regression: at order 6 the old standard members for l = 1, 2
    # coincide; the family has a single certificate, C5 with one class
    # doubled, and a single extremal graph
    rep = classify_extremal(2, 6)
    assert rep["ok"]
    assert rep["extremal_count"] == 1
    assert rep["family_certificates"] == 1
    assert rep["matched"][0]["family"] == [{"c5": [1, 1, 1, 1, 2], "parts": []}]


def test_classification_r2_n8_two_classes():
    rep = classify_extremal(2, 8)
    assert rep["ok"]
    assert rep["extremal_count"] == 2
    assert rep["unexplained"] == []
    assert sorted(m["family"][0]["c5"] for m in rep["matched"]) == [
        [1, 1, 1, 2, 3], [1, 1, 2, 2, 2]]
    assert all(len(m["family"]) == 1 for m in rep["matched"])


def test_family_inventory_prime_membership():
    # an (l, variant) member with extra vertex u, its l neighbours W in
    # the host class H and its neighbour v2 in the other class O is the
    # blow-up of C5 on u, W, O - v2, H - W, v2: sizes (1, l, |O| - 1,
    # |H| - l, 1), here (1, 2, 3, 1, 1) and (1, 2, 2, 2, 1)
    inv = family_inventory(8, 2)
    assert inv[certificate(extremal_family(8, 2, 2, "prime"))] == [((1, 1, 1, 2, 3), ())]
    assert inv[certificate(extremal_family(8, 2, 2, "standard"))] == [((1, 1, 2, 2, 2), ())]


@pytest.mark.parametrize("n,r,g6", [(9, 3, "H?~vnv{"), (7, 4, "FLr~w"), (8, 5, "GLr~~{")])
def test_family_inventory_holds_c5_joined_to_a_turan_graph(n, r, g6):
    # C5 joined to T(n-5, r-2) is extremal: at (9, 3) no (l, variant)
    # member is isomorphic to it, and at (7, 4) and (8, 5) it is the only
    # member, l = 1 standard
    parts = tuple(turan_class_sizes(n - 5, r - 2))
    assert family_inventory(n, r)[certificate(from_graph6(g6))] == [((1,) * 5, parts)]


@pytest.mark.parametrize("r,orders", [(2, range(5, 11)), (3, range(6, 9)), (4, range(7, 9))])
def test_family_inventory_is_the_extremal_set(r, orders):
    # both directions: every extremal graph is in the inventory, and every
    # member is extremal
    for n in orders:
        best, extremal, predicted, _ = _threshold_case(r, n)
        assert best == predicted
        assert set(family_inventory(n, r)) == {certificate(g) for g in extremal}, n


def test_family_inventory_holds_every_l_variant_member():
    members = 0
    for r in range(2, 6):
        for n in range(r + 3, 21):
            inv = family_inventory(n, r)
            for l in range(1, n):  # the builder alone says which l it takes
                for variant in ("standard", "prime"):
                    try:
                        g = extremal_family(n, r, l, variant)
                    except ValueError:
                        continue
                    members += 1
                    assert certificate(g) in inv, (n, r, l, variant)
    assert members == 229


def test_family_inventory_holds_the_order_10_graph_the_old_family_missed():
    # C5 blown up to (1, 1, 1, 1, 2) and joined to a class of 4 is
    # extremal at (10, 3); no (l, variant) member and no C5 joined to
    # T(5, 1) is isomorphic to it
    g = from_graph6("I?~vff|~_")
    assert g.edge_count == threshold_size(10, 3)
    assert family_inventory(10, 3)[certificate(g)] == [((1, 1, 1, 1, 2), (4,))]


def test_deficiency_table_pinch_35():
    rep = deficiency_table(3, 5)
    assert rep["pinched"] and rep["global_value"] == 2
    assert rep["gadget"]["chromatic_number"] == 5
    assert rep["lower_bound"] == 2


def test_deficiency_table_25_gadget_upper():
    rep = deficiency_table(2, 5)
    assert rep["lower_bound"] == 3
    assert rep["upper_bound"] == 6
    assert not rep["pinched"]
    assert rep["gadget"]["chromatic_number"] == 5


def test_deficiency_table_with_search():
    rep = deficiency_table(2, 3, max_order=5)
    assert rep["search"]["value"] == 1
    assert rep["search"]["minimal_order"] == 5
    assert rep["upper_bound"] == 1


def test_revalidation_survives_optimisation():
    # a bare assert vanishes under python -O; the check must still raise
    code = (
        "from turanlab.graph import cycle_graph\n"
        "from turanlab.verify import _revalidate_extremal\n"
        "try:\n"
        "    _revalidate_extremal(cycle_graph(4), 2, 4)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_analyze_finds_the_clique_number_once(monkeypatch):
    # the clique number analyze reports is also the colouring's lower bound
    calls = []
    search = invariants.max_clique

    def counted(g):
        calls.append(g.n)
        return search(g)

    monkeypatch.setattr(invariants, "max_clique", counted)
    entry = analyze_graph(groetzsch_graph())
    assert (entry["clique_number"], entry["chromatic_number"]) == (2, 4)
    assert calls == [11]
