import subprocess
import sys

import pytest

from turanlab import invariants
from turanlab.canon import are_isomorphic, certificate
from turanlab.constructions import groetzsch_graph
from turanlab.graph import from_graph6, cycle_graph
from turanlab.verify import (
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
    assert are_isomorphic(from_graph6(by_n[5]["witnesses"][0]), cycle_graph(5))
    assert by_n[6]["computed_max"] == 7


def test_threshold_counts_enumeration():
    rep = verify_threshold(2, [5])
    assert rep["cases"][0]["enumerated"] == 14  # triangle-free order 5


def test_classification_r2_n5():
    rep = classify_extremal(2, 5)
    assert rep["ok"]
    assert rep["extremal_count"] == 1
    assert rep["unexplained"] == []
    labels = rep["matched"][0]["family"]
    assert {"l": 1, "variant": "standard"} in labels


def test_classification_r2_n6_inventory():
    # regression: at order 6 the standard members for l = 1, 2 coincide,
    # so the family has a single certificate and a single extremal graph
    rep = classify_extremal(2, 6)
    assert rep["ok"]
    assert rep["extremal_count"] == 1
    assert rep["family_certificates"] == 1
    labels = rep["matched"][0]["family"]
    assert {"l": 1, "variant": "standard"} in labels
    assert {"l": 2, "variant": "standard"} in labels


def test_classification_r2_n8_two_classes():
    rep = classify_extremal(2, 8)
    assert rep["ok"]
    assert rep["extremal_count"] == 2
    assert rep["unexplained"] == []
    all_labels = [frozenset((d["l"], d["variant"]) for d in m["family"])
                  for m in rep["matched"]]
    # the mirrored move on the smaller class appears at l = 2
    assert any((2, "prime") in labels for labels in all_labels)


def test_family_inventory_prime_membership():
    inv = family_inventory(8, 2)
    labels = [lv for lvs in inv.values() for lv in lvs]
    assert (2, "prime") in labels
    assert (1, "standard") in labels


@pytest.mark.parametrize("n,r,g6", [(9, 3, "H?~vnv{"), (7, 4, "FLr~w"), (8, 5, "GLr~~{")])
def test_family_inventory_holds_c5_joined_to_a_turan_graph(n, r, g6):
    # C5 joined to T(n-5, r-2) is extremal where no (l, variant) member
    # is isomorphic to it: at (9, 3) the family has another graph, at
    # (7, 4) and (8, 5) it has none
    assert family_inventory(n, r)[certificate(from_graph6(g6))] == [(0, "c5-join")]


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
