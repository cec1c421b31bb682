"""Reproducible theorem verifications over exhaustive enumeration.

Each driver returns a JSON-ready dict with integer fields only, a
``match``/``ok`` flag that is true exactly when every computed value
equals its predicted value, and witnesses in graph6.  Witnesses are
re-validated with direct predicate checks before they are emitted.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .canon import certificate
from .constructions import (
    _blocks,
    _c5_blowup,
    groetzsch_graph,
    k4free_5chromatic,
    threshold_size,
    trianglefree_5chromatic,
    turan_class_sizes,
    turan_number,
)
from .deficiency import DeficiencyReport, deficiency, deficiency_lower_bound
from .enumeration import enumerate_graphs, levels_up_to
from .graph import Graph, bits, to_graph6, twin_classes
from .invariants import (
    _chromatic_number,
    chromatic_number,
    clique_number,
    find_clique,
    is_clique_free,
    is_r_colorable,
)
from .symmetrization import zykov, zykov_reduce


def _revalidate_extremal(g: Graph, r: int, size: int) -> None:
    if g.edge_count != size:
        raise AssertionError(f"extremal witness has {g.edge_count} edges, not {size}")
    if not is_clique_free(g, r + 1):
        raise AssertionError(f"extremal witness contains a K_{r + 1}")
    if is_r_colorable(g, r)[0]:
        raise AssertionError(f"extremal witness is {r}-colourable")


def _threshold_case(r: int, n: int) -> tuple[int, list[Graph], int, int]:
    """One scan of the order-n K_{r+1}-free level: the maximum size of a
    non-r-colourable graph (-1 when there is none), every graph of that
    size in level order, re-validated, the threshold and the level size."""
    predicted = threshold_size(n, r)
    level = enumerate_graphs(n, r + 1)
    best = -1
    witnesses: list[Graph] = []
    for g in level:
        if g.edge_count < best or is_r_colorable(g, r)[0]:
            continue
        if g.edge_count > best:
            best = g.edge_count
            witnesses = []
        witnesses.append(g)
    for w in witnesses:
        _revalidate_extremal(w, r, best)
    return best, witnesses, predicted, len(level)


def verify_threshold(r: int, n_values: Iterable[int]) -> dict:
    """For each order, the maximum size of an enumerated K_{r+1}-free
    non-r-colourable graph must equal the closed-form threshold."""
    cases = []
    ok = True
    for n in n_values:
        best, witnesses, predicted, examined = _threshold_case(r, n)
        match = best == predicted
        ok = ok and match
        cases.append({
            "n": n,
            "computed_max": best,
            "predicted": predicted,
            "match": match,
            "enumerated": examined,
            "extremal_count": len(witnesses),
            "witnesses": [to_graph6(w) for w in witnesses],
        })
    return {"check": "threshold", "r": r, "cases": cases, "ok": ok}


def family_inventory(n: int, r: int) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]]:
    """Certificate -> the (c5, parts) pairs, in generation order, of every
    blow-up of C5 (class sizes c5, cyclic, least under the cycle's ten
    symmetries) joined to the balanced complete (r - 2)-partite graph on
    the other vertices (class sizes parts) with the threshold size, each
    re-validated.  For a fixed c5 every other split of the other vertices
    into r - 2 classes has fewer edges, so only the balanced one can reach
    the threshold.  A member above it would be K_{r+1}-free and not
    r-colourable, refuting the threshold, and raises."""
    size = threshold_size(n, r)
    inventory: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {}
    # s cycle vertices, m = n - s others, at least one per class; none for r = 2
    for s in range(n if r == 2 else 5, n - r + 3):
        m = n - s
        parts = tuple(turan_class_sizes(m, r - 2)) if r > 2 else ()
        joins = s * m + (m * m - sum(x * x for x in parts)) // 2  # edges off the cycle
        for cuts in combinations(range(1, s), 4):
            c5 = tuple(b - a for a, b in zip((0, *cuts), (*cuts, s)))
            turns = [c5[i:] + c5[:i] for i in range(5)]
            edges = sum(a * b for a, b in zip(c5, turns[1])) + joins
            if edges < size or c5 != min(turns + [t[::-1] for t in turns]):
                continue
            if edges > size:
                raise AssertionError(f"family member c5 {c5}, parts {parts} has "
                                     f"{edges} edges, above the threshold {size}")
            blocks = _blocks([*c5, *parts])
            g = _c5_blowup(blocks[:5], blocks[5:])
            _revalidate_extremal(g, r, size)
            inventory.setdefault(certificate(g), []).append((c5, parts))
    return inventory


def classify_extremal(r: int, n: int) -> dict:
    """One case of ``verify_classification``: every extremal graph must be
    isomorphic to a family member; with the maximum off the threshold there
    are none of the predicted size, and the check fails."""
    best, extremal, predicted, _ = _threshold_case(r, n)
    if best != predicted:
        extremal = []
    inventory = family_inventory(n, r)
    matched = []
    unexplained = []
    for g in extremal:
        labels = inventory.get(certificate(g))
        if labels is None:
            unexplained.append(to_graph6(g))
        else:
            matched.append({
                "graph6": to_graph6(g),
                "family": [{"c5": list(c5), "parts": list(parts)} for c5, parts in labels],
            })
    ok = not unexplained and bool(extremal)
    return {
        "n": n,
        "threshold": predicted,
        "extremal_count": len(extremal),
        "family_certificates": len(inventory),
        "matched": matched,
        "unexplained": unexplained,
        "ok": ok,
    }


def verify_classification(r: int, n_values: Iterable[int]) -> dict:
    """``classify_extremal`` at each order, in one report."""
    cases = [classify_extremal(r, n) for n in n_values]
    return {"check": "classification", "r": r,
            "cases": cases, "ok": all(c["ok"] for c in cases)}


# (r, k) -> built-in gadget, and the established global minimum deficiency it
# witnesses; a search minimum over a bounded range is never promoted to one
_GADGETS = {
    (2, 4): (groetzsch_graph, 3),
    (3, 5): (k4free_5chromatic, 2),
    (2, 5): (trianglefree_5chromatic, 6),
}


def _gadget_claims(r: int, k: int) -> dict | None:
    """Verified gadget upper bound for the minimum deficiency, when one of
    the built-in constructions applies."""
    if (r, k) not in _GADGETS:
        return None
    g = _GADGETS[r, k][0]()
    chi, _ = chromatic_number(g)
    if chi < k:
        raise AssertionError(f"gadget for (r={r}, k={k}) has chromatic number {chi}")
    rep = deficiency(g, r)
    return {
        "graph6": to_graph6(g),
        "order": g.n,
        "chromatic_number": chi,
        "deficiency": rep.value,
    }


def deficiency_search(r: int, k: int, max_order: int,
                      node_budget: int | None = None) -> dict:
    """Exact minimum deficiency over all graphs of order <= max_order with
    clique number r and chromatic number >= k, as the report's ``search``
    object.  The value is an upper bound for the unrestricted minimum; it
    is never claimed global here.

    Levels are taken one at a time, each built only when it is reached.
    ``node_budget`` caps the graphs examined: the level it runs out in is
    cut there, no later level is built and the search is flagged
    incomplete.  Once the value reaches the lower bound, no later level
    can improve it or its minimal order, so the search stops there.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, not {node_budget}")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    lb = deficiency_lower_bound(r, k)
    best: int | None = None
    minimal_order: int | None = None
    witnesses: list[str] = []
    examined = 0
    complete = True
    for m in range(1, max_order + 1):
        if best == lb:  # reached at a lower order: nothing here improves it
            break
        left = None if node_budget is None else node_budget - examined
        if left == 0:  # spent exactly at the end of the last level
            complete = False
            break
        level = enumerate_graphs(m, r + 1)
        if left is not None and left < len(level):
            level = level[:left]
            complete = False
        examined += len(level)
        for g in level:
            rep = _qualify(g, r, k)
            if rep is None:
                continue
            if best is None or rep.value < best:
                best = rep.value
                minimal_order = m
                witnesses = [to_graph6(g)]
            elif rep.value == best and m == minimal_order:
                witnesses.append(to_graph6(g))
    return {"max_order": max_order, "value": best, "minimal_order": minimal_order,
            "witnesses": witnesses, "complete": complete, "examined": examined}


def _qualify(g: Graph, r: int, k: int) -> DeficiencyReport | None:
    """Deficiency report when g, from a K_{r+1}-free level, has clique
    number r and chi >= k."""
    if find_clique(g, r) is None:
        return None
    # cheapest-first chromatic filter: chi >= k iff not (k-1)-colourable
    ok, _ = is_r_colorable(g, k - 1)
    if ok:
        return None
    return deficiency(g, r)


def deficiency_table(r: int, k: int, max_order: int | None = None,
                     node_budget: int | None = None) -> dict:
    """Lower bound, gadget upper bound, and (optionally) the exhaustive
    search minimum for the deficiency at (r, k); pinched exactly when the
    bounds meet.  The documented global value, when one exists, is
    reported separately from anything the bounded search finds."""
    lower = deficiency_lower_bound(r, k)
    gadget = _gadget_claims(r, k)
    result: dict = {
        "check": "deficiency",
        "r": r,
        "k": k,
        "lower_bound": lower,
        "gadget": gadget,
        "reference_value": _GADGETS[r, k][1] if gadget else None,
    }
    upper = gadget["deficiency"] if gadget else None
    ok = True
    if max_order is not None:
        search = result["search"] = deficiency_search(r, k, max_order, node_budget)
        value = search["value"]
        ok = search["complete"]
        if value is not None:
            if value < lower:
                raise AssertionError(
                    f"search minimum {value} is below the lower bound {lower}")
            if ok and (upper is None or value < upper):
                upper = value
    # a global value is only claimed when the verified bounds pinch; a bare
    # search minimum stays an upper bound for the range it covered
    result["upper_bound"] = upper
    result["pinched"] = upper is not None and upper == lower
    result["global_value"] = upper if result["pinched"] else None
    ref = result["reference_value"]
    if ref is not None:  # then a gadget set upper
        ok = ok and upper == ref
    result["ok"] = ok
    return result


# -- property-based lemma suite ---------------------------------------------

# largest order of the all-graph and the triangle-free lemma checks, and the
# part size of the exhaustive tripartite check
_ALL_GRAPHS_ORDER = 7
_TRIANGLE_FREE_ORDER = 9
_TRIPARTITE_PART = 2


def check_symmetrization_identities() -> dict:
    """omega and chi of the symmetrized graph equal those of the graph
    with the replaced vertex deleted, for every graph and vertex pair."""
    checked = 0
    for g in _all_graphs_up_to(_ALL_GRAPHS_ORDER, None):
        n = g.n
        for u in range(n):
            rest = [x for x in range(n) if x != u]
            minus_u = g.induced(rest)
            w_del = clique_number(minus_u)[0]
            chi_del = chromatic_number(minus_u)[0]
            for v in range(n):
                if v == u:
                    continue
                z = zykov(g, u, v)
                if clique_number(z)[0] != w_del:
                    return _fail("omega identity", g, (u, v))
                if chromatic_number(z)[0] != chi_del:
                    return _fail("chi identity", g, (u, v))
                checked += 1
    return {"name": "symmetrization-identities", "max_order": _ALL_GRAPHS_ORDER,
            "checked": checked, "ok": True}


def check_turan_pointwise() -> dict:
    """zykov_reduce never loses edges and lands at or below the balanced
    multipartite count for the clique number: the classical size bound,
    reproved pointwise."""
    checked = 0
    for g in _all_graphs_up_to(_ALL_GRAPHS_ORDER, None):
        w = clique_number(g)[0]
        reduced, _ = zykov_reduce(g)
        if not (g.edge_count <= reduced.edge_count <= turan_number(g.n, w)):
            return _fail("turan pointwise", g, (w,))
        blocks = twin_classes(reduced)
        if len(blocks) > w:
            return _fail("class count exceeds clique number", g, (w,))
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if not reduced.has_edge(blocks[i][0], blocks[j][0]):
                    return _fail("not complete multipartite", g, (i, j))
        checked += 1
    return {"name": "turan-pointwise", "max_order": _ALL_GRAPHS_ORDER,
            "checked": checked, "ok": True}


def check_min_degree_bound() -> dict:
    """Every triangle-free non-bipartite graph has a vertex of degree at
    most 2n/5."""
    checked = 0
    for g in _all_graphs_up_to(_TRIANGLE_FREE_ORDER, 3):
        if g.n < 3 or is_r_colorable(g, 2)[0]:
            continue
        if min(g.degrees()) * 5 > 2 * g.n:
            return _fail("degree bound", g, ())
        checked += 1
    return {"name": "min-degree-bound", "max_order": _TRIANGLE_FREE_ORDER,
            "checked": checked, "ok": True}


def check_small_window_colorable() -> dict:
    """A triangle-free graph with an adjacent pair missing at most two
    common non-neighbours is 3-colourable."""
    checked = 0
    for g in _all_graphs_up_to(_TRIANGLE_FREE_ORDER, 3):
        n = g.n
        has_pair = any(
            n - g.degree(u) - g.degree(v) <= 2
            for u, v in g.edges())
        if not has_pair:
            continue
        if not is_r_colorable(g, 3)[0]:
            return _fail("small window not 3-colourable", g, ())
        checked += 1
    return {"name": "small-window-colourable", "max_order": _TRIANGLE_FREE_ORDER,
            "checked": checked, "ok": True}


def check_trifree_tripartite_bound() -> dict:
    """Exhaustive: every triangle-free tripartite graph with parts
    (m, m, m) misses at least ceil(m^2/4) of the balanced count."""
    m = _TRIPARTITE_PART
    bound = turan_number(3 * m, 3) - (m * m + 3) // 4
    best = -1
    pairs = [(i, j) for i in range(m) for j in range(m)]
    nblocks = len(pairs)
    checked = 0
    for ab in range(1 << nblocks):
        for ac in range(1 << nblocks):
            # fix blocks A-B and A-C, then build and test the graph of
            # every B-C choice; nothing is pruned
            edges_ab = [(pairs[t][0], m + pairs[t][1]) for t in bits(ab)]
            edges_ac = [(pairs[t][0], 2 * m + pairs[t][1]) for t in bits(ac)]
            for bc in range(1 << nblocks):
                edges = edges_ab + edges_ac + [
                    (m + pairs[t][0], 2 * m + pairs[t][1]) for t in bits(bc)]
                g = Graph(3 * m, edges)
                checked += 1
                if is_clique_free(g, 3):
                    best = max(best, g.edge_count)
    ok = best <= bound
    return {"name": "trifree-tripartite-bound", "m": m, "max_size": best,
            "bound": bound, "labeled_graphs": checked, "ok": ok}


def _all_graphs_up_to(max_order: int, q: int | None) -> Iterable[Graph]:
    """Every graph of order 1..max_order, K_q-free unless q is None."""
    for level in levels_up_to(max_order, q):
        yield from level


def _fail(name: str, g: Graph, extra: tuple) -> dict:
    return {"name": name, "ok": False, "graph6": to_graph6(g),
            "detail": list(extra)}


def lemma_suite() -> dict:
    checks = [
        check_symmetrization_identities(),
        check_turan_pointwise(),
        check_min_degree_bound(),
        check_small_window_colorable(),
        check_trifree_tripartite_bound(),
    ]
    return {
        "check": "lemmas",
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


# -- analysis report ----------------------------------------------------------


def analyze_graph(g: Graph, r: int | None = None, q: int | None = None) -> dict:
    """Invariant report for one graph: clique number, chromatic number,
    twin classes, saturation, deficiency.  ``r`` defaults to the clique
    number and ``q`` to r+1."""
    from .saturation import _first_missing

    w, wit = clique_number(g)
    chi, col = _chromatic_number(g, w)
    tc = twin_classes(g)
    rr = w if r is None else r
    qq = (rr + 1) if q is None else q
    entry: dict = {
        "n": g.n,
        "edges": g.edge_count,
        "clique_number": w,
        "clique": list(wit),
        "chromatic_number": chi,
        "coloring": list(col.colors),
        "twin_class_count": len(tc),
        "twin_classes": [list(b) for b in tc],
    }
    if qq >= 3:
        clique_free = find_clique(g, qq) is None
        entry["saturation"] = {
            "q": qq,
            "clique_free": clique_free,
            "saturated": clique_free and _first_missing(g, qq) is None,
        }
    if rr == w and rr >= 1:
        rep = deficiency(g, rr)
        entry["deficiency"] = {"r": rr, "value": rep.value,
                               "clique": list(rep.clique)}
    if not col.is_proper(g):
        raise AssertionError("chromatic witness is not a proper colouring")
    if not all(g.has_edge(a, b) for i, a in enumerate(wit) for b in wit[i + 1:]):
        raise AssertionError(f"clique witness {wit} is not a clique")
    return entry
