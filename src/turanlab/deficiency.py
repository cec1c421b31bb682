"""Blow-up deficiency: how far a graph is from being a clique blow-up.

For a graph with clique number r the deficiency is
(r-1)|V| - max{ sum of deg(v) over an r-clique C }, equivalently the sum
over all vertices of r-1-deg_C(v) for a maximising clique C.  It is zero
exactly on complete multipartite graphs and controls the edge count of
optimal blow-ups: the best blow-up to order n has
t_{n,r} - deficiency*n/r + O(1) edges.

This module computes the deficiency exactly, searches for its minimum
over all K_{r+1}-free graphs with clique number r and chromatic number at
least k up to a given order, and optimises integer blow-up weights
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .enumeration import enumerate_graphs
from .graph import Graph, _relabel_rows, bits, to_graph6
from .invariants import (
    CliquePresentError,
    _best_clique,
    clique_number,
    find_clique,
    is_r_colorable,
)
from .constructions import turan_number


@dataclass(frozen=True)
class DeficiencyReport:
    r: int
    value: int
    clique: tuple[int, ...]
    deficiencies: tuple[int, ...]  # r - 1 - deg_C(v) per vertex


@dataclass(frozen=True)
class DeficiencySearchResult:
    r: int
    k: int
    max_order: int
    value: int | None           # None: no qualifying graph in range
    minimal_order: int | None   # smallest order attaining ``value``
    witnesses: tuple[str, ...]  # graph6 of the minimal-order attainers
    complete: bool              # False when the node budget ran out
    examined: int


def _max_degree_sum_clique(g: Graph, r: int) -> tuple[int, tuple[int, ...]] | None:
    """Maximum of sum(deg) over r-cliques, with a witness: the first
    maximiser in (-deg, v) order, found by the clique kernel on the rows
    relabelled into that order.  None when g has no r-clique."""
    degs = g.degrees()
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    rows = _relabel_rows(g.rows, order)
    weight = [degs[v] for v in order]
    best = _best_clique(rows, (1 << g.n) - 1, r, weight)
    if best is None:
        return None
    return sum(weight[i] for i in best), tuple(sorted(order[i] for i in best))


def deficiency(g: Graph, r: int) -> DeficiencyReport:
    """Exact blow-up deficiency at rank ``r``; requires clique number
    exactly r (a witness rides along on failure).  Both defining formulas
    are evaluated and must agree."""
    best = _max_degree_sum_clique(g, r)
    if best is None or find_clique(g, r + 1) is not None:
        # only the failure needs the clique number, for its message and witness
        w, witness = clique_number(g)
        raise CliquePresentError(
            f"clique number is {w}, not {r}", witness)
    deg_sum, cliq = best
    value = (r - 1) * g.n - deg_sum
    cmask = 0
    for v in cliq:
        cmask |= 1 << v
    per_vertex = tuple(r - 1 - (g.rows[v] & cmask).bit_count() for v in range(g.n))
    alt = sum(per_vertex)
    if alt != value:
        raise AssertionError(f"deficiency formulas disagree: {value} vs {alt}")
    return DeficiencyReport(r=r, value=value, clique=cliq, deficiencies=per_vertex)


def deficiency_lower_bound(r: int, k: int) -> int:
    """max(k - r, 0): every graph with clique number r and chromatic
    number at least k has at least k-r vertices outside the best clique
    and its fully-attached satellites, each contributing at least one."""
    if not 2 <= r <= k:
        raise ValueError("need k >= r >= 2")
    return max(k - r, 0)


def deficiency_search(r: int, k: int, max_order: int,
                      node_budget: int | None = None) -> DeficiencySearchResult:
    """Exact minimum deficiency over all graphs of order <= max_order with
    clique number r and chromatic number >= k.  The result is an upper
    bound for the unrestricted minimum; it is never claimed global here.

    ``node_budget`` caps the number of enumerated graphs examined; an
    exhausted budget yields a result flagged incomplete.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, not {node_budget}")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    best: int | None = None
    minimal_order: int | None = None
    witnesses: list[str] = []
    examined = 0
    complete = True
    lb = deficiency_lower_bound(r, k)
    # each level is built when it is reached, so a budget that runs out
    # builds no level past the one it ran out in
    for m in range(1, max_order + 1):
        if node_budget is not None and examined >= node_budget:
            complete = False
            break
        for g in enumerate_graphs(m, r + 1):
            if node_budget is not None and examined >= node_budget:
                complete = False
                break
            examined += 1
            if best is not None and best == lb and minimal_order is not None \
                    and g.n > minimal_order:
                # cannot improve the value and larger orders cannot improve
                # the minimal realizing order
                continue
            rep = _qualify(g, r, k)
            if rep is None:
                continue
            if best is None or rep.value < best:
                best = rep.value
                minimal_order = g.n
                witnesses = [to_graph6(g)]
            elif rep.value == best and g.n == minimal_order:
                witnesses.append(to_graph6(g))
    return DeficiencySearchResult(
        r=r, k=k, max_order=max_order, value=best,
        minimal_order=minimal_order, witnesses=tuple(witnesses),
        complete=complete, examined=examined)


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


# -- blow-up optimisation ----------------------------------------------------


def _maximal_cliques(g: Graph) -> Iterator[int]:
    """Maximal cliques as masks (Bron-Kerbosch with pivoting)."""
    rows = g.rows

    def rec(rmask: int, pmask: int, xmask: int) -> Iterator[int]:
        if pmask == 0 and xmask == 0:
            yield rmask
            return
        pool = pmask | xmask
        pivot = max(bits(pool), key=lambda v: (rows[v] & pmask).bit_count())
        for v in bits(pmask & ~rows[pivot]):
            vb = 1 << v
            yield from rec(rmask | vb, pmask & rows[v], xmask & rows[v])
            pmask ^= vb
            xmask |= vb

    if g.n:
        yield from rec(0, (1 << g.n) - 1, 0)


def blowup_edge_count(g: Graph, weights: Sequence[int]) -> int:
    return sum(weights[u] * weights[v] for u, v in g.edges())


def optimal_blowup(h: Graph, n: int) -> tuple[tuple[int, ...], int]:
    """Integer weights (all >= 1, summing to n) maximising the size of the
    blow-up of ``h``.

    Any optimal weighting can be shifted so the surplus above the all-ones
    vector sits on a clique, so it suffices to optimise within each maximal
    clique; there the objective is separable concave and a greedy unit
    allocation is exact.  The best clique wins; ties keep the first in
    enumeration order.
    """
    l = h.n
    if l == 0:
        raise ValueError("cannot blow up the empty-order graph")
    if n < l:
        raise ValueError(f"target order {n} below vertex count {l}")
    degs = h.degrees()
    surplus = n - l
    best_w: tuple[int, ...] | None = None
    best_e = -1
    for cmask in _maximal_cliques(h):
        cl = list(bits(cmask))
        w = [1] * l
        # d_i = neighbours outside the clique; greedy maximises
        # sum_{i<j in C} w_i w_j + sum_i d_i w_i
        d = {v: degs[v] - (len(cl) - 1) for v in cl}
        for _ in range(surplus):
            v = max(cl, key=lambda u: (d[u] - w[u], -u))
            w[v] += 1
        e = blowup_edge_count(h, w)
        if e > best_e:
            best_e = e
            best_w = tuple(w)
    assert best_w is not None
    return best_w, best_e


def blowup_bound_gap_times_r(r: int, value: int, n: int, achieved: int) -> int:
    """r * (achieved - (t_{n,r} - value*n/r)): the exact integer gap, scaled
    by r, between an achieved order-``n`` blow-up size of a graph with
    clique number ``r`` and deficiency ``value`` and its leading-order
    prediction."""
    return r * achieved - r * turan_number(n, r) + value * n

