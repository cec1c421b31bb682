"""Blow-up deficiency: how far a graph is from being a clique blow-up.

For a graph with clique number r the deficiency is
(r-1)|V| - max{ sum of deg(v) over an r-clique C }, equivalently the sum
over all vertices of r-1-deg_C(v) for a maximising clique C.  It is zero
exactly on complete multipartite graphs and controls the edge count of
optimal blow-ups: the best blow-up to order n has
t_{n,r} - deficiency*n/r + O(1) edges.

This module computes the deficiency exactly and optimises integer
blow-up weights exactly; the search for its minimum over enumerated
graphs is ``verify.deficiency_search``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .graph import Graph, _relabel_rows, bits
from .invariants import CliquePresentError, _best_clique, clique_number, find_clique
from .constructions import turan_number


class DeficiencyReport(NamedTuple):
    r: int
    value: int
    clique: tuple[int, ...]
    deficiencies: tuple[int, ...]  # r - 1 - deg_C(v) per vertex


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


def _water_level(keys: Sequence[int], units: int) -> int:
    """The largest level L with at least ``units`` of the values k, k-1,
    k-2, ... of the keys k at or above L."""
    # the keys have at least units values at or above lo, and none at hi
    lo, hi = min(keys) - units, max(keys) + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sum(max(k - mid + 1, 0) for k in keys) >= units:
            lo = mid
        else:
            hi = mid - 1
    return lo


def optimal_blowup(h: Graph, n: int) -> tuple[tuple[int, ...], int]:
    """Integer weights (all >= 1, summing to n) maximising the size of the
    blow-up of ``h``.

    Any optimal weighting can be shifted so the surplus above the all-ones
    vector sits on a clique, so it suffices to optimise within each maximal
    clique; there the objective is separable concave and a greedy unit
    allocation, taken here in closed form, is exact.  The best clique wins;
    ties keep the first in enumeration order.
    """
    l = h.n
    if l == 0:
        raise ValueError("cannot blow up the empty-order graph")
    if n < l:
        raise ValueError(f"target order {n} below vertex count {l}")
    degs = h.degrees()
    m = h.edge_count
    surplus = n - l
    best_w: tuple[int, ...] = ()  # order >= 1: some clique replaces it
    best_e = -1
    for cmask in _maximal_cliques(h):
        cl = list(bits(cmask))
        # a unit on v adds d_v - w_v edges plus the clique's weight, d_v the
        # neighbours of v outside the clique.  The greedy (largest d_v - w_v,
        # then lowest v) so takes the ``surplus`` largest of the values k,
        # k - 1, ... of the keys k = d_v - 1: every value above the water
        # level, then one at it for each of the lowest vertices; the
        # clique's weight adds |C| + (|C| + 1) + ... over the units
        key = {v: degs[v] - len(cl) for v in cl}
        level = _water_level(list(key.values()), surplus)
        w = [1] * l
        taken = 0  # the sum of the values taken
        left = surplus
        for v in cl:
            above = max(key[v] - level, 0)
            w[v] += above
            taken += above * (key[v] + level + 1) // 2
            left -= above
        for v in cl:
            if left and key[v] >= level:
                w[v] += 1
                taken += level
                left -= 1
        e = m + taken + surplus * len(cl) + surplus * (surplus - 1) // 2
        if e > best_e:
            best_e = e
            best_w = tuple(w)
    return best_w, best_e


def blowup_bound_gap_times_r(r: int, value: int, n: int, achieved: int) -> int:
    """r * (achieved - (t_{n,r} - value*n/r)): the exact integer gap, scaled
    by r, between an achieved order-``n`` blow-up size of a graph with
    clique number ``r`` and deficiency ``value`` and its leading-order
    prediction."""
    return r * achieved - r * turan_number(n, r) + value * n

