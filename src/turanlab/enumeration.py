"""Filtered enumeration of non-isomorphic graphs.

Graphs are generated order by order: every graph on n vertices arises from
a graph on n-1 vertices by attaching a new vertex, and for K_q-freeness the
attachment set must induce no K_{q-1}.  Repeats are removed by canonical
deletion (McKay's canonical construction path): a graph G is kept only
when built from the class of G - m(G), where m(G) is a fixed vertex of
least (degree, sorted neighbour degrees), so no set of every form seen is
needed and each parent is handled on its own.  Each level contains exactly
one canonical representative per isomorphism class, sorted canonically.

Levels are cached per filter so repeated queries (the verification
commands share the triangle-free levels, for instance) pay once.
"""

from __future__ import annotations

from typing import Sequence

from .canon import canonical_certificate_rows
from .graph import Graph, _relabel_rows, bits
from .invariants import _best_clique


class EnumerationLimitError(ValueError):
    """Raised for enumeration requests that are infeasible by contract."""


UNRESTRICTED_MAX = 11

# filter key: None for all graphs, q >= 3 for K_q-free
_LEVELS: dict[int | None, list[list[Graph]]] = {}


def _class_count_estimate(n: int) -> str:
    """Rough isomorphism-class count 2^C(n,2) / n!, as a decimal string."""
    import math

    log10 = n * (n - 1) / 2 * math.log10(2) - math.log10(math.factorial(n))
    exp = int(log10)
    return f"~{10 ** (log10 - exp):.1f}e{exp}"


def _extension_sets(rows: Sequence[int], k: int, q: int | None) -> list[int]:
    """All attachment masks S such that adding a vertex joined to S keeps
    the graph K_q-free, i.e. S induces no K_{q-1}.  Includes the empty set."""
    if q is None:
        return list(range(1 << k))
    out = [0]
    need = q - 2  # a K_{q-1} through u inside S means a K_{q-2} in S & N(u)

    def grow(smask: int, start: int) -> None:
        for u in range(start, k):
            common = rows[u] & smask
            if common.bit_count() >= need and _best_clique(rows, common, need) is not None:
                continue
            nxt = smask | (1 << u)
            out.append(nxt)
            grow(nxt, u + 1)

    grow(0, 0)
    return out


def _canonical_parent(cert: Sequence[int]) -> tuple[int, ...]:
    """Certificate of G - m(G) for the canonical rows ``cert`` of G, where
    m(G) is the first vertex of least (degree, sorted neighbour degrees):
    on canonical rows, an isomorphism-invariant choice."""
    deg = [r.bit_count() for r in cert]
    m = min(range(len(cert)),
            key=lambda v: (deg[v], sorted(deg[u] for u in bits(cert[v]))))
    rest = [v for v in range(len(cert)) if v != m]
    return canonical_certificate_rows(_relabel_rows(cert, rest), len(rest))


def _next_level(parents: list[Graph], q: int | None) -> list[Graph]:
    """Canonical deletion: a child of ``parent`` is kept when its
    certificate minus m(child) is ``parent`` again, which needs the new
    vertex k to have the least invariant.  Only children where it has are
    labelled, and only ties between several such vertices pay the labelling
    of the deletion.  The class of G comes only from the class of G - m(G),
    which is one parent, so one set per parent removes the repeats that
    automorphisms of the parent make."""
    out: list[Graph] = []
    for parent in parents:
        k = parent.n
        rows = parent.rows
        deg = [r.bit_count() for r in rows]
        # at[d]: parent vertices of degree d; under[d]: those of degree < d
        at = [0] * (k + 1)
        for v, d in enumerate(deg):
            at[d] |= 1 << v
        under = [0] * (k + 1)
        for d in range(k):
            under[d + 1] = under[d] | at[d]
        seen: set[tuple[int, ...]] = set()
        for smask in _extension_sets(rows, k, q):
            d = smask.bit_count()
            # k, of degree d, has least degree: every parent vertex of
            # degree < d is joined to k, and none of degree < d - 1 is
            # (index -1 comes only with d = 0, that is smask = 0)
            if under[d] & ~smask or under[d - 1] & smask:
                continue
            child = parent.add_vertex(smask).rows
            cdeg = [r.bit_count() for r in child]
            # then it has the least sorted neighbour degrees among the
            # vertices of degree d
            key = sorted(cdeg[u] for u in bits(smask))
            same = (at[d] & ~smask) | (at[d - 1] & smask)
            others = [sorted(cdeg[u] for u in bits(child[v])) for v in bits(same)]
            if any(other < key for other in others):
                continue
            cert = canonical_certificate_rows(child, k + 1)
            if cert in seen:
                continue
            seen.add(cert)
            if key in others and _canonical_parent(cert) != rows:
                continue
            out.append(Graph.from_rows(cert, check=False))
    out.sort(key=lambda g: g.rows)
    return out


def levels_up_to(max_order: int, forbidden_clique: int | None = None) -> list[list[Graph]]:
    """Lists of all non-isomorphic (K_q-free) graphs for orders 1..max_order.

    ``levels[i]`` holds order i+1.  Unrestricted enumeration is capped at
    order 11 by contract; hereditary clique filters have no hard cap.
    """
    q = forbidden_clique
    if q is not None and q < 2:
        raise ValueError("forbidden clique size must be >= 2")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if q is None and max_order > UNRESTRICTED_MAX:
        raise EnumerationLimitError(
            f"unrestricted enumeration is limited to order {UNRESTRICTED_MAX}; "
            f"order {max_order} has {_class_count_estimate(max_order)} classes"
        )
    levels = _LEVELS.setdefault(q, [])
    if not levels:
        levels.append([Graph(1)])
    while len(levels) < max_order:
        levels.append(_next_level(levels[-1], q))
    return levels[:max_order]


def enumerate_graphs(n: int, forbidden_clique: int | None = None) -> list[Graph]:
    """All non-isomorphic graphs of order exactly ``n`` passing the filter,
    one canonical representative each, in canonical order."""
    if n == 0:  # the levels start at order 1
        return [Graph(0)]
    return levels_up_to(n, forbidden_clique)[n - 1]
