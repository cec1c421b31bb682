"""Vertex symmetrization, used to push a graph toward the extremal
configuration.

``zykov`` replaces u by a twin of v (dropping the edge uv first when they
are adjacent).  The operation never changes the clique or chromatic number
by more than one: both equal the value of the graph with u deleted.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits, twin_classes


class SymmetrizationTrace(NamedTuple):
    steps: tuple[tuple[int, int], ...]   # the zykov moves (u, v), in order


def _move(rows: list[int], movers: int, t: int) -> None:
    """Make every vertex of the mask ``movers``, a set of twins, a twin of
    ``t`` in place: each takes t's neighbourhood outside ``movers``.  The
    movers share one row, so each touched neighbour row is one update."""
    old = rows[(movers & -movers).bit_length() - 1]
    new = rows[t] & ~movers
    for w in bits(old & ~new):
        rows[w] &= ~movers
    for w in bits(new & ~old):
        rows[w] |= movers
    for x in bits(movers):
        rows[x] = new


def zykov(g: Graph, u: int, v: int) -> Graph:
    """Replace u by a twin of v.  If u and v are adjacent the edge uv is
    removed as part of the operation."""
    for x in (u, v):
        if not 0 <= x < g.n:
            raise ValueError(f"vertex {x} out of range for order {g.n}")
    if u == v:
        raise ValueError("cannot symmetrize a vertex with itself")
    rows = list(g.rows)
    _move(rows, 1 << u, v)
    return Graph.from_rows(rows, check=False)


def zykov_reduce(g: Graph) -> tuple[Graph, SymmetrizationTrace]:
    """Merge twin classes by increasing symmetrizations until every pair
    of classes is completely joined; the result is complete multipartite
    with at most clique-number many classes and at least as many edges.

    Deterministic: among mergeable class pairs the one with the smallest
    representatives is chosen; merges go from the smaller-degree class
    into the larger, lower representative winning ties.  A class moves
    in one step, but the trace lists every ``zykov(cur, u, v)`` move it
    stands for as ``(u, v)``, in the order applied.
    """
    rows = list(g.rows)
    steps: list[tuple[int, int]] = []
    while True:
        cur = Graph.from_rows(rows, check=False)
        blocks = twin_classes(cur)
        pair = next(((a, b) for i, a in enumerate(blocks)
                     for b in blocks[i + 1:] if not cur.has_edge(a[0], b[0])),
                    None)
        if pair is None:
            return cur, SymmetrizationTrace(tuple(steps))
        a, b = pair
        # move the smaller-degree class onto the other; ties keep the
        # lower-representative class (blocks are sorted by representative)
        mover, target = (a, b) if cur.degree(a[0]) < cur.degree(b[0]) else (b, a)
        tv = target[0]
        _move(rows, sum(1 << x for x in mover), tv)
        steps.extend((x, tv) for x in mover)
