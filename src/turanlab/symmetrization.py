"""Vertex symmetrization, used to push a graph toward the extremal
configuration.

``zykov`` replaces u by a twin of v (dropping the edge uv first when they
are adjacent).  The operation never changes the clique or chromatic number
by more than one: both equal the value of the graph with u deleted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, twin_classes


@dataclass(frozen=True)
class SymmetrizationTrace:
    steps: tuple[tuple[int, int], ...]   # the zykov moves (u, v), in order


def zykov(g: Graph, u: int, v: int) -> Graph:
    """Replace u by a twin of v.  If u and v are adjacent the edge uv is
    removed as part of the operation."""
    if u == v:
        raise ValueError("cannot symmetrize a vertex with itself")
    rows = list(g.rows)
    ubit = 1 << u
    # detach u
    for w in bits(rows[u]):
        rows[w] &= ~ubit
    target = rows[v] & ~ubit
    rows[u] = target
    for w in bits(target):
        rows[w] |= ubit
    return Graph.from_rows(rows, check=False)


def zykov_reduce(g: Graph) -> tuple[Graph, SymmetrizationTrace]:
    """Merge twin classes by increasing symmetrizations until every pair
    of classes is completely joined; the result is complete multipartite
    with at most clique-number many classes and at least as many edges.

    Deterministic: among mergeable class pairs the one with the smallest
    representatives is chosen; merges go from the smaller-degree class
    into the larger, lower representative winning ties.  The trace lists
    every ``zykov(cur, u, v)`` move as ``(u, v)``, in the order applied.
    """
    cur = g
    steps: list[tuple[int, int]] = []
    while True:
        blocks = twin_classes(cur)
        pair = None
        for i in range(len(blocks)):
            a = blocks[i][0]
            for j in range(i + 1, len(blocks)):
                b = blocks[j][0]
                if not cur.has_edge(a, b):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            return cur, SymmetrizationTrace(tuple(steps))
        i, j = pair
        da = cur.degree(blocks[i][0])
        db = cur.degree(blocks[j][0])
        # move the smaller-degree class onto the other; ties keep the
        # lower-representative class (blocks are sorted by representative)
        if da < db:
            mover, target = i, j
        else:
            mover, target = j, i
        tv = blocks[target][0]
        for x in blocks[mover]:
            cur = zykov(cur, x, tv)
            steps.append((x, tv))
