"""Vertex symmetrization and the edge switches used to push a graph
toward the extremal configuration.

``zykov`` replaces u by a twin of v (dropping the edge uv first when they
are adjacent).  The operation never changes the clique or chromatic number
by more than one: both equal the value of the graph with u deleted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bits, twin_classes


@dataclass(frozen=True)
class TraceStep:
    kind: str                    # "zykov" or "switch"
    vertices: tuple[int, ...]    # (u, v) or (u, v, w)
    was_adjacent: bool
    edge_delta: int


@dataclass(frozen=True)
class SymmetrizationTrace:
    steps: tuple[TraceStep, ...]


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


def is_increasing(g: Graph, u: int, v: int) -> bool:
    """deg(u) <= deg(v), defined for independent pairs only."""
    if u == v:
        raise ValueError("u and v must differ")
    if g.has_edge(u, v):
        raise ValueError("increasing symmetrization is defined for "
                         "non-adjacent pairs")
    return g.degree(u) <= g.degree(v)


def replay(g: Graph, trace: SymmetrizationTrace) -> Graph:
    """Apply a trace to ``g``; reproduces the recorded output exactly."""
    cur = g
    for step in trace.steps:
        if step.kind == "zykov":
            u, v = step.vertices
            cur = zykov(cur, u, v)
        elif step.kind == "switch":
            u, v, w = step.vertices
            cur = cur.without_edge(u, v).with_edge(v, w)
        else:
            raise ValueError(f"unknown trace step kind {step.kind!r}")
    return cur


def zykov_reduce(g: Graph) -> tuple[Graph, SymmetrizationTrace]:
    """Merge twin classes by increasing symmetrizations until every pair
    of classes is completely joined; the result is complete multipartite
    with at most clique-number many classes and at least as many edges.

    Deterministic: among mergeable class pairs the one with the smallest
    representatives is chosen; merges go from the smaller-degree class
    into the larger, lower representative winning ties.
    """
    cur = g
    steps: list[TraceStep] = []
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
            before = cur.edge_count
            cur = zykov(cur, x, tv)
            steps.append(TraceStep("zykov", (x, tv), False,
                                   cur.edge_count - before))


def switch_edge(g: Graph, u: int, v: int, w: int, v_alt: int) -> Graph:
    """Remove uv and add vw, in the configuration where v and w are
    u-neighbours from different classes with vw missing and u keeps
    another neighbour v_alt in v's class.  The configuration is validated
    locally: u~v, u~w, v and w non-adjacent, u~v_alt, v_alt distinct from
    v and w and non-adjacent to v."""
    if len({u, v, w, v_alt}) != 4:
        raise ValueError("u, v, w, v_alt must be four distinct vertices")
    if not g.has_edge(u, v):
        raise ValueError("switch requires the edge uv")
    if not g.has_edge(u, w):
        raise ValueError("switch requires the edge uw")
    if g.has_edge(v, w):
        raise ValueError("switch requires vw to be missing")
    if not g.has_edge(u, v_alt):
        raise ValueError("switch requires a second u-neighbour v_alt")
    if g.has_edge(v, v_alt):
        raise ValueError("v_alt must lie in v's class (non-adjacent to v)")
    return g.without_edge(u, v).with_edge(v, w)
