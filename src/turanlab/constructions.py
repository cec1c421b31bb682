"""Closed-form quantities and explicit graph families.

Every constructor fixes a vertex labelling (documented per function) so
graph6 output is reproducible byte for byte.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import comb
from typing import Sequence

from .graph import MAX_ORDER, Graph, _check_order, bits, complete_multipartite
from .invariants import find_clique


def _balanced(n: int, r: int) -> tuple[int, int]:
    """(q, rem): the balanced r-partition of n vertices has rem classes of
    size q + 1 and r - rem of size q."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return divmod(n, r)


def turan_class_sizes(n: int, r: int) -> list[int]:
    """Class sizes of the balanced complete r-partite graph, descending."""
    q, rem = _balanced(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def turan_number(n: int, r: int) -> int:
    """Edge count of the balanced complete r-partite graph on n vertices,
    in closed form, so no list of r class sizes is built."""
    q, rem = _balanced(n, r)
    return comb(n, 2) - rem * comb(q + 1, 2) - (r - rem) * comb(q, 2)


def turan_graph(n: int, r: int) -> Graph:
    """Balanced complete r-partite graph; classes are consecutive vertex
    blocks in decreasing size order.  Classes past the n-th are empty, so
    every r >= n gives K_n, and r is capped at n before any sizes exist."""
    _check_order(n)
    return complete_multipartite(turan_class_sizes(n, min(r, max(n, 1))))


def threshold_size(n: int, r: int) -> int:
    """Largest size of a K_{r+1}-free graph of order n that is *not*
    r-colourable.  Defined for n >= r+3; below that no such graph exists."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if n < r + 3:
        raise ValueError(f"no graph on {n} vertices is K_{r + 1}-free and "
                         f"non-{r}-colourable; need n >= r+3 = {r + 3}")
    if n >= 2 * r + 1:
        return turan_number(n, r) - n // r + 1
    return turan_number(n, r) - 2


def _blocks(sizes: Sequence[int]) -> list[list[int]]:
    """Consecutive vertex blocks of the given sizes, from vertex 0 on."""
    return [list(range(end - s, end)) for s, end in zip(sizes, accumulate(sizes))]


def _join(rows: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """Add every edge between the disjoint vertex lists ``a`` and ``b``."""
    for x, y in ((a, b), (b, a)):
        mask = sum(1 << v for v in y)
        for v in x:
            rows[v] |= mask


def _cut(rows: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """Remove every edge between the disjoint vertex lists ``a`` and ``b``."""
    for x, y in ((a, b), (b, a)):
        mask = sum(1 << v for v in y)
        for v in x:
            rows[v] &= ~mask


def _extremal_base(n: int, r: int) -> tuple[list[list[int]], int, int]:
    """Vertex classes of the balanced (n-1)-vertex r-partite base and the
    indices of the two attachment classes (W-host first).

    Vertices 0..n-2 fill the classes in decreasing size order; vertex n-1
    is the extra vertex.  For n > 2r the attachment classes are the two
    smallest, for r+3 <= n <= 2r the two largest (of size 2).  When the
    two differ in size the host is the larger one.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if n < r + 3:
        raise ValueError(f"need n >= r+3 = {r + 3}")
    _check_order(n)
    classes = _blocks(turan_class_sizes(n - 1, r))
    if n >= 2 * r + 1:
        host, other = r - 2, r - 1  # two smallest; sizes[host] >= sizes[other]
    else:
        host, other = 0, 1  # two largest, both of size 2
    return classes, host, other


def extremal_graph(n: int, r: int) -> Graph:
    """The tight example for the non-colourability threshold: a balanced
    complete r-partite graph on n-1 vertices plus a vertex u joined to two
    chosen classes in one vertex each (v1, v2) and to every other class
    fully, with the edge v1 v2 removed.  u is vertex n-1; v1, v2 are the
    first vertices of their classes."""
    return _family_member(n, r, 1, "standard")


def extremal_family(n: int, r: int, l: int, variant: str = "standard") -> Graph:
    """Member of the extremal family at the threshold size.

    standard: u is joined to the first ``l`` vertices W of the host class
    (v1 included) and to v2; the edges between W and v2 are removed.
    prime: the mirrored move with the roles of the two attachment classes
    swapped; it yields a graph not isomorphic to any standard member
    exactly when the two attachment classes differ in size, so it is only
    defined then (host one larger than the other).

    Valid for 1 <= l <= floor(n/r) - 1; l = host size is rejected because
    joining u to a whole class gives an r-colourable graph.
    """
    # r < 2 is left to the shared base, which rejects it
    if r >= 2 and not 1 <= l <= n // r - 1:
        raise ValueError(f"l must be in 1..{n // r - 1}, got {l}")
    return _family_member(n, r, l, variant)


def _family_member(n: int, r: int, l: int, variant: str) -> Graph:
    if variant not in ("standard", "prime"):
        raise ValueError(f"unknown variant {variant!r}")
    classes, host, other = _extremal_base(n, r)
    if variant == "prime":
        if len(classes[host]) != len(classes[other]) + 1:
            raise ValueError(
                "prime variant needs attachment classes of different sizes "
                "(n divisible by r with n >= 3r; for r = 2 even n >= 6)")
        host, other = other, host
    if l > len(classes[host]) - 1:
        # joining u to a whole class yields an r-colourable graph
        raise ValueError(f"l must be at most {len(classes[host]) - 1} "
                         f"for the {variant} variant at (n={n}, r={r})")
    # u starts joined to every base vertex and is cut from all of the
    # two attachment classes but W and v2
    rows = list(complete_multipartite([len(c) for c in classes] + [1]).rows)
    w_set = classes[host][:l]
    v_other = classes[other][:1]
    _cut(rows, [n - 1], classes[host][l:] + classes[other][1:])
    _cut(rows, v_other, w_set)
    return Graph.from_rows(rows, check=False)


def _c5_join_turan(n: int, r: int) -> Graph:
    """C5 joined to the balanced complete (r-2)-partite graph on n-5
    vertices: the cycle is 0..4, the classes follow in decreasing size.
    K_{r+1}-free and (r+1)-chromatic for r >= 3 and n >= r+3."""
    rows = list(complete_multipartite([1] * 5 + turan_class_sizes(n - 5, r - 2)).rows)
    _cut(rows, [0], [2, 3])  # the five chords of the cycle
    _cut(rows, [1], [3, 4])
    _cut(rows, [2], [4])
    return Graph.from_rows(rows, check=False)


def groetzsch_graph() -> Graph:
    """The Mycielskian of the 5-cycle: 11 vertices, 20 edges, triangle-free
    and 4-chromatic.  Cycle 0..4, shadow of i is 5+i, apex is 10."""
    edges = []
    for i in range(5):
        j = (i + 1) % 5
        edges.append((i, j))
        edges.append((5 + i, j))
        edges.append((5 + j, i))
        edges.append((10, 5 + i))
    return Graph(11, edges)


def k4free_5chromatic() -> Graph:
    """A 12-vertex K4-free graph of chromatic number 5 whose best triangle
    misses only two vertices' worth of degree.

    Labels: triangle 0,1,2; then 3=a12, 4=b12, 5=b23, 6=c23, 7=a13,
    8=b13, 9=c13, 10=x, 11=y.
    """
    v1, v2, v3 = 0, 1, 2
    a12, b12, b23, c23, a13, b13, c13, x, y = 3, 4, 5, 6, 7, 8, 9, 10, 11
    edges = [(v1, v2), (v2, v3), (v1, v3)]
    for t in (a12, b12):
        edges += [(t, v1), (t, v2)]
    for t in (b23, c23):
        edges += [(t, v2), (t, v3)]
    for t in (a13, b13, c13):
        edges += [(t, v1), (t, v3)]
    edges += [(x, v1), (x, a12), (x, a13)]
    edges += [(y, v3), (y, c23), (y, c13)]
    edges += [(x, y)]
    for t in (b12, b23, b13):
        edges += [(x, t), (y, t)]
    # a_ij ~ c_kl whenever the index pairs differ
    edges += [(a12, c23), (a12, c13), (a13, c23)]
    return Graph(12, edges)


def _independent_sets(g: Graph, include_empty: bool) -> list[int]:
    out = []
    n = g.n
    for mask in range(1 << n):
        if mask == 0 and not include_empty:
            continue
        ok = True
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if g.rows[v] & m:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


def trianglefree_5chromatic(include_empty: bool = True) -> Graph:
    """A triangle-free graph of chromatic number 5 built around a 5-cycle
    plus an isolated vertex F: two hubs v, w and, for each independent set
    I of F, satellites v_I ~ v and w_I ~ w; v_I ~ I, w_I ~ I, and
    v_I ~ w_J exactly when I and J are disjoint.

    Labels: F = 0..5 (cycle 0..4, isolated 5), v = 6, w = 7, then the v_I
    block and the w_I block with I enumerated as increasing bitmasks.
    ``include_empty`` controls whether the empty set contributes a
    satellite pair (the measured deficiency is 6 either way).
    """
    f = Graph(6, [(i, (i + 1) % 5) for i in range(5)])
    sets = _independent_sets(f, include_empty)
    v, w = 6, 7
    base = 8
    k = len(sets)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges.append((v, w))
    for idx, smask in enumerate(sets):
        vi = base + idx
        wi = base + k + idx
        edges.append((v, vi))
        edges.append((w, wi))
        for t in bits(smask):
            edges.append((vi, t))
            edges.append((wi, t))
    for i, si in enumerate(sets):
        for j, sj in enumerate(sets):
            if si & sj == 0:
                edges.append((base + i, base + k + j))
    return Graph(8 + 2 * k, edges)


def three_sat_many_twin_classes(f: int, n: int) -> Graph:
    """Triangle-saturated graph of near-extremal size with 2^{f+1} + f + 2
    twin classes: a seed set S of f vertices, blocks U and W of 2^f
    vertices realising every S-neighbourhood, u_I ~ w_J iff I and J are
    disjoint, and bulk sets U', W' completely joined to each other and to
    the opposite block.

    Labels: S = 0..f-1, U next 2^f (vertex U[i] has S-neighbourhood given
    by the bits of i), W next 2^f likewise, then U' (ceil of the rest) and
    W'.
    """
    if f < 0:
        raise ValueError("f must be >= 0")
    # n <= 4^f, decided from bit lengths so no power of a huge f is built
    if n <= 1 or (n - 1).bit_length() <= 2 * f:
        power = f" = {4 ** f}" if f <= 16 else ""  # written out while short
        raise ValueError(f"need n > 4^f{power} (f below half the log)")
    p = 1 << f
    rest = n - f - 2 * p
    if rest < 2:
        raise ValueError(f"need n >= {f + 2 * p + 2} so both bulk sets are non-empty")
    _check_order(n)
    s, u, w, u_bulk, w_bulk = _blocks([f, p, p, (rest + 1) // 2, rest // 2])
    rows = [0] * n
    for i in range(p):
        _join(rows, [u[i], w[i]], [s[j] for j in bits(i)])
        _join(rows, [u[i]], [w[j] for j in range(p) if i & j == 0])
    _join(rows, u_bulk, w_bulk + w)
    _join(rows, u, w_bulk)
    return Graph.from_rows(rows, check=False)


def _half_subsets(m: int) -> list[tuple[int, ...]]:
    return list(combinations(range(m), m // 2))


def _wire_windows(rows: list[int], w1: list[int], w2: list[int],
                  w3: list[int]) -> None:
    """Tamper the windows of one non-blow-up gadget: clear W1-W2, W1-W3
    and W2-W3, match W2[t] to W3[t], and join the i-th W1 vertex to the
    i-th half-subset of W2 positions and to the other positions of W3."""
    _cut(rows, w1, w2 + w3)
    _cut(rows, w2, w3)
    for a, b in zip(w2, w3):
        _join(rows, [a], [b])
    for v, half in zip(w1, _half_subsets(len(w2))):
        _join(rows, [v], [w2[t] for t in half])
        _join(rows, [v], [b for t, b in enumerate(w3) if t not in half])


def sat_non_blowup(m: int, r: int, n: int) -> Graph:
    """Clique-saturated graph (forbidding K_{r+1}) that is not a blow-up
    of any bounded graph: a balanced r-partite graph on n-1 vertices with
    three tampered windows W1 (size M = C(m, m/2)), W2, W3 (size m each),
    an apex joined to the windows and the remaining classes, a matching
    between W2 and W3, and one distinct half-subset of W2 wired to each W1
    vertex.

    Labels: classes of the (n-1)-vertex base in decreasing size order,
    windows at the start of classes 1..3, apex is n-1.
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    if m < 2 or m % 2:
        raise ValueError("m must be even and >= 2")
    _check_order(n)
    # the windows must fit in the last, smallest base class: checked before
    # the r class sizes are built, and m (at most its binomial) first
    smallest = max(n - 1, 0) // r
    if m > smallest or comb(m, m // 2) > smallest:
        raise ValueError(f"classes of size {smallest} cannot host windows of "
                         f"sizes C({m}, {m // 2}) and {m}")
    big_m = comb(m, m // 2)
    sizes = turan_class_sizes(n - 1, r)
    classes = _blocks(sizes)
    w1 = classes[0][:big_m]
    w2 = classes[1][:m]
    w3 = classes[2][:m]
    # the apex starts joined to every base vertex and keeps, of the first
    # three classes, only the windows
    rows = list(complete_multipartite(sizes + [1]).rows)
    _cut(rows, [n - 1], classes[0][big_m:] + classes[1][m:] + classes[2][m:])
    _wire_windows(rows, w1, w2, w3)
    return Graph.from_rows(rows, check=False)


def three_sat_twin_free(m: int) -> Graph:
    """Twin-free triangle-saturated graph on 2m + 4*log2(m) vertices with
    m^2 + 2m*log2(m) + 2*log2(m)^2 + 2*log2(m) edges (m a power of two).

    Blocks S1, S2, U1, U2 of size t = log2(m) and B1, B2 of size m;
    complete joins S1-S2, U1-U2, B1-B2; B1 realises all S2-subsets (B1[i]
    joined to bits of i) and B2 all S1-subsets; matchings U1[j]-S1[j] and
    U2[j]-S2[j]; U1[j] joined to the B2 vertices avoiding S1[j], and
    symmetrically for U2.

    Labels: S1, S2, U1, U2, B1, B2 in consecutive blocks.
    """
    t = m.bit_length() - 1
    if m < 2 or 1 << t != m:
        raise ValueError("m must be a power of two, at least 2")
    n = 2 * m + 4 * t
    _check_order(n)
    s1, s2, u1, u2, b1, b2 = _blocks([t, t, t, t, m, m])
    rows = [0] * n
    _join(rows, s1, s2)
    _join(rows, u1, u2)
    _join(rows, b1, b2)
    for i in range(m):
        _join(rows, [b1[i]], [s2[j] for j in bits(i)])
        _join(rows, [b2[i]], [s1[j] for j in bits(i)])
    for j in range(t):
        avoiding = [i for i in range(m) if not (i >> j) & 1]
        _join(rows, [u1[j]], [s1[j]] + [b2[i] for i in avoiding])
        _join(rows, [u2[j]], [s2[j]] + [b1[i] for i in avoiding])
    return Graph.from_rows(rows, check=False)


def sat_twin_free(m: int, r: int) -> Graph:
    """Twin-free K_{r+1}-saturated graph on n = r*(C(m, m/2) + 2m + 1)
    vertices: r rotated copies of the non-blow-up gadget on a balanced
    r-partite base, one hub vertex per copy, and greedy edges among the
    hubs (pairs in index order, kept when no K_{r+1} arises).

    Labels: class i of the base occupies block i of size M + 2m laid out
    as [W1 window of gadget i | W2 window of gadget i-1 | W3 window of
    gadget i-2]; hubs are the last r vertices.
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    if m < 2 or m % 2:
        raise ValueError("m must be even and >= 2")
    # C(m, m/2) >= 2, so n >= least; checked first so that a huge m never
    # reaches the binomial
    least = r * (2 * m + 3)
    if least > MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got at least {least}")
    big_m = comb(m, m // 2)
    cls = big_m + 2 * m
    n = r * (cls + 1)
    _check_order(n)
    classes = _blocks([cls] * r)
    hubs = range(r * cls, n)
    rows = list(complete_multipartite([cls] * r).rows) + [0] * r
    for i, hub in enumerate(hubs):
        w1 = classes[i][:big_m]
        w2 = classes[(i + 1) % r][big_m:big_m + m]
        w3 = classes[(i + 2) % r][big_m + m:big_m + 2 * m]
        _wire_windows(rows, w1, w2, w3)
        _join(rows, [hub], w1 + w2 + w3)
        for k in range(r):
            if k not in (i, (i + 1) % r, (i + 2) % r):
                _join(rows, [hub], classes[k])
    # greedy hub edges, keeping the graph K_{r+1}-free: the graph is
    # K_{r+1}-free before each edge, so only a K_{r+1} through the new
    # edge, a K_{r-1} among the common neighbours, can arise
    for i in range(r):
        for j in range(i + 1, r):
            g = Graph.from_rows(rows, check=False)
            if find_clique(g, r - 1, within=rows[hubs[i]] & rows[hubs[j]]) is None:
                _join(rows, [hubs[i]], [hubs[j]])
    return Graph.from_rows(rows, check=False)
