"""Exact clique number, exact chromatic number, k-colourability with
witnesses, and minimum-degree peeling down to an r-partite remainder.

Every fixed-size clique search, weighted or not, is the bitset kernel
``_best_clique``.  ``max_clique`` (colour-bounded branch-and-bound) and
``deficiency._maximal_cliques`` (Bron-Kerbosch) stay apart because their
search orders fix the witnesses of ``analyze`` and ``blowup-opt``.

The colourability solver, one for every k, branches on the vertex with
the fewest remaining colours (saturation order), propagates forced
colours, and only ever opens one previously unused colour per branch,
which is what makes refuting colourability on mid-sized graphs feasible.
Its whole state is bitmasks over the vertices, renumbered once by
(-degree, index): per colour the vertices that may still take it, per
count the vertices with that many colours left, the colour classes and
the uncoloured vertices.  The saturation choice is then the lowest
vertex of the first non-empty count, and a branch copies the masks
instead of undoing a trail.  A choice with every colour left has no
coloured neighbour, and neither has any other uncoloured vertex, so the
rest is whole components: it takes colour 0 alone, and a failure there
refutes the graph with no backtracking into the components coloured
before (so k = 2 never branches).
``chromatic_number`` accepts an optional node budget; exhausting it
raises ``SearchBudgetExceeded``, with the nodes spent, so a resource
abort can never be mistaken for a mathematical answer.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graph import Graph, _relabel_rows, bits


class SearchBudgetExceeded(RuntimeError):
    """Search ran out of its node budget before reaching an exact answer;
    ``nodes`` is the number of search nodes it spent."""

    def __init__(self, message: str, lower: int | None = None,
                 upper: int | None = None, nodes: int | None = None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.nodes = nodes


class CliquePresentError(ValueError):
    """A forbidden clique is present; ``witness`` holds its vertices."""

    def __init__(self, message: str, witness: tuple[int, ...]):
        super().__init__(message)
        self.witness = witness


class Coloring(NamedTuple):
    """Proper colouring witness: colour per vertex, palette = max+1."""

    colors: tuple[int, ...]
    palette: int

    def is_proper(self, g: Graph) -> bool:
        """One colour per vertex of g, none shared by two neighbours."""
        classes: dict[int, int] = {}
        for v, c in enumerate(self.colors):
            classes[c] = classes.get(c, 0) | 1 << v
        return len(self.colors) == g.n and not any(
            row & classes[c] for row, c in zip(g.rows, self.colors))


def _normalized_coloring(raw: Sequence[int]) -> Coloring:
    remap: dict[int, int] = {}
    out = []
    for c in raw:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return Coloring(tuple(out), len(remap))


class PeelResult(NamedTuple):
    """Vertices removed (in order) until the rest became r-partite, plus
    the parts of the remainder."""

    removed: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]


# -- cliques ----------------------------------------------------------------


def _color_sort(rows: Sequence[int], pmask: int) -> list[tuple[int, int]]:
    """Greedy colouring of the candidate set; returns (vertex, colour)
    pairs in assignment order, colour counts starting at 1."""
    order = []
    color = 0
    rest = pmask
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append((v, color))
            rest ^= low
            avail = (avail ^ low) & ~rows[v]
    return order


def max_clique(g: Graph) -> tuple[int, ...]:
    """A maximum clique, deterministic for a given labelling."""
    rows = g.rows
    best: list[int] = []

    def expand(r: list[int], pmask: int) -> None:
        nonlocal best
        for v, c in reversed(_color_sort(rows, pmask)):
            if len(r) + c <= len(best):
                return
            r.append(v)
            sub = pmask & rows[v]
            if sub:
                expand(r, sub)
            elif len(r) > len(best):
                best = r.copy()
            r.pop()
            pmask &= ~(1 << v)

    expand([], (1 << g.n) - 1)
    return tuple(sorted(best))


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    w = max_clique(g)
    return len(w), w


def _best_clique(rows: Sequence[int], mask: int, size: int,
                 weight: Sequence[int] | None = None, floor: int = -1
                 ) -> tuple[int, ...] | None:
    """The lexicographically first clique of ``size`` vertices inside
    ``mask`` whose total ``weight`` is maximal and above ``floor``, or None.

    ``weight`` must not increase with the vertex index, so the ``size``
    lowest candidates bound every completion.  Without weights the first
    clique found wins."""
    if size <= 1:
        if size == 1 and mask:
            v = (mask & -mask).bit_length() - 1
            return (v,) if weight is None or weight[v] > floor else None
        return () if size == 0 else None
    if weight is None:
        if size == 2:
            # the lowest vertex with a later neighbour, and its lowest one:
            # the loop below finds the same edge, measurably slower
            while mask:
                low = mask & -mask
                mask ^= low
                v = low.bit_length() - 1
                later = rows[v] & mask
                if later:
                    return (v, (later & -later).bit_length() - 1)
            return None
        while mask.bit_count() >= size:
            low = mask & -mask
            v = low.bit_length() - 1
            mask ^= low
            sub = _best_clique(rows, mask & rows[v], size - 1)
            if sub is not None:
                return (v,) + sub
        return None
    best = None
    while mask.bit_count() >= size:
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        bound = weight[v]
        rest = mask
        for _ in range(size - 1):
            top = rest & -rest
            bound += weight[top.bit_length() - 1]
            rest ^= top
        if bound <= floor:
            break
        sub = _best_clique(rows, mask & rows[v], size - 1, weight, floor - weight[v])
        if sub is not None:
            best = (v,) + sub
            floor = sum(weight[u] for u in best)
    return best


def find_clique(g: Graph, size: int) -> tuple[int, ...] | None:
    """The lexicographically first clique of exactly ``size`` vertices, or
    None."""
    return _best_clique(g.rows, (1 << g.n) - 1, size)


def is_clique_free(g: Graph, q: int) -> bool:
    return find_clique(g, q) is None


# -- colourability -----------------------------------------------------------


def _greedy_clique(rows: Sequence[int], n: int) -> list[int]:
    """Greedy clique grown from the highest-degree vertex; used only to
    seed colour symmetry breaking."""
    degs = [r.bit_count() for r in rows]
    v = max(range(n), key=lambda u: (degs[u], -u))
    clique = [v]
    cand = rows[v]
    while cand:
        u = max(bits(cand), key=lambda w: ((rows[w] & cand).bit_count(), -w))
        clique.append(u)
        cand &= rows[u]
    return clique


class _Budget:
    """Search nodes spent, against an optional limit."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.spent = 0

    def spend(self) -> bool:
        if self.limit is not None and self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def _k_color(rows: Sequence[int], n: int, k: int, budget: _Budget) -> list[int] | None:
    """A proper colouring with colours 0..k-1, or None if impossible."""
    # the identity colouring, which the search would not pick; it also
    # covers n = 0, where _greedy_clique has no vertex to start from
    if k >= n:
        return list(range(n))

    clique = _greedy_clique(rows, n)
    if len(clique) > k:
        return None

    # vertex i is old vertex order[i], so the lowest index is the highest
    # degree, then the lowest old index: the saturation tie-break
    degs = [r.bit_count() for r in rows]
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    rows = _relabel_rows(rows, order)
    new = [0] * n
    for i, v in enumerate(order):
        new[v] = i
    # the state, copied per branch: among the uncoloured vertices (mask
    # uncol), avail[c] holds those that may still take colour c and
    # size[s] those with s colours left (s = 1..k; a vertex that would
    # reach 0 is a dead end, so size[0] stays empty); cls[c] is colour
    # class c
    counts = range(2, k + 1)

    def place(avail: list[int], size: list[int], cls: list[int], uncol: int,
              w: int, c: int) -> int:
        """Colour w with c, which it may take, then every forced vertex,
        updating the lists in place; the new uncol, or -1 on a dead end."""
        while True:
            low = 1 << w
            cls[c] |= low
            uncol ^= low
            hit = rows[w] & avail[c] & uncol
            if hit:
                if size[1] & hit:
                    return -1
                avail[c] ^= hit
                for s in counts:
                    moved = size[s] & hit
                    if moved:
                        size[s] ^= moved
                        size[s - 1] |= moved
            forced = size[1] & uncol
            if not forced:
                return uncol
            low = forced & -forced
            w = low.bit_length() - 1
            c = 0
            while not avail[c] & low:
                c += 1

    def search(avail: list[int], size: list[int], cls: list[int], uncol: int
               ) -> list[int] | bool | None:
        """The colour classes, None on a dead end, or False when the
        graph has no k-colouring at all."""
        if not uncol:
            return cls
        if not budget.spend():
            raise SearchBudgetExceeded(f"{k}-colourability search budget exhausted",
                                       nodes=budget.spent)
        s = 2
        while not size[s] & uncol:
            s += 1
        pick = size[s] & uncol
        low = pick & -pick
        v = low.bit_length() - 1
        used = 0
        while used < k and cls[used]:
            used += 1
        # the used colours and one fresh one, lowest first; or colour 0
        # alone when v has all k left (see the module docstring)
        free = s == k
        for c in range(1 if free else min(used + 1, k)):
            if avail[c] & low:
                a, z, cl = avail[:], size[:], cls[:]
                left = place(a, z, cl, uncol, v, c)
                if left >= 0:
                    found = search(a, z, cl, left)
                    if found is not None:
                        return found
        return False if free else None

    everyone = (1 << n) - 1
    avail = [everyone] * k
    size = [0] * k + [everyone]
    cls = [0] * k
    uncol = everyone
    # clique vertex i takes colour i; one that propagation coloured
    # already has it, since its clique neighbours hold the other colours
    for i, v in enumerate(clique):
        w = new[v]
        if (uncol >> w) & 1:
            uncol = place(avail, size, cls, uncol, w, i)
            if uncol < 0:
                return None
    found = search(avail, size, cls, uncol)
    if not found:
        return None
    color = [0] * n
    for c, members in enumerate(found):
        for i in bits(members):
            color[order[i]] = c
    return color


def dsatur_coloring(g: Graph) -> Coloring:
    """Greedy saturation-order colouring; an upper bound for chi."""
    n = g.n
    rows = g.rows
    color = [-1] * n
    neighbor_colors = [0] * n
    degs = g.degrees()
    for _ in range(n):
        v = -1
        best_key = None
        for u in range(n):
            if color[u] >= 0:
                continue
            key = (-neighbor_colors[u].bit_count(), -degs[u], u)
            if best_key is None or key < best_key:
                best_key = key
                v = u
        c = 0
        taken = neighbor_colors[v]
        while (taken >> c) & 1:
            c += 1
        color[v] = c
        for u in bits(rows[v]):
            neighbor_colors[u] |= 1 << c
    return _normalized_coloring(color)


def _search_coloring(g: Graph, k: int, budget: _Budget) -> Coloring | None:
    """The search's colouring of g with at most k colours, checked, or
    None if there is none."""
    raw = _k_color(g.rows, g.n, k, budget)
    if raw is None:
        return None
    col = _normalized_coloring(raw)
    if not col.is_proper(g) or col.palette > k:
        raise AssertionError(f"{k}-colouring witness is not a proper {k}-colouring")
    return col


def is_r_colorable(g: Graph, r: int) -> tuple[bool, Coloring | None]:
    """Exact r-colourability with a witness colouring when true."""
    if r < 0:
        raise ValueError("r must be >= 0")
    col = _search_coloring(g, r, _Budget(None))
    return col is not None, col


def chromatic_number(g: Graph, node_budget: int | None = None
                     ) -> tuple[int, Coloring]:
    """Exact chromatic number with witness.  With a node budget, an
    exhausted search raises ``SearchBudgetExceeded`` carrying the bounds
    established so far instead of returning a wrong answer."""
    return _chromatic_number(g, clique_number(g)[0], node_budget)


def _chromatic_number(g: Graph, lower: int, node_budget: int | None = None
                      ) -> tuple[int, Coloring]:
    """``chromatic_number`` for a caller that already has the clique
    number ``lower``."""
    greedy = dsatur_coloring(g)
    upper = greedy.palette
    budget = _Budget(node_budget)
    refuted = lower - 1
    for k in range(lower, upper):
        try:
            col = _search_coloring(g, k, budget)
        except SearchBudgetExceeded:
            raise SearchBudgetExceeded(
                f"chromatic number undecided: in [{refuted + 1}, {upper}]",
                lower=refuted + 1, upper=upper, nodes=budget.spent)
        if col is not None:
            return col.palette, col
        refuted = k
    return upper, greedy


# -- AES peeling -------------------------------------------------------------


def _peel(g: Graph, r: int) -> PeelResult:
    """While the graph is not r-colourable, remove a minimum-degree vertex
    (lowest index on ties); return the removals and an r-partition of the
    remainder.

    Requires a K_{r+1}-free input, which the caller has checked.  Each
    removed vertex is checked against the degree bound
    deg(v) <= (3r-4)/(3r-1) * order that such graphs guarantee for their
    minimum degree; a violation would mean a bug.
    """
    alive = list(range(g.n))
    cur = g
    removed: list[int] = []
    while True:
        _, col = is_r_colorable(cur, r)
        if col is not None:
            parts: list[list[int]] = [[] for _ in range(col.palette)]
            for i, c in enumerate(col.colors):
                parts[c].append(alive[i])
            return PeelResult(tuple(removed),
                              tuple(tuple(p) for p in parts if p))
        degs = cur.degrees()
        v = min(range(cur.n), key=lambda u: (degs[u], alive[u]))
        if degs[v] * (3 * r - 1) > (3 * r - 4) * cur.n:
            raise AssertionError(
                "minimum degree exceeds the guaranteed bound; "
                "this indicates a solver bug")
        removed.append(alive[v])
        keep = [u for u in range(cur.n) if u != v]
        cur = cur.induced(keep)
        alive = [alive[u] for u in keep]
