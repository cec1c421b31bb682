"""Canonical labelling; two graphs are isomorphic iff their certificates
are equal.

The canonical form is computed per connected component by iterated
equitable refinement plus backtracking over the first non-singleton cell.
Two prunings keep the search tree small without external dependencies:

* interchangeable vertices (open or closed twins) inside the target cell
  are branched on only once, which collapses blow-ups and multipartite
  graphs to a handful of leaves;
* components are canonicalised independently and then sorted, so unions
  of many isomorphic components never multiply the search.

Refinement is incremental (McKay & Piperno, "Practical graph isomorphism,
II", arXiv 1301.1493): each pass counts neighbours only into the cells
that the previous pass split, yet yields the same ordered partitions as
counting into every cell (see ``_refine``), so the search tree, its
leaves and the certificates do not depend on the shortcut.  There is no
one-splitter queue as in nauty: it would reorder the cells and change
every certificate.

The certificate of a labelling is the tuple of relabelled adjacency rows
(``graph._relabel_rows``, which also cuts out each component);
the canonical labelling is the one with the lexicographically smallest
certificate.  Certificates of isomorphic graphs are identical.

``canonical_labelling`` runs the same search and also returns the exact
orbits of the automorphism group, which canonical deletion needs to
settle ties (``enumeration._children``).  It needs no search of its own:
the twin swaps the candidate loop skips, the maps between leaves of
equal certificate and the maps between isomorphic components generate
the whole group (see ``_canon_search``), and a union-find over them
gives its orbits.  Only that entry collects them, so the certificate
alone costs what it did.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, _relabel_rows, bits


def _refine(cells: list[int], rows: Sequence[int],
            fresh: list[int]) -> list[int]:
    """Equitable refinement of the ordered partition ``cells``, a list of
    vertex masks: split each cell by its vertices' neighbour counts into
    the masks ``fresh`` until no cell splits.  Sub-cells are ordered by
    their count signature, which keeps the cell order
    isomorphism-invariant.

    ``fresh`` lists, in cell order, the only cells whose counts can still
    split anything: the whole vertex set at the root, ``[1 << v]`` after
    individualising v in an equitable partition, and then the pieces of
    the cells that the last pass split, less the last piece of each.
    Counts into the other cells are already constant inside every cell,
    and the last piece's count is the old cell's constant minus the other
    pieces' counts, so the signatures compare exactly as the tuples of
    counts into every cell would: the ordered partitions, and with them
    the search tree and its leaves, are those of refining against every
    cell on every pass.  A signature packs its counts, each below
    ``len(rows)``, into fixed-width fields of one integer, most
    significant first, so integer order is the tuples' lexicographic
    order."""
    shift = len(rows).bit_length()
    while fresh:
        out: list[int] = []
        split: list[int] = []
        for c in cells:
            if c & (c - 1) == 0:
                out.append(c)
                continue
            groups: dict[int, int] = {}
            rest = c  # peeled inline, not by bits(): canon's hottest loop
            if len(fresh) == 1:
                m = fresh[0]
                while rest:
                    low = rest & -rest
                    rest ^= low
                    sig = (rows[low.bit_length() - 1] & m).bit_count()
                    groups[sig] = groups.get(sig, 0) | low
            else:
                while rest:
                    low = rest & -rest
                    rest ^= low
                    rv = rows[low.bit_length() - 1]
                    sig = 0
                    for m in fresh:
                        sig = (sig << shift) | (rv & m).bit_count()
                    groups[sig] = groups.get(sig, 0) | low
            if len(groups) == 1:
                out.append(c)
                continue
            pieces = [groups[sig] for sig in sorted(groups)]
            out.extend(pieces)
            split.extend(pieces[:-1])
        cells = out
        fresh = split
    return cells


def _canon_search(rows: Sequence[int], k: int, autos: list | None = None
                  ) -> tuple[list[int], list[int]]:
    """Least certificate over the search leaves, for a graph on local
    vertices 0..k-1, k >= 1, and the labelling of the first leaf giving it.

    With a list ``autos``, also append pairs (a, b) of vertex lists such
    that the orbits of Aut are the classes of the relation a[i] ~ b[i].
    The leaves of the unpruned tree form an Aut-invariant set, so every
    automorphism maps the best leaf to a best leaf of that tree.  The
    candidate loop skips v only for an earlier twin u in the same cell;
    the transposition (u v) is an automorphism that fixes the node and
    maps u's subtree onto v's.  So every leaf is a product of such
    transpositions applied to a visited leaf, and these transpositions
    with the maps from the best leaf to the later visited leaves of equal
    certificate generate Aut."""
    best: list[int] | None = None
    best_lab: list[int] = []

    def rec(cells: list[int]) -> None:
        nonlocal best, best_lab
        for idx, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            lab = [c.bit_length() - 1 for c in cells]
            cert = _relabel_rows(rows, lab)
            if best is None or cert < best:
                best, best_lab = cert, lab
            elif autos is not None and cert == best:
                autos.append((best_lab, lab))
            return
        # candidates up to interchangeability: skip v when an earlier u in
        # the cell is an open twin (equal rows) or closed twin (rows differ
        # exactly in the bits u, v)
        cands: list[int] = []
        for v in bits(cell):
            rv = rows[v]
            for u in cands:
                d = rows[u] ^ rv
                if d == 0 or d == (1 << u) | (1 << v):
                    if autos is not None:
                        autos.append(([u], [v]))
                    break
            else:
                cands.append(v)
        for v in cands:
            sub = cells[:idx] + [1 << v, cell ^ (1 << v)] + cells[idx + 1:]
            rec(_refine(sub, rows, [1 << v]))

    try:
        rec(_refine([(1 << k) - 1], rows, [(1 << k) - 1]))
    finally:
        del rec  # rec's cell holds rec: a cycle only the collector frees
    return best, best_lab


def _components(rows: Sequence[int], n: int) -> list[int]:
    """Connected components as vertex masks, in order of smallest vertex."""
    unseen = (1 << n) - 1
    comps = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        comps.append(comp)
        unseen &= ~comp
    return comps


def _labelling(rows: Sequence[int], n: int, autos: list | None = None
               ) -> tuple[list[int], list[int]]:
    """The canonical certificate of the graph ``rows`` and its labelling
    (vertex ``lab[i]`` goes to i), per component by ``_canon_search``; the
    pairs put in ``autos`` are as there, with the maps between the
    labellings of isomorphic components."""
    comps = _components(rows, n)
    if len(comps) == 1:
        # as the loop below gives it, less one identity relabel
        return _canon_search(rows, n, autos)
    pieces = []
    for comp in comps:
        verts = list(bits(comp))
        local = _relabel_rows(rows, verts)
        sub = None if autos is None else []
        cert, lab = _canon_search(local, len(local), sub)
        pieces.append((len(local), cert, [verts[i] for i in lab]))
        if sub:
            autos.extend(([verts[i] for i in a], [verts[i] for i in b])
                         for a, b in sub)
    # concatenate component certificates, larger components last so that
    # the combined certificate is again isomorphism-invariant
    pieces.sort()
    out: list[int] = []
    order: list[int] = []
    offset = 0
    for i, (size, cert, lab) in enumerate(pieces):
        out.extend(r << offset for r in cert)
        offset += size
        order.extend(lab)
        if autos is not None and i and pieces[i - 1][:2] == (size, cert):
            autos.append((pieces[i - 1][2], lab))
    return out, order


def canonical_certificate_rows(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Canonical certificate (relabelled adjacency rows) of the graph given
    by ``rows``.  Equal for two graphs iff they are isomorphic."""
    return tuple(_labelling(rows, n)[0])


def canonical_labelling(rows: Sequence[int], n: int
                        ) -> tuple[tuple[int, ...], list[int], list[int]]:
    """The canonical certificate of the graph ``rows`` (as
    ``canonical_certificate_rows`` gives it), the canonical labelling
    ``lab`` (its vertex ``lab[i]`` becomes vertex i of the certificate) and
    the orbits of its automorphism group: ``orbit[v]`` is the least vertex
    that an automorphism maps v to.  The same search as the certificate's,
    which also collects the automorphisms it meets."""
    autos: list[tuple[list[int], list[int]]] = []
    cert, lab = _labelling(rows, n, autos)
    orbit = list(range(n))  # a union-find forest whose roots are least

    def root(v: int) -> int:
        while orbit[v] != v:
            v = orbit[v]
        return v

    for a, b in autos:
        for u, v in zip(a, b):
            u, v = root(u), root(v)
            orbit[max(u, v)] = min(u, v)
    return tuple(cert), lab, [root(v) for v in range(n)]


def certificate(g: Graph) -> tuple[int, ...]:
    return canonical_certificate_rows(g.rows, g.n)
