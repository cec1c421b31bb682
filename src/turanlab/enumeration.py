"""Filtered enumeration of non-isomorphic graphs.

Graphs are generated order by order: every graph on n vertices arises from
a graph on n-1 vertices by attaching a new vertex, and for K_q-freeness the
attachment set must induce no K_{q-1}.  Repeats are removed by canonical
deletion (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998): a graph G is kept only when its new vertex lies in the orbit of
m(G) under Aut(G), where m(G) is the vertex of least (degree, sorted
neighbour degrees) that comes first in canonical order.  So G is built
only from the class of G - m(G), no set of every form seen is needed and
each parent is handled on its own.  The orbits come with the child's
canonical labelling (``canon.canonical_labelling``), and only a tie on
the invariant asks for them.  Automorphisms of the parent that permute
a class of twins would give the same child several times, so a parent
tries one attachment set per orbit of those permutations.  Each level
contains exactly one canonical representative per isomorphism class,
sorted canonically.

Since parents are independent, a level with 128 or more parents is built
by forked workers: one per usable core, with at least 64 parents each,
worker i of w taking every w-th parent from the i-th.  Their keys are
merged and sorted, so the level is the same for any worker count.

Levels are cached per filter so repeated queries (the verification
commands share the triangle-free levels, for instance) pay once.  A level
is held as the sorted list of its graphs' keys, one integer each (the
upper triangle, ``graph._upper_key``), and handed out as a read-only
``Level`` that builds each ``Graph`` only when it is reached.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections.abc import Sequence
from typing import BinaryIO, Iterator

from .canon import canonical_certificate_rows, canonical_labelling
from .graph import Graph, _graph6_chunks, _key_rows, _upper_key, bits
from .invariants import _best_clique


class EnumerationLimitError(ValueError):
    """Raised for enumeration requests that are infeasible by contract."""


class EnumerationWorkerError(RuntimeError):
    """Raised when a forked worker building a level fails or cannot start."""


UNRESTRICTED_MAX = 11

# a level is shared out over forked workers when each gets this many parents
_PARENTS_PER_WORKER = 64

# filter key: None for all graphs, q >= 2 for K_q-free; levels[i] holds
# the sorted keys of order i + 1
_LEVELS: dict[int | None, list[list[int]]] = {}


class Level(Sequence):
    """The graphs of one enumeration level, read-only and in canonical
    order.  It holds the level's keys (``graph._upper_key``) and builds
    each ``Graph`` when it is reached, so ``list(level)`` is the list of
    graphs and the cached level cannot be changed through it."""

    __slots__ = ("n", "_keys")

    def __init__(self, keys: list[int], n: int):
        self.n = n
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i: int | slice) -> Graph | Level:
        if isinstance(i, slice):
            return Level(self._keys[i], self.n)
        return Graph.from_rows(_key_rows(self._keys[i], self.n), check=False)

    def __iter__(self) -> Iterator[Graph]:
        n = self.n
        for key in self._keys:
            yield Graph.from_rows(_key_rows(key, n), check=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Level):
            return NotImplemented
        return self.n == other.n and self._keys == other._keys

    def __repr__(self) -> str:
        return f"Level(n={self.n}, graphs={len(self._keys)})"

    def graph6(self) -> str:
        """The graph6 lines of the level, each ending in a newline, written
        from the keys with no ``Graph`` built."""
        return "".join(self.graph6_chunks())

    def graph6_chunks(self) -> Iterator[str]:
        """``graph6()`` in consecutive pieces of a bounded number of lines,
        for writing a level without holding its whole text."""
        return _graph6_chunks(self._keys, self.n)


def _class_count_estimate(n: int) -> str:
    """Rough isomorphism-class count 2^C(n,2) / n!, as a decimal string."""
    import math

    log10 = n * (n - 1) / 2 * math.log10(2) - math.log10(math.factorial(n))
    exp = int(log10)
    return f"~{10 ** (log10 - exp):.1f}e{exp}"


def _extension_sets(rows: Sequence[int], k: int, q: int | None) -> list[int]:
    """Attachment masks S such that adding a vertex joined to S keeps the
    graph K_q-free, i.e. S induces no K_{q-1}, and gives the new vertex
    least degree in the child; the empty set included, and one S for each
    orbit of the twin group.

    With δ the least degree of the graph, the new vertex has least degree
    exactly when |S| <= δ, or |S| = δ + 1 and S holds every vertex of
    degree δ.  Open twins (equal rows) and closed twins (rows equal once
    the pair's own two bits are removed) form classes; the symmetric group
    on each class is a group of automorphisms of the graph, and the S with
    a prefix of every class in index order are one per orbit of their
    product.  Masks grow in increasing vertex order, so u is skipped when
    the class member before it is not in S."""
    # before[u]: the bit of the last vertex before u in u's twin class
    before = [0] * k
    last_open: dict[int, int] = {}
    last_closed: dict[int, int] = {}
    for u, r in enumerate(rows):
        closed = r | 1 << u
        prev = last_open.get(r, last_closed.get(closed))
        if prev is not None:
            before[u] = 1 << prev
        last_open[r] = last_closed[closed] = u
    delta = min(r.bit_count() for r in rows)
    low = sum(1 << v for v, r in enumerate(rows) if r.bit_count() == delta)
    out = [0]
    # a K_{q-1} through u inside S means a K_{q-2} in S & N(u)
    need = None if q is None else q - 2

    def grow(smask: int, start: int, size: int) -> None:
        for u in range(start, k):
            # the (δ + 1)-th member must complete the vertices of degree δ
            if before[u] & ~smask or size == delta and low & ~smask & ~(1 << u):
                continue
            if need is not None:
                common = rows[u] & smask
                if common.bit_count() >= need and _best_clique(rows, common, need) is not None:
                    continue
            nxt = smask | (1 << u)
            out.append(nxt)
            if size < delta:
                grow(nxt, u + 1, size + 1)

    grow(0, 0, 0)
    return out


def _children(parent: int, k: int, q: int | None) -> list[int]:
    """Keys of the children of the order-``k`` graph with key ``parent``
    kept by canonical deletion: a child G is kept when the new vertex k
    lies in the orbit of m(G) under Aut(G), where m(G) is the vertex of
    least (degree, sorted neighbour degrees) that comes first in canonical
    order.  Then G - m(G) is isomorphic to the parent, and the class of G
    comes from this parent alone.  Only children where k has the least invariant are
    labelled, and only a tie between several such vertices asks the
    labelling for the orbits.

    ``_extension_sets`` gives one set per orbit of the parent's twin
    group; the sets that other automorphisms of the parent map onto each
    other give one child key, kept once through ``seen``.  A key enters
    ``seen`` only when its child is kept: the orbit test depends on which
    vertex is new, so a rejected embedding of a class must not hide an
    accepted one from a later set."""
    rows = tuple(_key_rows(parent, k))
    deg = [r.bit_count() for r in rows]
    # at[d]: parent vertices of degree d; at[k], and so at[-1], is empty
    at = [0] * (k + 1)
    for v, d in enumerate(deg):
        at[d] |= 1 << v
    seen: set[int] = set()
    out: list[int] = []
    for smask in _extension_sets(rows, k, q):
        d = smask.bit_count()
        child = [r | (((smask >> v) & 1) << k) for v, r in enumerate(rows)]
        child.append(smask)
        cdeg = [r.bit_count() for r in child]
        # k has least degree d (see ``_extension_sets``), and must have the
        # least sorted neighbour degrees among the vertices of degree d
        own = sorted(cdeg[u] for u in bits(smask))
        same = (at[d] & ~smask) | (at[d - 1] & smask)
        others = {v: sorted(cdeg[u] for u in bits(child[v])) for v in bits(same)}
        if any(other < own for other in others.values()):
            continue
        tied = [v for v, other in others.items() if other == own]
        if tied:
            # m(G) is the first of k and the vertices tied with it in
            # canonical order
            cert, lab, orbit = canonical_labelling(child, k + 1)
            tied.append(k)
            m = next(v for v in lab if v in tied)
            if orbit[m] != orbit[k]:
                continue
        else:
            cert = canonical_certificate_rows(child, k + 1)
        key = _upper_key(cert)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(parents: int) -> int:
    """Forked workers for a level of ``parents`` parents, one per usable
    core and at least _PARENTS_PER_WORKER parents each; 1 means in-process,
    as it does where there is no fork or where another thread runs, which
    a forked child would lose mid-step."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    return max(1, min(_usable_cores(), parents // _PARENTS_PER_WORKER))


def _work(parents: list[int], k: int, q: int | None, fd: int) -> int:
    """Body of a forked worker: write the kept keys of the order-``k``
    ``parents`` to ``fd`` as one marshalled list, or its error as one
    marshalled string; return the exit status."""
    try:
        answer = [c for p in parents for c in _children(p, k, q)]
    except Exception as exc:  # noqa: BLE001 - sent to the parent, which raises
        answer = f"{type(exc).__name__}: {exc}"
    with os.fdopen(fd, "wb") as fh:
        marshal.dump(answer, fh)
    return int(isinstance(answer, str))


def _forked_children(parents: list[int], k: int, q: int | None,
                     w: int) -> list[int]:
    """The kept keys of the order-``k`` ``parents`` from ``w`` forked workers,
    worker i taking parents[i::w] and answering through its own pipe.  An
    answer is read as it arrives, never held whole as bytes.  Any worker
    that fails, or ends without a whole list, fails the level, so it is
    never short."""
    workers: list[tuple[int, BinaryIO]] = []
    try:
        for i in range(w):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker; os._exit runs none of the
                # parent's exit handlers and flushes none of its buffers
                code = 1
                try:
                    code = _work(parents[i::w], k, q, wfd)
                finally:
                    os._exit(code)
            os.close(wfd)
            workers.append((pid, os.fdopen(rfd, "rb")))
        keys: list[int] = []
        for i in range(w):
            pid, reader = workers[0]
            with reader:
                try:
                    answer = marshal.load(reader)
                except (EOFError, ValueError):  # the pipe ended mid-answer
                    answer = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if code or not isinstance(answer, list):
                detail = (f"ended by signal {-code}" if code < 0 else
                          answer if isinstance(answer, str) else
                          f"no answer, exit status {code}")
                raise EnumerationWorkerError(
                    f"enumeration worker {i} of {w} failed: {detail}")
            keys.extend(answer)
        return keys
    except OSError as exc:
        raise EnumerationWorkerError(f"enumeration workers: {exc}") from exc
    finally:
        if workers:  # after a failure: stop and reap the rest
            import signal
            for pid, reader in workers:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _next_level(parents: list[int], k: int, q: int | None) -> list[int]:
    """The keys of order k + 1 from the keys ``parents`` of order k, by
    canonical deletion one parent at a time (see ``_children``), in-process
    or over forked workers; the keys are sorted once merged, so the level
    does not depend on the worker count."""
    w = _worker_count(len(parents))
    if w == 1:
        level = [c for p in parents for c in _children(p, k, q)]
    else:
        level = _forked_children(parents, k, q, w)
    level.sort()
    return level


def _check_filter(q: int | None) -> None:
    if q is not None and q < 2:
        raise ValueError("forbidden clique size must be >= 2")


def levels_up_to(max_order: int, forbidden_clique: int | None = None) -> list[Level]:
    """All non-isomorphic (K_q-free) graphs for orders 1..max_order, one
    read-only ``Level`` per order.

    ``levels[i]`` holds order i+1.  Unrestricted enumeration is capped at
    order 11 by contract; hereditary clique filters have no hard cap.
    """
    q = forbidden_clique
    _check_filter(q)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if q is None and max_order > UNRESTRICTED_MAX:
        raise EnumerationLimitError(
            f"unrestricted enumeration is limited to order {UNRESTRICTED_MAX}; "
            f"order {max_order} has {_class_count_estimate(max_order)} classes"
        )
    levels = _LEVELS.setdefault(q, [])
    if not levels:
        levels.append([0])  # the key of the one graph of order 1
    while len(levels) < max_order:
        levels.append(_next_level(levels[-1], len(levels), q))
    return [Level(keys, i + 1) for i, keys in enumerate(levels[:max_order])]


def enumerate_graphs(n: int, forbidden_clique: int | None = None) -> Level:
    """All non-isomorphic graphs of order exactly ``n`` passing the filter,
    one canonical representative each, in canonical order."""
    if n == 0:  # the levels start at order 1
        _check_filter(forbidden_clique)
        return Level([0], 0)
    return levels_up_to(n, forbidden_clique)[n - 1]
