"""Filtered enumeration of non-isomorphic graphs.

Graphs are generated order by order: every graph on n vertices arises from
a graph on n-1 vertices by attaching a new vertex, and for K_q-freeness the
attachment set must induce no K_{q-1}.  Repeats are removed by canonical
deletion (McKay's canonical construction path): a graph G is kept only
when built from the class of G - m(G), where m(G) is a fixed vertex of
least (degree, sorted neighbour degrees), so no set of every form seen is
needed and each parent is handled on its own.  Each level contains exactly
one canonical representative per isomorphism class, sorted canonically.

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

from .canon import canonical_certificate_rows
from .graph import Graph, _graph6_text, _key_rows, _relabel_rows, _upper_key, bits
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
        return _graph6_text(self._keys, self.n)


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


def _children(parent: int, k: int, q: int | None) -> list[int]:
    """Keys of the children of the order-``k`` graph with key ``parent``
    kept by canonical deletion: a child is kept when its certificate minus
    m(child) is the parent again, which needs the new vertex k to have the
    least invariant.  Only children where it has are labelled, and only ties
    between several such vertices pay the labelling of the deletion.  The
    class of G comes only from the class of G - m(G), which is one parent,
    so one set per parent removes the repeats that automorphisms of the
    parent make."""
    rows = tuple(_key_rows(parent, k))
    deg = [r.bit_count() for r in rows]
    # at[d]: parent vertices of degree d; under[d]: those of degree < d
    at = [0] * (k + 1)
    for v, d in enumerate(deg):
        at[d] |= 1 << v
    under = [0] * (k + 1)
    for d in range(k):
        under[d + 1] = under[d] | at[d]
    seen: set[int] = set()
    out: list[int] = []
    for smask in _extension_sets(rows, k, q):
        d = smask.bit_count()
        # k, of degree d, has least degree: every parent vertex of
        # degree < d is joined to k, and none of degree < d - 1 is
        # (index -1 comes only with d = 0, that is smask = 0)
        if under[d] & ~smask or under[d - 1] & smask:
            continue
        child = [r | (((smask >> v) & 1) << k) for v, r in enumerate(rows)]
        child.append(smask)
        cdeg = [r.bit_count() for r in child]
        # then it has the least sorted neighbour degrees among the
        # vertices of degree d
        own = sorted(cdeg[u] for u in bits(smask))
        same = (at[d] & ~smask) | (at[d - 1] & smask)
        others = [sorted(cdeg[u] for u in bits(child[v])) for v in bits(same)]
        if any(other < own for other in others):
            continue
        cert = canonical_certificate_rows(child, k + 1)
        key = _upper_key(cert)
        if key in seen:
            continue
        seen.add(key)
        if own in others and _canonical_parent(cert) != rows:
            continue
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
