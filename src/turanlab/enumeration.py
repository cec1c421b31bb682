"""Filtered enumeration of non-isomorphic graphs.

Graphs are generated order by order: every graph on n vertices arises from
a graph on n-1 vertices by attaching a new vertex, and for K_q-freeness the
attachment set must induce no K_{q-1}.  Children are deduplicated through
canonical certificates, so each level contains exactly one representative
per isomorphism class, sorted canonically.

Levels are cached per filter so repeated queries (the verification
commands share the triangle-free levels, for instance) pay once.  A
checkpoint file carries that cache between runs and is rewritten after
every finished order.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

from .canon import canonical_certificate_rows
from .graph import Graph, from_graph6, to_graph6
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
    if q == 2:
        # forbidding K_2 means no edges ever: only the empty attachment
        return [0]
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


def _next_level(parents: list[Graph], q: int | None) -> list[Graph]:
    seen: set[tuple[int, ...]] = set()
    out: list[Graph] = []
    for parent in parents:
        k = parent.n
        for smask in _extension_sets(parent.rows, k, q):
            cert = canonical_certificate_rows(parent.add_vertex(smask).rows, k + 1)
            if cert not in seen:
                seen.add(cert)
                out.append(Graph.from_rows(cert, check=False))
    out.sort(key=lambda g: g.rows)
    return out


def _check_request(max_order: int, q: int | None) -> None:
    if q is not None and q < 2:
        raise ValueError("forbidden clique size must be >= 2")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if q is None and max_order > UNRESTRICTED_MAX:
        raise EnumerationLimitError(
            f"unrestricted enumeration is limited to order {UNRESTRICTED_MAX}; "
            f"order {max_order} has {_class_count_estimate(max_order)} classes"
        )


def levels_up_to(max_order: int, forbidden_clique: int | None = None) -> list[list[Graph]]:
    """Lists of all non-isomorphic (K_q-free) graphs for orders 1..max_order.

    ``levels[i]`` holds order i+1.  Unrestricted enumeration is capped at
    order 11 by contract; hereditary clique filters have no hard cap.
    """
    q = forbidden_clique
    _check_request(max_order, q)
    levels = _LEVELS.setdefault(q, [])
    if not levels:
        levels.append([Graph(1)])
    while len(levels) < max_order:
        levels.append(_next_level(levels[-1], q))
    return levels[:max_order]


def enumerate_graphs(n: int, forbidden_clique: int | None = None) -> list[Graph]:
    """All non-isomorphic graphs of order exactly ``n`` passing the filter,
    one canonical representative each, in canonical order."""
    if n == 0:
        return [Graph(0)]
    return levels_up_to(n, forbidden_clique)[n - 1]


def _enumerate_resumable(n: int, q: int | None, path: str) -> list[Graph]:
    """``enumerate_graphs(n, q)`` continuing from the checkpoint at
    ``path``, which is replaced atomically after each order it lacked."""
    key = q if q is not None else "none"
    saved = 0
    if os.path.exists(path):
        with open(path) as fh:
            state = json.load(fh)
        if state.get("filter") != key:
            raise ValueError(f"resume file {path} was built with a different filter")
        saved = len(state["levels"])
        if saved:
            _LEVELS[q] = [[from_graph6(s) for s in level] for level in state["levels"]]
    if n > 0:
        _check_request(n, q)
    # write every order the file lacks, even one already cached in-process
    for order in range(saved + 1, n + 1):
        levels = levels_up_to(order, q)
        state = {"schema": 1, "filter": key,
                 "levels": [[to_graph6(g) for g in level] for level in levels]}
        with open(path + ".tmp", "w") as fh:
            json.dump(state, fh)
        os.replace(path + ".tmp", path)
    return enumerate_graphs(n, q)
