"""Clique-saturation predicates and greedy saturation.

A graph is K_q-saturated when it is K_q-free but every missing edge would
complete a K_q.  Reports carry one completion witness per missing edge:
q-2 common neighbours forming a clique.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .graph import Graph, bits
from .invariants import CliquePresentError, _best_clique, find_clique


class SaturationReport(NamedTuple):
    q: int
    clique_free: bool
    obstruction: tuple[int, ...] | None
    saturated: bool
    completions: dict[tuple[int, int], tuple[int, ...] | None]

    def __repr__(self) -> str:
        # completions, one witness per non-edge, are too many to print
        return (f"SaturationReport(q={self.q!r}, clique_free={self.clique_free!r}, "
                f"obstruction={self.obstruction!r}, saturated={self.saturated!r})")

    def missing(self) -> list[tuple[int, int]]:
        """Non-edges without a completion witness."""
        return sorted(e for e, w in self.completions.items() if w is None)


def _completion(rows: Sequence[int], u: int, v: int, q: int
                ) -> tuple[int, ...] | None:
    """Lexicographically first K_{q-2} inside the common neighbourhood."""
    return _best_clique(rows, rows[u] & rows[v], q - 2)


def _completions(g: Graph, q: int
                 ) -> Iterator[tuple[tuple[int, int], tuple[int, ...] | None]]:
    """Each non-edge (u, v), u < v, in lexicographic order, with its
    completion witness or None."""
    rows = g.rows
    for u in range(g.n):
        # the non-neighbours of u after u
        for v in bits(~rows[u] & ((1 << g.n) - (2 << u))):
            yield (u, v), _completion(rows, u, v, q)


def _first_missing(g: Graph, q: int) -> tuple[int, int] | None:
    """The first non-edge without a completion, or None: the verdict of
    ``is_saturated`` on a K_q-free graph, without building the report."""
    return next((e for e, w in _completions(g, q) if w is None), None)


def is_saturated(g: Graph, q: int) -> SaturationReport:
    """Full saturation report: K_q-freeness (with an obstruction witness if
    violated) and a completion witness per non-edge.  Equal witnesses are
    one tuple object."""
    if q < 3:
        raise ValueError("q must be >= 3")
    obstruction = find_clique(g, q)
    completions: dict[tuple[int, int], tuple[int, ...] | None] = {}
    shared: dict[tuple[int, ...] | None, tuple[int, ...] | None] = {}
    for e, w in _completions(g, q):
        completions[e] = shared.setdefault(w, w)
    # the distinct witnesses hold None when some non-edge has no completion
    return SaturationReport(
        q=q,
        clique_free=obstruction is None,
        obstruction=obstruction,
        saturated=obstruction is None and None not in shared,
        completions=completions,
    )


def saturate(g: Graph, q: int) -> Graph:
    """Scan non-edges in lexicographic order, adding each one that keeps
    the graph K_q-free; the result is K_q-saturated and contains ``g``."""
    if q < 3:
        raise ValueError("q must be >= 3")
    obstruction = find_clique(g, q)
    if obstruction is not None:
        raise CliquePresentError(f"graph already contains a K_{q}", obstruction)
    rows = list(g.rows)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not rows[u] >> v & 1 and _completion(rows, u, v, q) is None:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph.from_rows(rows, check=False)
