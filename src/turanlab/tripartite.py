"""Extraction of a large complete tripartite subgraph from a 4-saturated
graph, with an independently checkable certificate.

The pipeline peels low-degree vertices to reach a tripartite remainder,
classifies the peeled vertices by the size of their smallest neighbourhood
part, strips the small neighbourhoods, buckets the remaining vertices by
their attachment to the exceptional core, and keeps buckets that are
completely joined to one another.  The source argument keeps only buckets
of an asymptotic size, which forces the joins; here every bucket is tried,
largest first, and its joins are checked directly.  Correctness of the
output never depends on the constants because the certificate is
re-validated from scratch.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits
from .invariants import CliquePresentError, _peel, find_clique
from .saturation import _first_missing


class TripartiteCertificate(NamedTuple):
    """Three disjoint independent sets, pairwise completely joined."""

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    order: int

    @property
    def covered(self) -> int:
        return sum(len(p) for p in self.parts)


class CertificateError(ValueError):
    """The extracted sets failed re-validation; carries the offending pair."""

    def __init__(self, message: str, offender: tuple[int, int]):
        super().__init__(message)
        self.offender = offender


def validate_certificate(g: Graph, cert: TripartiteCertificate) -> None:
    """Brute-force re-check: parts disjoint, each independent, all cross
    pairs joined.  Raises ``CertificateError`` on the first violation."""
    seen: set[int] = set()
    for part in cert.parts:
        for v in part:
            if v in seen:
                raise CertificateError(f"vertex {v} in two parts", (v, v))
            seen.add(v)
    for part in cert.parts:
        for i, u in enumerate(part):
            for v in part[i + 1:]:
                if g.has_edge(u, v):
                    raise CertificateError(
                        f"part not independent at ({u},{v})", (u, v))
    for a in range(3):
        for b in range(a + 1, 3):
            for u in cert.parts[a]:
                for v in cert.parts[b]:
                    if not g.has_edge(u, v):
                        raise CertificateError(
                            f"cross pair ({u},{v}) not joined", (u, v))


def extract_tripartite(g: Graph, c_param: int = 10) -> TripartiteCertificate:
    """Extract a complete tripartite subgraph from a K4-free, 4-saturated
    graph (both preconditions checked, witnesses reported on failure)."""
    obstruction = find_clique(g, 4)
    if obstruction is not None:
        raise CliquePresentError("graph contains a K_4", obstruction)
    missing = _first_missing(g, 4)
    if missing is not None:
        raise CliquePresentError(
            f"graph is not 4-saturated: non-edge {missing} has no completion",
            missing)
    exceptional, parts = _peel(g, 3)  # find_clique has found no K4
    small_nbhds = 0   # union of A_v over all peeled v
    core = sum(1 << v for v in exceptional)
    for v in exceptional:
        a_v = min((g.rows[v] & p for p in parts), key=int.bit_count)
        small_nbhds |= a_v
        if a_v.bit_count() < c_param:
            core |= a_v

    # the core meets the parts only in small neighbourhoods, dropped here;
    # the survivors are bucketed by their attachment to the core
    candidates: list[tuple[int, int, int, int]] = []
    for i, part in enumerate(parts):
        buckets: dict[int, int] = {}
        for u in bits(part & ~small_nbhds):
            key = g.rows[u] & core
            buckets[key] = buckets.get(key, 0) | 1 << u
        for key, bucket in buckets.items():
            candidates.append((-bucket.bit_count(), i, key, bucket))
    candidates.sort()
    picked = [0, 0, 0]
    for _size, i, _key, bucket in candidates:
        others = picked[(i + 1) % 3] | picked[(i + 2) % 3]
        if all(not others & ~g.rows[v] for v in bits(bucket)):
            picked[i] |= bucket
    cert = TripartiteCertificate(
        parts=tuple(tuple(bits(p)) for p in picked), order=g.n)
    validate_certificate(g, cert)
    return cert
