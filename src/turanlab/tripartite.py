"""Extraction of a large complete tripartite subgraph from a 4-saturated
graph, with an independently checkable certificate.

The pipeline peels low-degree vertices to reach a tripartite remainder,
classifies the peeled vertices by the size of their smallest neighbourhood
part, strips the small neighbourhoods, buckets the remaining vertices by
their attachment to the exceptional core, and keeps the buckets large
enough to force complete joins.  Asymptotic thresholds from the source
argument are replaced by the concrete bucket cutoff 2*sqrt((|F|+1)*n);
correctness of the output never depends on the constants because the
certificate is re-validated from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .graph import Graph, bits
from .invariants import CliquePresentError, _peel
from .saturation import is_saturated


@dataclass(frozen=True)
class TripartiteCertificate:
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
    sat = is_saturated(g, 4)
    if sat.obstruction is not None:
        raise CliquePresentError("graph contains a K_4", sat.obstruction)
    if not sat.saturated:
        missing = sat.missing()[0]
        raise CliquePresentError(
            f"graph is not 4-saturated: non-edge {missing} has no completion",
            missing)
    n = g.n
    peel = _peel(g, 3)  # is_saturated has found no K4
    exceptional = peel.removed
    part_of = {}
    for i, p in enumerate(peel.parts):
        for v in p:
            part_of[v] = i

    small_nbhds = 0   # union of A_v over all peeled v
    core = 0
    for v in exceptional:
        core |= 1 << v
    for v in exceptional:
        by_part: list[list[int]] = [[], [], []]
        for u in bits(g.rows[v]):
            if u in part_of:
                by_part[part_of[u]].append(u)
        a_v = min(by_part, key=len)
        for u in a_v:
            small_nbhds |= 1 << u
        if len(a_v) < c_param:
            for u in a_v:
                core |= 1 << u

    # the core meets the parts only in small neighbourhoods, dropped here
    keep = [[u for u in p if not (small_nbhds >> u) & 1] for p in peel.parts]

    # bucket the survivors by their attachment to the exceptional core;
    # buckets reaching 2*sqrt((|F|+1)*n) are the ones the argument
    # guarantees to be pairwise completely joined, so they go first, but
    # every candidate is admitted only after a direct completeness check
    # against the current selection (best effort at desk scale, where the
    # guaranteed threshold can exceed the part sizes)
    threshold = 2 * isqrt((len(exceptional) + 1) * n)
    candidates: list[tuple[int, int, int, list[int]]] = []
    for i, pool in enumerate(keep):
        buckets: dict[int, list[int]] = {}
        for u in pool:
            buckets.setdefault(g.rows[u] & core, []).append(u)
        for key, bucket in buckets.items():
            candidates.append((i, key, len(bucket), bucket))
    candidates.sort(key=lambda t: (t[2] < threshold, -t[2], t[0], t[1]))
    picked: list[list[int]] = [[], [], []]
    masks = [0, 0, 0]
    for i, _key, _size, bucket in candidates:
        ok = True
        for j in range(3):
            if j == i:
                continue
            for v in bucket:
                if masks[j] & ~g.rows[v]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            picked[i].extend(bucket)
            for v in bucket:
                masks[i] |= 1 << v
    for p in picked:
        p.sort()
    cert = TripartiteCertificate(
        parts=(tuple(picked[0]), tuple(picked[1]), tuple(picked[2])),
        order=n)
    validate_certificate(g, cert)
    return cert

