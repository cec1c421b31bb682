"""Exactness gates: every output of a run is checked here, so no speed-up
can come from a wrong answer.

The enumeration gates pin per-order class counts to OEIS and the emitted
graph6 stream to its pinned sha256.  The certify gates re-validate
every witness with brute-force code of their own, on plain data (rows as
integer bitsets), independent of the library's solvers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# OEIS A006785: triangle-free graphs on n nodes, n = 1..10
A006785 = (1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172)
# OEIS A000088: graphs on n nodes, n = 1..8
A000088 = (1, 2, 4, 11, 34, 156, 1044, 12346)


@dataclass(frozen=True)
class EnumSpec:
    argv: tuple[str, ...]
    order: int
    forbidden_clique: int | None
    counts: tuple[int, ...]
    stream_sha256: str


ENUM = {
    "enum-tf": EnumSpec(
        ("enumerate", "--n", "10", "--filter", "triangle-free"), 10, 3, A006785,
        "3c25b8ea6d093df18080c3ff89810c5562aa043b4e99c40141d3fdcd222d7963"),
    "enum-all": EnumSpec(
        ("enumerate", "--n", "8"), 8, None, A000088,
        "cdfa08c54d7a3b5786cc4c2d89979a112ec3b1756f402d293db741ff10a8d2e9"),
}

# certify: exact chromatic numbers of the two fixed graphs, the node budget
# of each search (about 4x what the larger one needed when pinned),
# and the report digest of the default seed
CHI = {"tf-chi5": 5, "myc-myc-groetzsch": 6}
CHI_NODE_BUDGET = 250_000
DEFAULT_SEED = 1
CERTIFY_SHA256 = {
    DEFAULT_SEED: "e7dad95978041033db717c7887250df68b8509a7894704beac6db43468ec5f17",
}


class Tally:
    """Checks attempted and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_enum(tally: Tally, spec: EnumSpec, stream: str,
               lower_counts: list[int]) -> None:
    """Per-order counts (orders below ``spec.order`` from ``lower_counts``,
    the top order from the emitted lines) and the stream digest."""
    counts = list(lower_counts) + [len(stream.splitlines())]
    tally.check(len(counts) == len(spec.counts),
                f"{len(counts)} orders, expected {len(spec.counts)}")
    for order, (got, want) in enumerate(zip(counts, spec.counts), 1):
        tally.check(got == want, f"order {order}: {got} classes, expected {want}")
    tally.check(sha256(stream) == spec.stream_sha256, "graph6 stream digest mismatch")


# -- brute-force helpers on adjacency rows ------------------------------------


def _adjacent(rows: list[int], u: int, v: int) -> bool:
    return bool((rows[u] >> v) & 1)


def is_clique(rows: list[int], verts: list[int]) -> bool:
    return len(set(verts)) == len(verts) and all(
        _adjacent(rows, u, v) for i, u in enumerate(verts) for v in verts[i + 1:])


def is_independent(rows: list[int], verts: list[int]) -> bool:
    return all(not _adjacent(rows, u, v) for i, u in enumerate(verts) for v in verts[i + 1:])


def is_proper(rows: list[int], colors: list[int], palette: int) -> bool:
    """Every vertex coloured from 0..palette-1, no edge monochromatic."""
    n = len(rows)
    return (len(colors) == n and all(0 <= c < palette for c in colors)
            and all(colors[u] != colors[v] for u in range(n) for v in range(u + 1, n)
                    if _adjacent(rows, u, v)))


def edge_count(rows: list[int]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def turan(n: int, r: int) -> int:
    """Edges of the balanced complete r-partite graph on n vertices."""
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    return (n * n - sum(s * s for s in sizes)) // 2


def colorable(rows: list[int], k: int) -> bool:
    """Plain backtracking k-colourability, highest degree first."""
    n = len(rows)
    order = sorted(range(n), key=lambda v: -rows[v].bit_count())
    color = [-1] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        taken = {color[u] for u in range(n) if _adjacent(rows, v, u)}
        for c in range(k):
            if c not in taken:
                color[v] = c
                if place(i + 1):
                    return True
        color[v] = -1
        return False

    return place(0)


def triangle_free(rows: list[int]) -> bool:
    return all(not rows[u] & rows[v] for u in range(len(rows))
               for v in range(u + 1, len(rows)) if _adjacent(rows, u, v))


def k4_free(rows: list[int]) -> bool:
    """No edge uv has an edge inside the common neighbourhood of u and v."""
    for u, ru in enumerate(rows):
        for v in range(u + 1, len(rows)):
            if (ru >> v) & 1:
                common = ru & rows[v]
                if any(rows[w] & common for w in range(len(rows)) if (common >> w) & 1):
                    return False
    return True


def complete_multipartite_parts(rows: list[int]) -> int | None:
    """Number of parts if the graph is complete multipartite, else None:
    non-adjacency must be an equivalence relation."""
    classes: dict[int, list[int]] = {}
    for v, r in enumerate(rows):
        classes.setdefault(r, []).append(v)
    full = (1 << len(rows)) - 1
    for r, verts in classes.items():
        mask = sum(1 << v for v in verts)
        if r != full & ~mask:
            return None
    return len(classes)


# -- certify ------------------------------------------------------------------


def check_stream_item(tally: Tally, i: int, rows: list[int], rep: dict) -> None:
    """clique_number, is_r_colorable(g, 3) and deficiency(g, 2) of one
    triangle-free stream graph."""
    where = f"stream[{i}]"
    if not tally.check("error" not in rep, f"{where}: {rep.get('error')}"):
        return
    n = len(rows)
    tally.check(triangle_free(rows) and edge_count(rows) > 0,
                f"{where}: input is not a triangle-free graph with an edge")
    tally.check(rep["omega"] == 2 and len(rep["clique"]) == 2
                and is_clique(rows, rep["clique"]), f"{where}: bad clique witness")
    if rep["col3"] is not None:
        tally.check(is_proper(rows, rep["col3"], 3), f"{where}: improper 3-colouring")
    else:
        tally.check(not colorable(rows, 3), f"{where}: claimed not 3-colourable")
    best = max(rows[u].bit_count() + rows[v].bit_count()
               for u in range(n) for v in range(u + 1, n) if _adjacent(rows, u, v))
    d = rep["deficiency"]
    cmask = sum(1 << v for v in d["clique"])
    tally.check(len(d["clique"]) == 2 and is_clique(rows, d["clique"])
                and d["value"] == n - best
                and d["per_vertex"] == [1 - (rows[v] & cmask).bit_count() for v in range(n)]
                and sum(d["per_vertex"]) == d["value"], f"{where}: bad deficiency")


def check_chi(tally: Tally, name: str, rows: list[int], rep: dict) -> None:
    if not tally.check("error" not in rep, f"{name}: {rep.get('error')}"):
        return
    tally.check(rep["chi"] == CHI[name], f"{name}: chi {rep['chi']}, expected {CHI[name]}")
    tally.check(is_proper(rows, rep["colors"], rep["chi"]),
                f"{name}: improper {rep['chi']}-colouring")


def check_saturated(tally: Tally, name: str, rows: list[int], rep: dict) -> None:
    """K4-free, every non-edge completed by an edge in the common
    neighbourhood, and a complete tripartite certificate."""
    if not tally.check("error" not in rep, f"{name}: {rep.get('error')}"):
        return
    n = len(rows)
    tally.check(rep["obstruction"] is None and k4_free(rows), f"{name}: not K4-free")
    non_edges = {(u, v) for u in range(n) for v in range(u + 1, n) if not _adjacent(rows, u, v)}
    comp = rep["completions"]
    tally.check(rep["saturated"] and set(comp) == non_edges
                and all(w is not None and len(w) == 2 and is_clique(rows, list(w))
                        and all(_adjacent(rows, u, x) and _adjacent(rows, v, x) for x in w)
                        for (u, v), w in comp.items()),
                f"{name}: bad saturation witnesses")
    parts = rep["parts"]
    flat = [v for p in parts for v in p]
    tally.check(len(parts) == 3 and len(set(flat)) == len(flat)
                and all(is_independent(rows, list(p)) for p in parts)
                and all(_adjacent(rows, u, v) for a in range(3) for b in range(a + 1, 3)
                        for u in parts[a] for v in parts[b]),
                f"{name}: bad tripartite certificate")


def check_reduction(tally: Tally, i: int, rows: list[int], rep: dict) -> None:
    """zykov_reduce(g) and optimal_blowup(g, target) of one stream graph."""
    where = f"reduce[{i}]"
    if not tally.check("error" not in rep, f"{where}: {rep.get('error')}"):
        return
    n = len(rows)
    red = rep["reduced"]
    parts = complete_multipartite_parts(red) if len(red) == n else None
    tally.check(parts is not None and parts <= 2
                and edge_count(rows) <= edge_count(red) <= turan(n, 2),
                f"{where}: bad symmetrization result")
    w, target = rep["weights"], rep["target"]
    tally.check(len(w) == n and min(w) >= 1 and sum(w) == target
                and rep["edges"] == sum(w[u] * w[v] for u in range(n)
                                        for v in range(u + 1, n) if _adjacent(rows, u, v))
                and rep["edges"] <= turan(target, 2), f"{where}: bad blow-up weights")


def report_digest(report: dict) -> str:
    """sha256 of the canonical JSON of a certify report (inputs excluded)."""
    def plain(x):
        if isinstance(x, dict):
            return {str(k): plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return x
    return sha256(json.dumps(plain(report), sort_keys=True, separators=(",", ":")))


def check_certify(tally: Tally, seed: int, inputs: dict, report: dict) -> None:
    """All certify gates; ``inputs`` maps each part to the rows it used."""
    for i, (rows, rep) in enumerate(zip(inputs["stream"], report["stream"])):
        check_stream_item(tally, i, rows, rep)
    for name, rep in report["chi"].items():
        check_chi(tally, name, inputs["chi"][name], rep)
    for name, rep in report["saturation"].items():
        check_saturated(tally, name, inputs["saturation"][name], rep)
    for i, (rows, rep) in enumerate(zip(inputs["stream"], report["reduce"])):
        check_reduction(tally, i, rows, rep)
    tally.check(len(report["stream"]) == len(inputs["stream"]), "stream reports missing")
    want = CERTIFY_SHA256.get(seed)
    if want is not None:
        tally.check(report_digest(report) == want, "certify report digest mismatch")
