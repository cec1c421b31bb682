"""Seeded inputs of the ``certify`` workload.

The generator lives here, not in the library, so the program under test
only ever sees the graph6 lines it is handed.  Everything is drawn from
one ``random.Random(seed)``: the same seed gives byte-identical input.
"""

from __future__ import annotations

import random

STREAM_ORDERS = (11, 12)
STREAM_SIZE = 10000


def random_triangle_free(rng: random.Random, n: int) -> list[int]:
    """Adjacency rows of a random triangle-free graph on ``n`` vertices.

    Pairs are tried in random order and kept when they close no triangle,
    up to a random edge target between n and 3n; a target above the
    saturation point yields a maximal triangle-free graph.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    target = rng.randint(n, 3 * n)
    rows = [0] * n
    edges = 0
    for u, v in pairs:
        if edges == target:
            break
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            edges += 1
    return rows


def graph6(rows: list[int]) -> str:
    """graph6 line for orders up to 62 (upper triangle, column by column)."""
    n = len(rows)
    out = [chr(n + 63)]
    acc = nbits = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((rows[j] >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def certify_stream(seed: int, size: int = STREAM_SIZE) -> str:
    """``size`` graph6 lines of random triangle-free graphs of order 11-12."""
    rng = random.Random(seed)
    lines = []
    for _ in range(size):
        n = rng.choice(STREAM_ORDERS)
        lines.append(graph6(random_triangle_free(rng, n)) + "\n")
    return "".join(lines)
