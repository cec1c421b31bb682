"""Bitset-backed simple graphs.

Vertices are integers 0..n-1.  Adjacency is stored as one Python integer
per vertex whose set bits are the neighbours, so all neighbourhood algebra
(intersection, union, popcount) runs on machine words regardless of order.
Graphs are immutable.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterable, Iterator, Sequence

MAX_ORDER = 4096


class GraphFormatError(ValueError):
    """Raised for malformed graph6 input."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relabel_rows(rows: Sequence[int], order: Sequence[int]) -> list[int]:
    """Rows of the subgraph induced on ``order``, vertex ``order[i]``
    becoming vertex i; neighbours outside ``order`` are dropped.  This is
    the one relabelling routine: canonical certificates call it per leaf,
    so it indexes a list and peels bits inline."""
    pos = [0] * len(rows)
    keep = 0
    for i, v in enumerate(order):
        pos[v] = 1 << i
        keep |= 1 << v
    out = []
    for v in order:
        x = rows[v] & keep
        acc = 0
        while x:
            low = x & -x
            acc |= pos[low.bit_length() - 1]
            x ^= low
        out.append(acc)
    return out


def _check_order(n: int) -> None:
    """Reject an order outside 0..MAX_ORDER; builders call it before they
    allocate anything of that order."""
    if n < 0 or n > MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {n}")


class Graph:
    __slots__ = ("n", "rows", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.rows = tuple(rows)
        self._m = -1

    @classmethod
    def from_rows(cls, rows: Sequence[int], check: bool = True) -> "Graph":
        n = len(rows)
        _check_order(n)
        if check:
            for v, r in enumerate(rows):
                if r >> n or r < 0:
                    raise ValueError(f"row {v} has bits outside 0..{n - 1}")
                if (r >> v) & 1:
                    raise ValueError(f"self-loop at vertex {v}")
            for v, r in enumerate(rows):
                for u in bits(r):
                    if not (rows[u] >> v) & 1:
                        raise ValueError(f"adjacency not symmetric at ({v},{u})")
        g = cls.__new__(cls)
        g.n = n
        g.rows = tuple(rows)
        g._m = -1
        return g

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    @property
    def edge_count(self) -> int:
        if self._m < 0:
            self._m = sum(r.bit_count() for r in self.rows) // 2
        return self._m

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.rows[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- derived graphs ---------------------------------------------------

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced on ``vertices``; vertex i maps to position i."""
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertices")
        return Graph.from_rows(_relabel_rows(self.rows, vertices), check=False)


# -- named constructors ---------------------------------------------------


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph.from_rows([full & ~(1 << v) for v in range(n)], check=False)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with consecutive vertex blocks."""
    if any(s < 0 for s in sizes):
        raise ValueError("negative class size")
    n = sum(sizes)
    _check_order(n)
    rows = [0] * n
    full = (1 << n) - 1
    offset = 0
    for s in sizes:
        block = ((1 << s) - 1) << offset
        for v in range(offset, offset + s):
            rows[v] = full & ~block
        offset += s
    return Graph.from_rows(rows, check=False)


# -- twin classes ---------------------------------------------------------


def twin_classes(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The maximal sets of vertices with identical open neighbourhoods (so
    twins are never adjacent), each sorted, ordered by least vertex."""
    groups: dict[int, list[int]] = {}
    for v, r in enumerate(g.rows):
        groups.setdefault(r, []).append(v)
    # a dict keeps its keys in insertion order, here that of least vertices
    return tuple(tuple(vs) for vs in groups.values())


# -- upper-triangle keys --------------------------------------------------


def _key_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pair of each bit of an order-``n`` key, least significant
    bit first (see ``_upper_key``)."""
    return [(i, j) for i in range(n - 1, -1, -1) for j in range(i + 1, n)]


def _slice_tables(place: list[int]) -> list[list[int]]:
    """For each 8-bit slice of a key, a table from the slice's value to
    the OR of ``place[p]`` over the key bits p it sets."""
    tables = []
    for lo in range(0, len(place), 8):
        part = place[lo:lo + 8]
        table = [0] * (1 << len(part))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | part[low.bit_length() - 1]
        tables.append(table)
    return tables


def _upper_key(rows: Sequence[int]) -> int:
    """The upper triangle of ``rows`` as one integer: row i gives its
    n - 1 - i bits above the diagonal, ``rows[i] >> (i + 1)``, row 0 most
    significant.  The bits below the diagonal repeat earlier rows, so for
    graphs of one order, key order is the lexicographic order of the rows:
    sorted canonical keys are sorted certificates."""
    n = len(rows)
    key = 0
    for i, r in enumerate(rows):
        key = (key << (n - 1 - i)) | (r >> (i + 1))
    return key


_WORD_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


@functools.cache  # built once per order: the decoder runs once per graph
def _row_tables(n: int) -> tuple[int, list[list[int]]]:
    """Word size in bytes and slice tables of the order-``n`` key decoder:
    the table of a key slice gives both adjacency bits of each of its
    pairs, row i in the i-th word of the size."""
    size = next((b for b in _WORD_FORMAT if 8 * b >= n), None)
    if size is None:
        raise ValueError(f"keys are decoded for orders up to 64, not {n}")
    word = 8 * size
    return size, _slice_tables([(1 << (word * i + j)) | (1 << (word * j + i))
                                for i, j in _key_pairs(n)])


def _key_rows(key: int, n: int) -> list[int]:
    """The rows of the graph of order ``n`` whose key is ``key`` (see
    ``_upper_key``): the slice tables set the adjacency matrix, one
    machine word per row, and the words are read back as the rows."""
    size, tables = _row_tables(n)
    matrix = 0
    for table in tables:
        matrix |= table[key & 255]
        key >>= 8
    words = memoryview(matrix.to_bytes(n * size, sys.byteorder))
    return words.cast(_WORD_FORMAT[size]).tolist()


# -- graph6 ----------------------------------------------------------------

# a graph6 character chr(63 + b) stands for the six bits of b, high first
_SIX = {chr(63 + b): f"{b:06b}" for b in range(64)}
_SIX_CHAR = {six: c for c, six in _SIX.items()}
# what may surround a graph6 line; str.strip() would also take the control
# characters \x1c-\x1f, which are outside graph6
_BLANK = "\r\n "


def _graph6_head(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))


def to_graph6(g: Graph) -> str:
    """Encode as graph6: header byte(s) for n, then the upper-triangle bits
    x(0,1), x(0,2), x(1,2), x(0,3), ... as one bit string, zero-padded to
    whole 6-bit chunks, each written as its ``_SIX`` character."""
    # column j is the low j bits of row j, reversed
    payload = "".join(f"{r & ((1 << j) - 1):0{j}b}"[::-1]
                      for j, r in enumerate(g.rows) if j)
    payload += "0" * (-len(payload) % 6)
    return _graph6_head(g.n) + "".join(
        [_SIX_CHAR[payload[t:t + 6]] for t in range(0, len(payload), 6)])


# lines per str that ``_graph6_chunks`` yields, so that a level is written
# a chunk at a time and its whole graph6 text is never built
_GRAPH6_CHUNK = 1 << 14


def _graph6_chunks(keys: Sequence[int], n: int) -> Iterator[str]:
    """The graph6 lines of the graphs of order ``n`` with these keys (see
    ``_upper_key``), each ending in a newline, as strs of ``_GRAPH6_CHUNK``
    lines (the last one shorter); each line equals ``to_graph6`` of the
    graph.  A line is built as one integer (header, payload bytes,
    newline, most significant first): per 8-bit slice of the key, a table
    gives the slice's bits at their graph6 places, and adding the 63 of
    every payload byte never carries."""
    nbits = n * (n - 1) // 2
    m = (nbits + 5) // 6
    head = _graph6_head(n).encode()
    size = len(head) + m + 1
    base = int.from_bytes(head + b"?" * m + b"\n", "big")
    # graph6 bit t = C(j, 2) + i, of the pair (i, j), is bit 5 - t % 6 of
    # payload byte t // 6
    place = []
    for i, j in _key_pairs(n):
        t = j * (j - 1) // 2 + i
        place.append(1 << (8 * (m - t // 6) + 5 - t % 6))
    tables = _slice_tables(place)
    step = _GRAPH6_CHUNK
    for start in range(0, len(keys), step):
        out = bytearray()
        for key in keys[start:start + step]:
            line = base
            for table in tables:
                line += table[key & 255]
                key >>= 8
            out += line.to_bytes(size, "big")
        yield out.decode("ascii")


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line (optionally prefixed with '>>graph6<<').  The
    order is read and checked before the payload is decoded."""
    s = text.strip(_BLANK)
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    try:
        if s[0] == "~":
            # a bad character in the header outranks its length
            head = "".join([_SIX[c] for c in s[1:4]])
            if len(s) < 4:
                raise GraphFormatError("truncated graph6 order header")
            if s[1] == "~":
                raise GraphFormatError("graph6 orders above 258047 not supported")
            body = s[4:]
        else:
            head = _SIX[s[0]]
            body = s[1:]
        n = int(head, 2)
        _check_order(n)
        payload = "".join([_SIX[c] for c in body])
    except KeyError as exc:
        raise GraphFormatError(
            f"character {exc.args[0]!r} outside graph6 range 63..126") from None
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise GraphFormatError(f"bit payload too short: need {need} bytes, got {len(body)}")
    if len(body) > need:
        raise GraphFormatError(f"trailing bytes after graph6 payload ({len(body) - need} extra)")
    # the padding bits must be zero for a bit-exact encoding
    if "1" in payload[nbits:]:
        raise GraphFormatError("nonzero padding bits in graph6 payload")
    rows = [0] * n
    for j in range(1, n):
        # column j holds x(0,j), ..., x(j-1,j): the low j bits of row j
        col = rows[j] = int(payload[j * (j - 1) // 2:j * (j + 1) // 2][::-1], 2)
        for i in bits(col):
            rows[i] |= 1 << j
    return Graph.from_rows(rows, check=False)


def read_graph6_lines(lines: Iterable[str]) -> list[Graph]:
    out = []
    for line in lines:
        if line.strip(_BLANK):
            out.append(from_graph6(line))
    return out
