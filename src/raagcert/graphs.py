"""Finite simple graphs and the structural queries the certification rules consume.

Graphs are immutable, have vertices 0..n-1, and store adjacency as one bit-row
per vertex, so every set-valued query is a couple of mask operations.
The public boundary caps graphs at 64 vertices; the empty graph can only arise
internally as a quotient result and is rejected by every parser and builder.

``Graph(...)`` and ``from_edges`` validate their rows; the symmetry check
compares the rows with their transpose.  Graphs derived from valid graphs
(``induced``, ``Graph.relabel``, ``complement``, ``compose``) and graphs parsed
by ``from_graph6`` after its input checks are valid by construction, so they
skip the re-validation.  graph6 is handled as strings, never bit by bit: its
body is base64 in another alphabet, and the upper triangle is one bit string
whose columns are the rows' low bits.  ``induced`` compresses whole rows, one
run of consecutive kept vertices at a time.
"""

from __future__ import annotations

import binascii
import itertools
import re
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InputError

MAX_VERTICES = 64


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices 0..n-1 of an n-vertex graph, stored as a bit mask."""

    mask: int
    n: int

    def __post_init__(self) -> None:
        if type(self.mask) is not int or type(self.n) is not int:
            raise InputError(f"vertex set needs exact integers, not {self.mask!r} and {self.n!r}")
        if self.n < 0:
            raise InputError("vertex set needs a non-negative ambient size")
        if self.mask < 0 or self.mask >> self.n:
            raise InputError(f"mask {self.mask:#x} does not fit in 0..{self.n - 1}")

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> "VertexSet":
        mask = 0
        for v in vertices:
            if type(v) is not int:
                raise InputError(f"vertex {v!r} is not an exact integer")
            if not 0 <= v < n:
                raise InputError(f"vertex {v} out of range 0..{n - 1}")
            mask |= 1 << v
        return cls(mask, n)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls((1 << n) - 1, n)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(0, n)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an exact integer")
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_same(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise InputError("vertex sets belong to different graphs")

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.mask | other.mask, self.n)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        self._check_same(other)
        return VertexSet(self.mask & other.mask, self.n)

    def complement(self) -> "VertexSet":
        return VertexSet(~self.mask & ((1 << self.n) - 1), self.n)

    def issubset(self, other: "VertexSet") -> bool:
        self._check_same(other)
        return self.mask & ~other.mask == 0

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"VertexSet({list(self)}, n={self.n})"


@dataclass(frozen=True)
class Graph:
    """Immutable finite simple graph on the vertices 0..n-1.

    ``rows[v]`` is the adjacency bit mask of vertex ``v``, so two graphs compare
    equal iff they have the same adjacency on the same vertex positions.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        # rows given as a list would leave the graph mutable and unhashable
        object.__setattr__(self, "rows", tuple(self.rows))
        if type(self.n) is not int or any(type(row) is not int for row in self.rows):
            raise InputError("vertex count and rows must be exact integers")
        if self.n < 0:
            raise InputError("vertex count must be non-negative")
        if len(self.rows) != self.n:
            raise InputError("adjacency needs one bit-row per vertex")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row < 0 or row & ~full:
                raise InputError(f"row {v} mentions vertices outside 0..{self.n - 1}")
            if row >> v & 1:
                raise InputError(f"vertex {v} is adjacent to itself")
        # the first row that differs from its column differs first above the
        # diagonal: a difference at (v, u) with u < v is one at (u, v) too
        for v, (row, col) in enumerate(zip(self.rows, _transpose(self.n, self.rows))):
            if row != col:
                diff = row ^ col
                w = (diff & -diff).bit_length() - 1
                raise InputError(f"adjacency is not symmetric at ({v}, {w})")

    # -- basic queries ------------------------------------------------------

    def check_vertex(self, v: int) -> None:
        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an exact integer")
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range 0..{self.n - 1}")

    def adjacent(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self.rows[v].bit_count()

    def link(self, v: int) -> VertexSet:
        self.check_vertex(v)
        return VertexSet(self.rows[v], self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                yield (u, low.bit_length() - 1)
                row ^= low

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    @property
    def non_edge_count(self) -> int:
        return self.n * (self.n - 1) // 2 - self.edge_count

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.rows), reverse=True))

    def is_complete(self) -> bool:
        return all(row.bit_count() == self.n - 1 for row in self.rows)

    def is_regular(self) -> bool:
        return self.n == 0 or len({row.bit_count() for row in self.rows}) == 1

    def max_degree_vertices(self) -> VertexSet:
        """The vertices of maximal degree."""
        if self.n == 0:
            raise InputError("the empty graph has no maximal-degree vertices")
        degrees = [row.bit_count() for row in self.rows]
        top = max(degrees)
        mask = 0
        for v, degree in enumerate(degrees):
            if degree == top:
                mask |= 1 << v
        return VertexSet(mask, self.n)

    def components(self) -> tuple[VertexSet, ...]:
        out = []
        seen = 0
        for v in range(self.n):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = comp
            while frontier:
                grow = 0
                m = frontier
                while m:
                    low = m & -m
                    grow |= self.rows[low.bit_length() - 1]
                    m ^= low
                frontier = grow & ~comp
                comp |= grow
            seen |= comp
            out.append(VertexSet(comp, self.n))
        return tuple(out)

    def is_connected(self) -> bool:
        """True iff a breadth-first search from vertex 0 reaches every vertex;
        it stops at the first layer that completes the reached set."""
        if self.n <= 1:
            return True
        full = (1 << self.n) - 1
        comp = frontier = 1
        while frontier:
            grow = 0
            m = frontier
            while m:
                low = m & -m
                grow |= self.rows[low.bit_length() - 1]
                m ^= low
            if comp | grow == full:
                return True
            frontier = grow & ~comp
            comp |= grow
        return False

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph whose vertex ``perm[v]`` plays the role of the old vertex ``v``."""
        if any(type(v) is not int for v in perm):
            raise InputError("relabelling must hold exact integers")
        if sorted(perm) != list(range(self.n)):
            raise InputError("relabelling must be a permutation of the vertices")
        rows = [0] * self.n
        for v in range(self.n):
            row = self.rows[v]
            new = 0
            while row:
                low = row & -row
                new |= 1 << perm[low.bit_length() - 1]
                row ^= low
            rows[perm[v]] = new
        return _trusted_graph(self.n, tuple(rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def _trusted_graph(n: int, rows: tuple[int, ...]) -> Graph:
    """``Graph(n, rows)`` without ``Graph.__post_init__``, for rows that are
    valid by construction: in range, loop-free and symmetric."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


# Transposing a bit matrix of w-bit rows held row after row in one integer,
# as delta swaps (Warren, "Hacker's Delight", section 7-3): the step of width
# s swaps, in every 2s x 2s block, the top-right s x s quarter with the
# bottom-left one, s(w - 1) bits further on.  One entry per array type code,
# so each matrix takes the narrowest machine word its rows fit.
def _delta_swaps(width: int) -> tuple[tuple[int, int], ...]:
    steps = []
    s = width // 2
    while s:
        cols = sum(1 << c for c in range(width) if c & s)
        mask = sum(cols << width * r for r in range(width) if not r & s)
        steps.append((s * (width - 1), mask))
        s //= 2
    return tuple(steps)


_DELTA_SWAPS = {code: _delta_swaps(8 * array(code).itemsize) for code in "BHIQ"}


def _transpose(n: int, rows: Sequence[int]) -> list[int]:
    """Rows of the transposed bit matrix: bit v of the w-th is bit w of
    ``rows[v]``, for n rows of at most n bits."""
    if n > 64:
        # wider than a machine word; only a direct Graph(...) call gets here
        return [sum((row >> w & 1) << v for v, row in enumerate(rows)) for w in range(n)]
    code = "B" if n <= 8 else "H" if n <= 16 else "I" if n <= 32 else "Q"
    words = array(code, rows)
    if sys.byteorder == "big":
        words.byteswap()
    matrix = int.from_bytes(words, "little")
    for shift, mask in _DELTA_SWAPS[code]:
        swap = (matrix ^ matrix >> shift) & mask
        matrix ^= swap ^ swap << shift
    # rows at or past n of the transpose are empty
    words = array(code, matrix.to_bytes(n * words.itemsize, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _check_vertex_count(n: int) -> None:
    """Reject a public graph of ``n`` vertices before anything is built for it."""
    if type(n) is not int:
        raise InputError(f"vertex count {n!r} is not an exact integer")
    if n < 1:
        raise InputError("graphs at the public boundary must have at least one vertex")
    if n > MAX_VERTICES:
        raise InputError(f"at most {MAX_VERTICES} vertices are supported")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Public graph builder; rejects empty and oversized graphs.

    >>> from_edges(3, [(0, 1), (1, 2)]).degree(1)
    2
    """
    _check_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise InputError(f"edge ({u!r}, {v!r}) needs exact integer endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# -- named constructions ----------------------------------------------------


def complete_graph(n: int) -> Graph:
    _check_vertex_count(n)
    return from_edges(n, itertools.combinations(range(n), 2))


def edgeless_graph(n: int) -> Graph:
    return from_edges(n, [])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    _check_vertex_count(n)
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    _check_vertex_count(n)
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite_graph(parts: Sequence[int]) -> Graph:
    """Join of edgeless blocks; two vertices are adjacent iff they lie in different blocks."""
    if any(type(p) is not int for p in parts):
        raise InputError("block sizes must be exact integers")
    if not parts or any(p < 1 for p in parts):
        raise InputError("every block must have at least one vertex")
    n = sum(parts)
    _check_vertex_count(n)
    edges = []
    offsets = list(itertools.accumulate([0] + list(parts)))
    for a, b in itertools.combinations(range(len(parts)), 2):
        for u in range(offsets[a], offsets[a + 1]):
            for v in range(offsets[b], offsets[b + 1]):
                edges.append((u, v))
    return from_edges(n, edges)


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, edges)


# -- structural queries ------------------------------------------------------


def dominates(g: Graph, v: int, w: int) -> bool:
    """True iff ``w`` dominates ``v``, i.e. the link of v lies inside the star of w.

    Domination is only defined for distinct vertices.
    """
    g.check_vertex(v)
    g.check_vertex(w)
    if v == w:
        raise InputError("domination is defined for distinct vertices")
    star_w = g.rows[w] | 1 << w
    return g.rows[v] & ~star_w == 0


def compose(a: Graph, b: Graph, mode: str) -> Graph:
    """Disjoint union or simplicial join of two graphs, vertices of a first."""
    if mode not in ("disjoint_union", "simplicial_join"):
        raise InputError(f"unknown composition mode {mode!r}")
    n = a.n + b.n
    _check_vertex_count(n)
    rows = list(a.rows) + [row << a.n for row in b.rows]
    if mode == "simplicial_join":
        amask = (1 << a.n) - 1
        bmask = ((1 << n) - 1) ^ amask
        for v in range(a.n):
            rows[v] |= bmask
        for v in range(a.n, n):
            rows[v] |= amask
    return _trusted_graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    """Same vertices, edge iff distinct and not an edge before."""
    full = (1 << g.n) - 1
    rows = tuple(~row & full & ~(1 << v) for v, row in enumerate(g.rows))
    return _trusted_graph(g.n, rows)


def induced(g: Graph, keep: VertexSet | Iterable[int]) -> Graph:
    """Subgraph induced on ``keep``, original vertex order preserved."""
    if isinstance(keep, VertexSet):
        if keep.n != g.n:
            raise InputError("vertex set belongs to a different graph")
        mask = keep.mask
    else:
        mask = 0
        for v in sorted(set(keep)):
            g.check_vertex(v)
            mask |= 1 << v
    # each run of consecutive kept vertices as (first, bit mask of its length,
    # position of its first vertex in the subgraph)
    runs = []
    size = 0
    rest = mask
    while rest:
        first = (rest & -rest).bit_length() - 1
        tail = rest >> first
        length = (~tail & tail + 1).bit_length() - 1
        runs.append((first, (1 << length) - 1, size))
        size += length
        rest ^= (1 << length) - 1 << first
    rows = []
    for first, width, _ in runs:
        for row in g.rows[first:first + width.bit_length()]:
            new = 0
            for start, bits, at in runs:
                new |= (row >> start & bits) << at
            rows.append(new)
    return _trusted_graph(size, tuple(rows))


class SrgParameters(NamedTuple):
    n: int
    k: int
    lam: int
    mu: int


def srg_parameters(g: Graph) -> Optional[SrgParameters]:
    """Strong-regularity parameters (n, k, lambda, mu), or None.

    Requires k-regularity with 1 <= k < n-1, a common-neighbour count of
    lambda for every adjacent pair and mu for every distinct non-adjacent pair.
    """
    if g.n == 0:
        raise InputError("the empty graph has no parameters")
    if not g.is_regular():
        return None
    n, k = g.n, g.degree(0)
    if not 1 <= k < n - 1:
        return None
    lam: Optional[int] = None
    mu: Optional[int] = None
    for u in range(n):
        for v in range(u + 1, n):
            common = (g.rows[u] & g.rows[v]).bit_count()
            if g.rows[u] >> v & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    assert lam is not None and mu is not None
    assert (n - k - 1) * mu == k * (k - lam - 1)
    return SrgParameters(n, k, lam, mu)


class MbaParameters(NamedTuple):
    n: int
    k: int
    d: int


def mba_parameters(g: Graph) -> Optional[MbaParameters]:
    """Parameters (n, |max-degree set|, max degree) of a max-by-abelian graph, or None.

    A graph qualifies iff it is connected, non-regular, and the vertices of
    non-maximal degree induce a complete graph.
    """
    if g.n == 0:
        raise InputError("the empty graph has no parameters")
    if g.is_regular() or not g.is_connected():
        return None
    top = g.max_degree_vertices()
    if not induced(g, top.complement()).is_complete():
        return None
    return MbaParameters(g.n, len(top), g.degree(min(top)))


# -- graph6 and edge-list interchange ---------------------------------------


# graph6 writes each 6-bit chunk as the byte 63 + chunk; base64 writes it as
# the chunk-th letter of its alphabet
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_FROM_GRAPH6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
_NOT_GRAPH6 = re.compile("[^?-~]")


def to_graph6(g: Graph) -> str:
    """Standard graph6 string: 6-bit chunks of the upper triangle, offset by 63."""
    if g.n == 0:
        raise InputError("the empty graph has no public encoding")
    n, rows = g.n, g.rows
    # column j, vertex 0's bit first, is the low j bits of rows[j] reversed;
    # write the columns last to first, high bit first, and reverse once (the
    # bit 1 << n keeps bin's leading zeros)
    top = 1 << n
    bits = "".join([bin(rows[j] | top)[-j:] for j in range(n - 1, 0, -1)])
    return _graph6(n, int(bits[::-1] or "0", 2))


def _graph6_from_columns(n: int, columns: Iterable[int]) -> str:
    """graph6 of the n-vertex graph whose column j holds the bits joining
    vertex j to vertices 0..j-1, vertex 0's bit highest: the columns, in
    order, are the upper triangle in graph6 bit order."""
    bits = 0
    for j, col in enumerate(columns):
        bits = bits << j | col
    return _graph6(n, bits)


def _graph6(n: int, bits: int) -> str:
    """graph6 of the n-vertex graph whose upper triangle, in graph6 pair
    order and first pair highest, is the n(n-1)/2-bit integer ``bits``."""
    width = n * (n - 1) // 2
    # base64 takes whole bytes, three to four chunks: pad to 24 bits, then
    # keep the chunks that graph6 pads to 6 bits
    padded = -(-width // 24) * 24
    chunks = binascii.b2a_base64((bits << padded - width).to_bytes(padded // 8, "big"),
                                 newline=False)
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    return head + chunks[:(width + 5) // 6].translate(_TO_GRAPH6).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Parse one graph6 string; malformed input reports the offending offset."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InputError("empty graph6 string")
    bad = _NOT_GRAPH6.search(s)
    if bad:
        raise InputError(f"invalid graph6 character {bad.group()!r} at offset {bad.start()}")
    data = s.encode("ascii")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise InputError("unsupported graph6 size header at offset 0")
        n = (data[1] - 63 << 12) | (data[2] - 63 << 6) | (data[3] - 63)
        body, body_off = data[4:], 4
    else:
        n = data[0] - 63
        body, body_off = data[1:], 1
    if n == 0:
        raise InputError("the empty graph is not accepted at offset 0")
    if n > MAX_VERTICES:
        raise InputError(f"graph6 header declares {n} > {MAX_VERTICES} vertices at offset 0")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) != need:
        raise InputError(
            f"graph6 body has {len(body)} bytes, expected {need}, at offset {body_off}"
        )
    # zero chunks complete the last base64 quantum
    raw = binascii.a2b_base64(body.translate(_FROM_GRAPH6) + b"A" * (-need % 4))
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    if "1" in bits[npairs:6 * need]:
        # padding fills less than one chunk, so it sits in the last byte
        raise InputError(f"nonzero graph6 padding at offset {body_off + need - 1}")
    # pairs run (0,1),(0,2),(1,2),(0,3),... column by column; with the bit
    # string reversed, pair p is bit p, so column j, from bit j(j-1)/2 on, is
    # row j's bits below j, and the transpose adds the bits above
    pairs = int(bits[:npairs][::-1] or "0", 2)
    lower = [pairs >> j * (j - 1) // 2 & (1 << j) - 1 for j in range(n)]
    return _trusted_graph(n, tuple(map(int.__or__, lower, _transpose(n, lower))))


def to_edge_list(g: Graph) -> str:
    """Plain text form ``"n; u-v, u-v"`` with edges sorted; ``"n;"`` when edgeless.

    >>> to_edge_list(from_edges(2, [(0, 1)]))
    '2; 0-1'
    """
    if g.n == 0:
        raise InputError("the empty graph has no public encoding")
    body = ", ".join(f"{u}-{v}" for u, v in g.edges())
    return f"{g.n}; {body}" if body else f"{g.n};"


def from_edge_list(text: str) -> Graph:
    """Parse the ``"n; u-v, u-v"`` edge-list form."""
    head, sep, rest = text.partition(";")
    if not sep:
        raise InputError("edge list must look like 'n; u-v, u-v'")
    try:
        n = int(head.strip())
    except ValueError as exc:
        raise InputError(f"bad vertex count {head.strip()!r}") from exc
    edges = []
    rest = rest.strip()
    if rest:
        for chunk in rest.split(","):
            u_text, sep2, v_text = chunk.partition("-")
            if not sep2:
                raise InputError(f"bad edge {chunk.strip()!r}")
            try:
                edges.append((int(u_text.strip()), int(v_text.strip())))
            except ValueError as exc:
                raise InputError(f"bad edge {chunk.strip()!r}") from exc
    return from_edges(n, edges)
