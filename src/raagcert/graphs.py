"""Finite simple graphs and the structural queries the certification rules consume.

Graphs are immutable, have vertices 0..n-1, and store adjacency as one bit-row
per vertex, so every set-valued query is a couple of mask operations.
The public boundary caps graphs at 64 vertices; the empty graph can only arise
internally as a quotient result and is rejected by every parser and builder.
"""

from __future__ import annotations

import itertools
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
        if self.n < 0:
            raise InputError("vertex set needs a non-negative ambient size")
        if self.mask < 0 or self.mask >> self.n:
            raise InputError(f"mask {self.mask:#x} does not fit in 0..{self.n - 1}")

    @classmethod
    def of(cls, vertices: Iterable[int], n: int) -> "VertexSet":
        mask = 0
        for v in vertices:
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
        for v in range(self.n):
            for w in range(v + 1, self.n):
                if (self.rows[v] >> w & 1) != (self.rows[w] >> v & 1):
                    raise InputError(f"adjacency is not symmetric at ({v}, {w})")

    # -- basic queries ------------------------------------------------------

    def check_vertex(self, v: int) -> None:
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
        return VertexSet.of((v for v in range(self.n) if degrees[v] == top), self.n)

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
        return self.n <= 1 or len(self.components()) == 1

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph whose vertex ``perm[v]`` plays the role of the old vertex ``v``."""
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
        return Graph(self.n, tuple(rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Public graph builder; rejects empty and oversized graphs.

    >>> from_edges(3, [(0, 1), (1, 2)]).degree(1)
    2
    """
    if n < 1:
        raise InputError("graphs at the public boundary must have at least one vertex")
    if n > MAX_VERTICES:
        raise InputError(f"at most {MAX_VERTICES} vertices are supported")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# -- named constructions ----------------------------------------------------


def complete_graph(n: int) -> Graph:
    return from_edges(n, itertools.combinations(range(n), 2))


def edgeless_graph(n: int) -> Graph:
    return from_edges(n, [])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_multipartite_graph(parts: Sequence[int]) -> Graph:
    """Join of edgeless blocks; two vertices are adjacent iff they lie in different blocks."""
    if not parts or any(p < 1 for p in parts):
        raise InputError("every block must have at least one vertex")
    n = sum(parts)
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
    if n > MAX_VERTICES:
        raise InputError(f"at most {MAX_VERTICES} vertices are supported")
    rows = list(a.rows) + [row << a.n for row in b.rows]
    if mode == "simplicial_join":
        amask = (1 << a.n) - 1
        bmask = ((1 << n) - 1) ^ amask
        for v in range(a.n):
            rows[v] |= bmask
        for v in range(a.n, n):
            rows[v] |= amask
    return Graph(n, tuple(rows))


def complement(g: Graph) -> Graph:
    """Same vertices, edge iff distinct and not an edge before."""
    full = (1 << g.n) - 1
    rows = tuple(~row & full & ~(1 << v) for v, row in enumerate(g.rows))
    return Graph(g.n, rows)


def induced(g: Graph, keep: VertexSet | Iterable[int]) -> Graph:
    """Subgraph induced on ``keep``, original vertex order preserved."""
    if isinstance(keep, VertexSet):
        if keep.n != g.n:
            raise InputError("vertex set belongs to a different graph")
        kept = list(keep)
    else:
        kept = sorted(set(keep))
        for v in kept:
            g.check_vertex(v)
    index = {v: i for i, v in enumerate(kept)}
    rows = [0] * len(kept)
    for v in kept:
        row = g.rows[v]
        new = 0
        while row:
            low = row & -row
            w = low.bit_length() - 1
            if w in index:
                new |= 1 << index[w]
            row ^= low
        rows[index[v]] = new
    return Graph(len(kept), tuple(rows))


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


def to_graph6(g: Graph) -> str:
    """Standard graph6 string: 6-bit chunks of the upper triangle, offset by 63."""
    if g.n == 0:
        raise InputError("the empty graph has no public encoding")
    columns = [0]
    for j in range(1, g.n):
        col = 0
        for row in g.rows[:j]:
            col = col << 1 | (row >> j & 1)
        columns.append(col)
    return _graph6_from_columns(g.n, columns)


def _graph6_from_columns(n: int, columns: Iterable[int]) -> str:
    """graph6 of the n-vertex graph whose column j holds the bits joining
    vertex j to vertices 0..j-1, vertex 0's bit highest: the columns, in
    order, are the upper triangle in graph6 bit order."""
    bits = 0
    for j, col in enumerate(columns):
        bits = bits << j | col
    width = n * (n - 1) // 2
    pad = -width % 6
    bits <<= pad
    if n <= 62:
        out = bytearray((n + 63,))
    else:
        out = bytearray((126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63))
    for shift in range(width + pad - 6, -1, -6):
        out.append((bits >> shift & 63) + 63)
    return out.decode("ascii")


def from_graph6(text: str) -> Graph:
    """Parse one graph6 string; malformed input reports the offending offset."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise InputError("empty graph6 string")
    for off, char in enumerate(s):
        if not 63 <= ord(char) <= 126:
            raise InputError(f"invalid graph6 character {char!r} at offset {off}")
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
    rows = [0] * n
    # pairs run (0,1),(0,2),(1,2),(0,3),... column by column
    i, j = 0, 1
    for pos, byte in enumerate(body):
        val = byte - 63
        for bit in range(5, -1, -1):
            if j < n:
                if val >> bit & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif val >> bit & 1:
                raise InputError(f"nonzero graph6 padding at offset {body_off + pos}")
    return Graph(n, tuple(rows))


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
