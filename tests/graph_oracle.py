"""The per-bit graph code that ``raagcert.graphs`` replaced by whole-row
operations, kept only as an oracle for it.

``check_symmetric`` probes the n(n-1)/2 pairs of the upper triangle,
``to_graph6`` and ``from_graph6`` walk the graph6 pairs one bit at a time,
``induced`` re-indexes every neighbour through a dict,
``max_degree_vertices`` collects the top-degree vertices one by one, and
``is_connected`` grows the set reached from vertex 0 one adjacent pair at a
time, ``relabel`` moves each neighbour one set bit at a time, and
``complete_multipartite_graph`` lists every edge between two blocks.  Each
raises the same ``InputError`` messages, offsets included, as the code it
checks, and builds its graph through the validating ``Graph(...)``.

``srg_parameters`` reads the strong-regularity parameters pair by pair; the
tests use it to pick the strongly regular cases that the rules must settle.
``to_networkx`` hands a graph to networkx, the tests' independent oracle.
"""

import itertools
from typing import NamedTuple, Optional

import networkx as nx

from raagcert import Graph, InputError, VertexSet
from raagcert.graphs import MAX_VERTICES


def check_symmetric(n: int, rows) -> None:
    """Raise at the first pair (v, w), v < w, where the rows disagree."""
    for v in range(n):
        for w in range(v + 1, n):
            if (rows[v] >> w & 1) != (rows[w] >> v & 1):
                raise InputError(f"adjacency is not symmetric at ({v}, {w})")


def to_graph6(g: Graph) -> str:
    """Standard graph6 string: 6-bit chunks of the upper triangle, offset by 63."""
    if g.n == 0:
        raise InputError("the empty graph has no public encoding")
    bits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = bits << 1 | (g.rows[i] >> j & 1)
    width = g.n * (g.n - 1) // 2
    pad = -width % 6
    bits <<= pad
    n = g.n
    if n <= 62:
        out = bytearray((n + 63,))
    else:
        out = bytearray((126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63))
    for shift in range(width + pad - 6, -1, -6):
        out.append((bits >> shift & 63) + 63)
    return out.decode("ascii")


def from_graph6(text: str) -> Graph:
    """Parse one graph6 string; malformed input reports the offending offset."""
    s = text.strip(" \t\r\n")
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


def induced(g: Graph, keep) -> Graph:
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


def max_degree_vertices(g: Graph) -> VertexSet:
    """The vertices of maximal degree."""
    degrees = [g.degree(v) for v in range(g.n)]
    top = max(degrees)
    return VertexSet.of((v for v in range(g.n) if degrees[v] == top), g.n)


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reached from vertex 0 through adjacent pairs."""
    if g.n == 0:
        return True
    reached, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for w in range(g.n):
            if g.rows[u] >> w & 1 and w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) == g.n


def relabel(g: Graph, perm) -> Graph:
    """Graph whose vertex ``perm[v]`` plays the role of the old vertex ``v``."""
    if any(type(v) is not int for v in perm):
        raise InputError("relabelling must hold exact integers")
    if sorted(perm) != list(range(g.n)):
        raise InputError("relabelling must be a permutation of the vertices")
    rows = [0] * g.n
    for v in range(g.n):
        row = g.rows[v]
        new = 0
        while row:
            low = row & -row
            new |= 1 << perm[low.bit_length() - 1]
            row ^= low
        rows[perm[v]] = new
    return Graph(g.n, tuple(rows))


def complete_multipartite_graph(parts) -> Graph:
    """Join of edgeless blocks, every edge between two blocks listed."""
    offsets = list(itertools.accumulate([0] + list(parts)))
    n = offsets[-1]
    rows = [0] * n
    for a, b in itertools.combinations(range(len(parts)), 2):
        for u in range(offsets[a], offsets[a + 1]):
            for v in range(offsets[b], offsets[b + 1]):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


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


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h
