"""Automorphisms, canonical forms and isomorphism-class enumeration of small graphs.

All three are backtracking searches over vertex orderings.  The automorphism
search maps each vertex only into its class under an iterated
degree/neighbour-colour refinement.  The canonical ordering is the one with
the lexicographically least upper-triangle bit string; its search is pruned
exactly (the result never changes) by branching only on the least columns, by
trying one vertex per twin class, and by skipping candidates in the orbit of
an explored sibling under the automorphisms met at equal leaves.  Enumeration
extends each class representative by one new vertex per orbit of its
automorphism group on neighbourhood masks.  The sizes this package targets (at
most 8 to 10 vertices) keep the searches small, so no external
canonical-labelling machinery is used.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import InputError, ResourceError
from .graphs import Graph, from_edges, to_graph6

VertexPermutation = tuple[int, ...]

AUTOMORPHISM_MAX_N = 10
CANONICAL_MAX_N = 10
ENUMERATE_MAX_N = 8


def identity_permutation(n: int) -> VertexPermutation:
    return tuple(range(n))


def compose_permutations(a: Sequence[int], b: Sequence[int]) -> VertexPermutation:
    """Permutation acting as b first, then a."""
    if len(a) != len(b):
        raise InputError("permutations act on different vertex counts")
    return tuple(a[b[i]] for i in range(len(a)))


def invert_permutation(p: Sequence[int]) -> VertexPermutation:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    """True iff ``perm`` permutes the vertices and maps each bit row onto the
    row of the image vertex."""
    if sorted(perm) != list(range(g.n)):
        return False
    for u, row in enumerate(g.rows):
        image = 0
        while row:
            low = row & -row
            image |= 1 << perm[low.bit_length() - 1]
            row ^= low
        if image != g.rows[perm[u]]:
            return False
    return True


def _refined_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex colouring: start from degrees, refine by neighbour colour multisets."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        keys = []
        for v in range(g.n):
            neigh = sorted(colors[w] for w in g.link(v))
            keys.append((colors[v], tuple(neigh)))
        ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [ranking[key] for key in keys]
        if new == colors:
            return tuple(colors)
        colors = new


def automorphisms(g: Graph) -> list[VertexPermutation]:
    """All adjacency-preserving vertex bijections, sorted by image tuple."""
    if g.n < 1:
        raise InputError("automorphisms need at least one vertex")
    if g.n > AUTOMORPHISM_MAX_N:
        raise ResourceError(f"automorphism search capped at {AUTOMORPHISM_MAX_N} vertices")
    n = g.n
    colors = _refined_colors(g)
    rows = g.rows
    image = [-1] * n
    used = [False] * n
    found: list[VertexPermutation] = []

    def extend(v: int) -> None:
        if v == n:
            found.append(tuple(image))
            return
        for u in range(n):
            if used[u] or colors[u] != colors[v]:
                continue
            ok = True
            for w in range(v):
                if (rows[v] >> w & 1) != (rows[u] >> image[w] & 1):
                    ok = False
                    break
            if ok:
                image[v] = u
                used[u] = True
                extend(v + 1)
                used[u] = False
        image[v] = -1

    extend(0)
    found.sort()
    return found


def _canonical_order(g: Graph) -> VertexPermutation:
    """Vertex ordering whose upper-triangle bit string is lexicographically minimal.

    Position p of the order contributes the column of bits joining it to the
    positions before it; columns are compared as fixed-width integers, which
    matches the graph6 bit ordering.  Among the minimal orderings the one
    that is least as a vertex sequence is returned.

    Each unused vertex's column is kept incrementally, and three exact prunes
    keep the depth-first search small without changing its result:

    1. a position branches only on the unused vertices whose column is least,
       since a larger column loses at that very position;
    2. of unused twins (vertices with the same neighbours apart from each
       other) only the least is tried, since swapping them is an automorphism
       fixing the prefix;
    3. two leaves with equal strings give an automorphism, and a candidate in
       the orbit of an explored sibling, under the automorphisms found so far
       that fix the prefix pointwise, is skipped.

    Prunes 2 and 3 drop only orderings that some automorphism maps to an
    equally good ordering that is smaller as a vertex sequence and is
    explored instead.
    """
    n = g.n
    rows = g.rows
    smaller_twins = [0] * n
    for v in range(n):
        for u in range(v):
            if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
                smaller_twins[v] |= 1 << u
    best_cols: list[int] | None = None
    best_order: list[int] = []
    found: list[VertexPermutation] = []
    order: list[int] = []
    cols: list[int] = []

    def leaf() -> None:
        nonlocal best_cols, best_order
        if best_cols is None or cols < best_cols:
            best_cols, best_order = cols.copy(), order.copy()
        elif cols == best_cols:
            image = [0] * n
            for old, new in zip(best_order, order):
                image[old] = new
            found.append(tuple(image))

    def extend(unused: int, col: dict[int, int]) -> None:
        # col maps each unused vertex, in increasing order, to its column
        least = min(col.values())
        cols.append(least)
        if best_cols is None or cols <= best_cols[: len(cols)]:
            if len(col) == 1:
                order.extend(col)
                leaf()
                order.pop()
            else:
                explored: list[int] = []
                orbit: list[int] = []
                known = 0
                for u, c in col.items():
                    if c != least or smaller_twins[u] & unused:
                        continue
                    if explored and len(found) > known:
                        known = len(found)
                        orbit = _orbit_roots(n, [a for a in found if all(a[v] == v for v in order)])
                    if orbit and any(orbit[u] == orbit[e] for e in explored):
                        continue
                    order.append(u)
                    extend(unused & ~(1 << u),
                           {v: d << 1 | (rows[v] >> u & 1) for v, d in col.items() if v != u})
                    order.pop()
                    explored.append(u)
        cols.pop()

    extend((1 << n) - 1, dict.fromkeys(range(n), 0))
    # best_order[p] is the old vertex placed at position p; relabel wants old -> new
    return invert_permutation(best_order)


def _orbit_roots(n: int, generators: Sequence[VertexPermutation]) -> list[int]:
    """Least vertex of each vertex's orbit under the group the generators generate."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for a in generators:
        for v in range(n):
            x, y = find(v), find(a[v])
            if x != y:
                root[max(x, y)] = min(x, y)
    return [find(v) for v in range(n)]


def canonical_relabelled(g: Graph) -> Graph:
    """Isomorphic copy of ``g`` in its canonical labelling."""
    if g.n > CANONICAL_MAX_N:
        raise ResourceError(f"canonical labelling capped at {CANONICAL_MAX_N} vertices")
    if g.n == 0:
        raise InputError("the empty graph has no canonical form")
    return g.relabel(_canonical_order(g))


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    return to_graph6(canonical_relabelled(g)).encode("ascii")


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    return canonical_form(a) == canonical_form(b)


def _orbit_least_masks(h: Graph) -> Iterator[int]:
    """Neighbourhood masks for a new vertex joined to ``h``, one per orbit of Aut(h).

    Each mask yielded is the least of its orbit, so a mask that some
    automorphism maps to a smaller one, and that would only give an isomorphic
    copy of an extension already seen, is never yielded.
    """
    bit_images = [[1 << v for v in a] for a in automorphisms(h)]
    covered = bytearray(1 << h.n)
    for mask in range(1 << h.n):
        if covered[mask]:
            continue
        yield mask
        members = [v for v in range(h.n) if mask >> v & 1]
        for images in bit_images:
            image = 0
            for v in members:
                image |= images[v]
            covered[image] = 1


def _extension(h: Graph, mask: int) -> Graph:
    """``h`` with one more vertex, joined to the vertices in ``mask``."""
    n = h.n + 1
    rows = [row | ((mask >> v & 1) << (n - 1)) for v, row in enumerate(h.rows)]
    rows.append(mask)
    return Graph(n, tuple(rows))


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on ``n`` vertices.

    Classes are produced by extending the (n-1)-vertex representatives one
    vertex at a time, once per orbit of neighbourhood masks, and
    deduplicating by canonical form; the result comes back sorted by
    canonical form, and each class is represented by its first extension in
    (parent, mask) order.
    """
    if n < 1:
        raise InputError("enumeration needs at least one vertex")
    if n > ENUMERATE_MAX_N:
        raise ResourceError(f"enumeration capped at {ENUMERATE_MAX_N} vertices")
    level = [from_edges(1, [])]
    for m in range(2, n + 1):
        seen: dict[bytes, Graph] = {}
        for h in level:
            for mask in _orbit_least_masks(h):
                cand = _extension(h, mask)
                key = canonical_form(cand)
                if key not in seen:
                    seen[key] = cand
        level = [seen[key] for key in sorted(seen)]
    return level
