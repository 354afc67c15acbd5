"""Canonical forms, automorphism groups, vertex orbits and isomorphism-class
enumeration of small graphs.

One backtracking search over vertex orderings does all of it.  It finds the
ordering with the lexicographically least upper-triangle bit string, pruned
exactly (the result never changes) by branching only on the least columns, by
trying one vertex per twin class, and by skipping candidates in the orbit of
an explored sibling under the automorphisms met at equal leaves.  Those
automorphisms, with the transpositions of twins, generate the automorphism
group, so the full group, the vertex orbits and the orbits on vertex masks are
all derived from the search's generators.  Enumeration extends each class
representative by one new vertex per orbit of its automorphism group on
neighbourhood masks, taking the generators from the search that admitted the
representative.  The sizes this package targets (at most 8 to 10 vertices)
keep the search small, so no external canonical-labelling machinery is used.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, ResourceError
from .graphs import Graph, from_edges, to_graph6

VertexPermutation = tuple[int, ...]

AUTOMORPHISM_MAX_N = 10
CANONICAL_MAX_N = 10
ENUMERATE_MAX_N = 8


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


def _canonical_search(g: Graph) -> tuple[VertexPermutation, list[VertexPermutation]]:
    """Canonical vertex ordering of ``g`` and a generating set of Aut(g).

    The ordering (old vertex -> new position) is the one whose upper-triangle
    bit string is lexicographically minimal.  Position p of the order
    contributes the column of bits joining it to the positions before it;
    columns are compared as fixed-width integers, which matches the graph6
    bit ordering.  Among the minimal orderings the one that is least as a
    vertex sequence is returned.

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

    The generators are the automorphisms met at equal leaves, plus, for each
    vertex with a smaller twin, its transposition with its least twin.  They
    generate Aut(g), because Aut(g) maps the minimal orderings onto each
    other, each onto each by exactly one automorphism, and the search relates
    every minimal ordering to the first one it reaches through generators:

    - prune 1, and the cut of prefixes already worse than the best leaf, keep
      every minimal ordering;
    - prunes 2 and 3 skip only orderings that a known generator, or a product
      of known generators fixing the prefix, maps onto an explored one, and
      every explored minimal leaf is a generator away from the first;
    - twinhood is an equivalence relation, so the transpositions of each
      vertex with its least twin generate the symmetric group of each twin
      class, and with it every swap prune 2 relies on.
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
    for v, twins in enumerate(smaller_twins):
        if twins:
            swap = list(range(n))
            least = (twins & -twins).bit_length() - 1
            swap[least], swap[v] = v, least
            found.append(tuple(swap))
    # best_order[p] is the old vertex placed at position p; relabel wants old -> new
    return invert_permutation(best_order), found


def _orbit_roots(n: int, generators: Sequence[VertexPermutation]) -> list[int]:
    """Least point of each point's orbit under the group that permutations of
    {0..n-1} generate."""
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


def _search_within(
    g: Graph, cap: int, what: str
) -> tuple[VertexPermutation, list[VertexPermutation]]:
    if g.n < 1:
        raise InputError(f"{what} needs at least one vertex")
    if g.n > cap:
        raise ResourceError(f"{what} capped at {cap} vertices")
    return _canonical_search(g)


def automorphisms(g: Graph) -> list[VertexPermutation]:
    """All adjacency-preserving vertex bijections, sorted by image tuple: the
    group the canonical search's generators generate."""
    _, generators = _search_within(g, AUTOMORPHISM_MAX_N, "the automorphism search")
    group = {tuple(range(g.n))}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for s in generators:
            b = compose_permutations(s, a)
            if b not in group:
                group.add(b)
                frontier.append(b)
    return sorted(group)


def vertex_orbits(g: Graph) -> tuple[int, ...]:
    """Bit mask of each vertex's orbit under Aut(g)."""
    _, generators = _search_within(g, CANONICAL_MAX_N, "the orbit search")
    roots = _orbit_roots(g.n, generators)
    masks = [0] * g.n
    for v, root in enumerate(roots):
        masks[root] |= 1 << v
    return tuple(masks[root] for root in roots)


def canonical_relabelled(g: Graph) -> Graph:
    """Isomorphic copy of ``g`` in its canonical labelling."""
    order, _ = _search_within(g, CANONICAL_MAX_N, "canonical labelling")
    return g.relabel(order)


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    return to_graph6(canonical_relabelled(g)).encode("ascii")


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    if a.degree_sequence() != b.degree_sequence():
        return False
    return canonical_form(a) == canonical_form(b)


def _orbit_least_masks(n: int, generators: Sequence[VertexPermutation]) -> list[int]:
    """Masks of vertices {0..n-1}, one per orbit of the group the generators
    generate: the least mask of each orbit, ascending.

    A mask that some automorphism of a graph maps to a smaller one would, as
    the neighbourhood of a new vertex, only give an isomorphic copy of an
    extension already seen, so it is never returned.
    """
    # each generator acting on masks: image[mask] is one OR from a smaller entry
    on_masks = []
    for a in generators:
        image = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << a[low.bit_length() - 1]
        on_masks.append(image)
    return [mask for mask, root in enumerate(_orbit_roots(1 << n, on_masks)) if root == mask]


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
    # each representative with the generators of its automorphism group
    level: list[tuple[Graph, list[VertexPermutation]]] = [(from_edges(1, []), [])]
    for m in range(2, n + 1):
        seen: dict[str, tuple[Graph, list[VertexPermutation]]] = {}
        for h, generators in level:
            for mask in _orbit_least_masks(h.n, generators):
                cand = _extension(h, mask)
                order, cand_generators = _canonical_search(cand)
                key = to_graph6(cand.relabel(order))
                if key not in seen:
                    seen[key] = (cand, cand_generators)
        level = [seen[key] for key in sorted(seen)]
    return [h for h, _ in level]
