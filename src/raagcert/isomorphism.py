"""Canonical forms, automorphism groups, vertex orbits and isomorphism-class
enumeration of small graphs.

One backtracking search over vertex orderings does all of it.  It finds the
ordering with the lexicographically least upper-triangle bit string.  Each
node keeps the unused vertices as an ordered list of cells, one bit mask per
column (the vertex's adjacency to the placed prefix), so placing a vertex
splits every cell with two ANDs and the least column is always the first
cell.  The search is pruned exactly (the result never changes) by branching
only on the first cell, by trying one vertex per twin class, by cutting a
child whose least column already loses to the best ordering, and by skipping
candidates in the orbit of an explored sibling under the automorphisms met at
equal leaves.  Those automorphisms, with the transpositions of twins,
generate the automorphism group, so the full group, the vertex orbits and the
orbits on vertex masks are all derived from the search's generators.  The
isolated vertices are placed first, in ascending order, before the search
starts: every minimal ordering begins with them (the lemma in
``_canonical_search``), so the search never branches over them.
Enumeration extends each class representative by one new vertex per orbit of
its automorphism group on neighbourhood masks, taking the generators from the
search that admitted the representative.  Each vertex carries a colour that
isomorphisms preserve (its degree, its neighbours' degree sum and the edges
among its neighbours), updated from the parent's colours, and the
representatives kept at a level are bucketed by their sorted colours.  An
extension that a colour-preserving backtracking check maps onto a
representative in its bucket is dropped; any other one runs the search,
whose best columns pack into the canonical graph6 that deduplicates it.  So
each class costs one search, and a weak colouring costs time, never a class.
The sizes this package targets (at most 8 to 10 vertices) keep the search
small, so no external canonical-labelling machinery is used.

A command searches many labelled graphs more than once: ``enumerate_graphs(n)``
rebuilds every lower level, the serializer searches each enumerated root
again, and the auditor re-checks orbits of graphs that recur across classes.
Inside a ``shared_searches()`` scope, which the CLI opens around each
command, the search's result is stored per labelled graph (its rows) and
every later search of the same rows reads it.  Only the search's own results
are stored, never one relabelled from another graph's, so every caller gets
what it would compute alone.  The outermost scope drops them on exit, and
outside a scope every call searches afresh.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .errors import InputError, ResourceError
from .graphs import Graph, _graph6_from_columns, _trusted_graph, from_edges, to_graph6

VertexPermutation = tuple[int, ...]

# the one search behind automorphisms, orbits and canonical labelling
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


@functools.lru_cache(maxsize=1)
def _edge_list(g: Graph) -> tuple[tuple[int, int], ...]:
    """The edges ``u < v`` of ``g``.  A scan asks about one graph many times
    in a row, so one entry suffices."""
    return tuple(g.edges())


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    """True iff ``perm`` permutes the vertices, as exact integers, and maps
    every edge onto an edge; any other input gives False.

    One lookup per edge is exact: a bijection of the vertices that maps every
    edge to an edge maps the finite edge set into itself injectively, so onto
    itself, and then non-edges go to non-edges."""
    if list(map(type, perm)).count(int) != len(perm) or sorted(perm) != list(range(g.n)):
        return False
    rows = g.rows
    for u, v in _edge_list(g):
        if not rows[perm[u]] >> perm[v] & 1:
            return False
    return True


_Search = tuple[VertexPermutation, tuple[VertexPermutation, ...], tuple[int, ...]]


def _canonical_search(g: Graph) -> _Search:
    """Canonical vertex ordering of ``g``, a generating set of Aut(g), and the
    columns of the canonical graph.

    The ordering (old vertex -> new position) is the one whose upper-triangle
    bit string is lexicographically minimal.  Position p of the order
    contributes the column of bits joining it to the positions before it, the
    bit of position 0 highest; columns are compared as fixed-width integers,
    which matches the graph6 bit ordering, so the returned columns are the
    canonical graph's upper triangle in graph6 bit order.  Among the minimal
    orderings the one that is least as a vertex sequence is returned.

    A node of the search holds the unused vertices as an ordered partition
    (McKay, "Practical graph isomorphism", 1981, without refinement): a list
    of cells ``(column, vertex mask)``, one per column the unused vertices
    have, in increasing column order.  Placing a vertex u splits each cell
    into its non-neighbours of u (column << 1) and its neighbours
    (column << 1 | 1), which keeps the cells in order, so the first cell is
    always the least column.  Whether the placed prefix still ties the best
    ordering found so far is carried down the recursion, and a child whose
    least column already loses is cut before it is entered.  Three exact
    prunes keep the depth-first search small without changing its result:

    1. a position branches only on the vertices of the first cell, since a
       larger column loses at that very position;
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

    The isolated vertices are placed first, in ascending order, and the
    search runs on the other vertices only; an edgeless graph needs no
    search.  Lemma: in every minimal ordering the isolated vertices come
    before all others.  First, a minimal ordering has col(i+1) >= 2·col(i),
    since swapping positions i and i+1 would put col(i+1) >> 1 at position
    i.  Now move an isolated vertex z from position q to the front.  Position
    0 keeps column 0.  For 0 < i <= q the new column at i is the old
    col(i-1), which is at most col(i)/2, so at most col(i).  A later position
    p loses z's 0 bit from the middle of its column: with A the bits joining
    it to positions 0..q-1 and B those joining it to q+1..p-1, its column
    goes from A·2^(p-q) + B to A·2^(p-1-q) + B, which is no larger.  So the
    new string is no larger at any position, and by minimality it is equal:
    every col(i) with i <= q is 0, and every A is 0, so each vertex before z
    is adjacent to nothing, that is, isolated too.  The isolated vertices
    are mutual twins, so the minimal ordering that is least as a vertex
    sequence takes them in ascending order, and the order and columns
    returned are those of the search over all vertices.  The automorphisms
    met at equal leaves fix the isolated vertices, and the twin
    transpositions generate their symmetric group, so the generators still
    generate Aut(g), the product of the two.
    """
    n = g.n
    rows = g.rows
    smaller_twins = [0] * n
    for v in range(n):
        for u in range(v):
            if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
                smaller_twins[v] |= 1 << u
    # the isolated vertices come first, in ascending order (see above)
    order = [v for v, row in enumerate(rows) if not row]
    rest = (1 << n) - 1
    for v in order:
        rest ^= 1 << v
    best_cols: list[int] = []
    best_order: list[int] = []
    found: list[VertexPermutation] = []
    cols = [0] * (len(order) + 1)

    def extend(cells: list[tuple[int, int]], unused: int, tie: bool) -> bool:
        # cols ends with the first cell's column; tie says whether cols equals
        # the start of best_cols, else it is less (or there is no best yet).
        # True iff a new best was found.
        if not unused & (unused - 1):
            order.append(unused.bit_length() - 1)
            if tie:
                image = [0] * n
                for old, new in zip(best_order, order):
                    image[old] = new
                found.append(tuple(image))
            else:
                best_cols[:], best_order[:] = cols, order
            order.pop()
            return not tie
        improved = False
        explored: list[int] = []
        orbit: list[int] = []
        known = 0
        candidates = cells[0][1]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            u = low.bit_length() - 1
            if smaller_twins[u] & unused:
                continue
            if explored and len(found) > known:
                known = len(found)
                orbit = _orbit_roots(n, [a for a in found if all(a[v] == v for v in order)])
            if orbit and any(orbit[u] == orbit[e] for e in explored):
                continue
            # explored even when cut below: its orbit-mates lose the same way
            explored.append(u)
            row = rows[u]
            apart = ~(row | low)  # neither u nor a neighbour of u
            child = []
            for col, cell in cells:
                if split := cell & apart:
                    child.append((col << 1, split))
                if split := cell & row:
                    child.append((col << 1 | 1, split))
            least = child[0][0]
            child_tie = tie
            if tie:
                target = best_cols[len(cols)]
                if least > target:
                    continue
                child_tie = least == target
            order.append(u)
            cols.append(least)
            if extend(child, unused ^ low, child_tie):
                improved = tie = True
            cols.pop()
            order.pop()
        return improved

    if rest:
        extend([(0, rest)], rest, False)
    else:
        best_order, best_cols = order, cols[:n]
    for v, twins in enumerate(smaller_twins):
        if twins:
            swap = list(range(n))
            least = (twins & -twins).bit_length() - 1
            swap[least], swap[v] = v, least
            found.append(tuple(swap))
    # best_order[p] is the old vertex placed at position p; relabel wants old -> new
    return invert_permutation(best_order), tuple(found), tuple(best_cols)


# _canonical_search's result per labelled graph (keyed by its rows, which also
# fix n), kept only while a shared_searches() scope is open
_searches: Optional[dict[tuple[int, ...], _Search]] = None


@contextmanager
def shared_searches() -> Iterator[None]:
    """Within this scope every canonical search of a labelled graph already
    searched returns the stored result instead of searching again.

    A nested scope shares the outer one's results; the outermost scope drops
    them on exit, so nothing outlives the command that opened it.  Only
    results of ``_canonical_search`` itself are stored, never one derived by
    relabelling another graph's, so a caller inside the scope gets exactly
    what it would compute outside.
    """
    global _searches
    if _searches is not None:
        yield
        return
    _searches = {}
    try:
        yield
    finally:
        _searches = None


def _search(g: Graph) -> _Search:
    """``_canonical_search(g)``, shared within a ``shared_searches()`` scope."""
    if _searches is None:
        return _canonical_search(g)
    result = _searches.get(g.rows)
    if result is None:
        result = _searches[g.rows] = _canonical_search(g)
    return result


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


def _search_within(g: Graph, what: str) -> _Search:
    if g.n < 1:
        raise InputError(f"{what} needs at least one vertex")
    if g.n > CANONICAL_MAX_N:
        raise ResourceError(f"{what} capped at {CANONICAL_MAX_N} vertices")
    return _search(g)


def automorphisms(g: Graph) -> list[VertexPermutation]:
    """All adjacency-preserving vertex bijections, sorted by image tuple: the
    group the canonical search's generators generate."""
    _, generators, _ = _search_within(g, "the automorphism search")
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
    _, generators, _ = _search_within(g, "the orbit search")
    roots = _orbit_roots(g.n, generators)
    masks = [0] * g.n
    for v, root in enumerate(roots):
        masks[root] |= 1 << v
    return tuple(masks[root] for root in roots)


def canonical_relabelled(g: Graph) -> Graph:
    """Isomorphic copy of ``g`` in its canonical labelling."""
    order, _, _ = _search_within(g, "canonical labelling")
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
    return _trusted_graph(n, tuple(rows))


def _extension_colours(h: Graph, colours: Sequence[int], mask: int) -> list[int]:
    """Vertex colours of ``_extension(h, mask)``, given those of ``h``.

    A vertex's colour packs three invariants that every isomorphism preserves
    into one int: its degree, the sum of its neighbours' degrees, and twice
    the number of edges among its neighbours.  Each is below 2**12 up to 64
    vertices, so the packing is exact.  A vertex v with c neighbours in
    ``mask`` gains c in the sum; if v is in ``mask`` it also gains 1 in
    degree, the new vertex's degree in the sum, and 2c in the edge count.
    """
    k = mask.bit_count()
    out = []
    total = links = 0
    for v, row in enumerate(h.rows):
        c = (row & mask).bit_count()
        if mask >> v & 1:
            out.append(colours[v] + (1 << 24 | (c + k) << 12 | 2 * c))
            total += (colours[v] >> 24) + 1
            links += c
        else:
            out.append(colours[v] + (c << 12))
    out.append(k << 24 | total << 12 | links)
    return out


def _isomorphism(
    a: Graph, a_colours: Sequence[int], b: Graph, b_colours: Sequence[int]
) -> VertexPermutation | None:
    """A vertex bijection (vertex of ``a`` -> vertex of ``b``) that maps
    ``a`` onto ``b`` and each colour onto itself, or None if there is none.

    The vertices of ``a`` are placed in order by backtracking.  Vertex v goes
    only to an unused vertex of ``b`` of its colour whose adjacency to the
    images of 0..v-1 is v's adjacency to 0..v-1, so every pair of vertices is
    checked, adjacent or not, before a mapping is returned.
    """
    n = a.n
    if b.n != n:
        return None
    by_colour: dict[int, int] = {}
    for u, colour in enumerate(b_colours):
        by_colour[colour] = by_colour.get(colour, 0) | 1 << u
    options = [by_colour.get(colour, 0) for colour in a_colours]
    a_rows, b_rows = a.rows, b.rows
    image = [0] * n

    def place(v: int, used: int) -> bool:
        if v == n:
            return True
        # the images of v's neighbours among the placed vertices
        want = 0
        row = a_rows[v] & ((1 << v) - 1)
        while row:
            low = row & -row
            want |= 1 << image[low.bit_length() - 1]
            row ^= low
        free = options[v] & ~used
        while free:
            low = free & -free
            free ^= low
            u = low.bit_length() - 1
            if b_rows[u] & used == want:
                image[v] = u
                if place(v + 1, used | low):
                    return True
        return False

    return tuple(image) if place(0, 0) else None


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on ``n`` vertices.

    Classes are produced by extending the (n-1)-vertex representatives one
    vertex at a time, once per orbit of neighbourhood masks; the result comes
    back sorted by canonical form, and each class is represented by its first
    extension in (parent, mask) order.  An extension is dropped when a
    colour-preserving backtracking search (``_isomorphism``) maps it onto a
    representative already kept at its level whose sorted vertex colours
    equal its own.  Any other extension goes through the canonical search,
    and its canonical graph6 deduplicates it as before, so a weak colouring
    costs time, never a class, and each class costs one canonical search.
    """
    if n < 1:
        raise InputError("enumeration needs at least one vertex")
    if n > ENUMERATE_MAX_N:
        raise ResourceError(f"enumeration capped at {ENUMERATE_MAX_N} vertices")
    # each representative with the generators of its automorphism group and
    # its vertex colours
    level: list[tuple[Graph, tuple[VertexPermutation, ...], list[int]]] = [
        (from_edges(1, []), (), [0])]
    for m in range(2, n + 1):
        seen: dict[str, tuple[Graph, tuple[VertexPermutation, ...], list[int]]] = {}
        # the representatives kept at this level, by sorted colours
        buckets: dict[tuple[int, ...], list[tuple[Graph, list[int]]]] = {}
        for h, generators, h_colours in level:
            for mask in _orbit_least_masks(h.n, generators):
                cand = _extension(h, mask)
                colours = _extension_colours(h, h_colours, mask)
                bucket = buckets.setdefault(tuple(sorted(colours)), [])
                if any(_isomorphism(cand, colours, rep, rep_colours) is not None
                       for rep, rep_colours in bucket):
                    continue
                _, cand_generators, columns = _search(cand)
                key = _graph6_from_columns(m, columns)
                if key not in seen:
                    seen[key] = (cand, cand_generators, colours)
                    bucket.append((cand, colours))
        level = [seen[key] for key in sorted(seen)]
    return [h for h, _, _ in level]
