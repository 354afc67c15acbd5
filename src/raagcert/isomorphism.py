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
orbits on vertex masks are all derived from the search's generators.  Its
columns are the canonical graph's upper triangle in graph6 bit order, so
every canonical graph6 (``canonical_form``, the certificate serializer and
enumeration's sort key) packs them directly.  The isolated vertices are
placed first, in ascending order, before the search starts: every minimal
ordering begins with them (the lemma in ``_canonical_search``), so the search
never branches over them.
Enumeration is McKay's canonical augmentation (``enumerate_graphs``): a
representative's extension by a new vertex is kept iff that vertex lies in
the orbit of a canonically chosen vertex, which the extension's search gives.
The sizes this package targets (at most 8 to 10 vertices) keep the search
small, so no external canonical-labelling machinery is used.

A command meets many labelled graphs more than once: ``enumerate --max-n``
asks for every level from 1 up, the serializer packs each enumerated root's
canonical graph6 again, and the auditor re-checks graphs that recur across
classes.  So the work a command shares, here and in ``certify``, goes through
``_shared``, which keeps each result for the ``shared_searches()`` scope that
the CLI opens around each command.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, Optional, Sequence, TypeVar

from .errors import InputError, ResourceError
from .graphs import Graph, _graph6_from_columns, _trusted_graph, from_edges

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


# the last (graph, tuple permutation) pair that is_automorphism accepted; the
# two fresh objects are no caller's arguments
_accepted: tuple[object, object] = (object(), object())


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    """True iff ``perm`` permutes the vertices, as exact integers, and maps
    every edge onto an edge; any other input gives False.

    One lookup per edge is exact: a bijection of the vertices that maps every
    edge to an edge maps the finite edge set into itself injectively, so onto
    itself, and then non-edges go to non-edges.

    The last pair accepted is remembered, so a scan that asks about one
    automorphism many times in a row checks it once.  A call is answered from
    it only with the very same graph object and permutation object, compared
    by identity, and only a tuple permutation is remembered: a ``Graph`` and a
    tuple of integers cannot change after the check, a list can."""
    global _accepted
    last_g, last_perm = _accepted
    if perm is last_perm and g is last_g:
        return True
    if list(map(type, perm)).count(int) != len(perm) or sorted(perm) != list(range(g.n)):
        return False
    rows = g.rows
    for u, v in g.edges():
        if not rows[perm[u]] >> perm[v] & 1:
            return False
    if type(perm) is tuple:
        _accepted = g, perm
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


# the open shared_searches() scope's stores, one per kind of shared work (see
# _shared); None outside a scope
_stores: Optional[dict[str, dict]] = None


@contextmanager
def shared_searches() -> Iterator[None]:
    """Within this scope ``_shared`` keeps what it computes.  A nested scope
    shares the outer one's stores; the outermost scope drops them on exit, so
    nothing outlives the command that opened it."""
    global _stores
    if _stores is not None:
        yield
        return
    _stores = {}
    try:
        yield
    finally:
        _stores = None


_Key = TypeVar("_Key")
_Value = TypeVar("_Value")


def _shared(kind: str, key: Hashable, compute: Callable[[_Key], _Value], arg: _Key) -> _Value:
    """``compute(arg)``, kept within a ``shared_searches()`` scope for every
    later call with this ``kind`` and an equal ``key``; outside a scope it is
    computed afresh.

    The key must fix the value: it holds everything ``compute`` reads, so a
    stored result is exactly what the call would compute alone, and never one
    relabelled from another input's.  A stored ``None`` is a result like any
    other; a ``compute`` that raises stores nothing."""
    if _stores is None:
        return compute(arg)
    store = _stores.setdefault(kind, {})
    if key not in store:
        store[key] = compute(arg)
    return store[key]


def _search(g: Graph) -> _Search:
    # the rows fix the graph, n included
    return _shared("searches", g.rows, _canonical_search, g)


def _orbit_roots(n: int, generators: Sequence[VertexPermutation]) -> list[int]:
    """Least point of each point's orbit under the group that permutations of
    {0..n-1} generate."""
    # root[v] is always the least point of v's class so far, so a merge
    # renames the larger root's class, whose points all lie at or above it
    root = list(range(n))
    for a in generators:
        for v in range(n):
            x, y = root[v], root[a[v]]
            if x != y:
                if x > y:
                    x, y = y, x
                for w in range(y, n):
                    if root[w] == y:
                        root[w] = x
    return root


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


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic: the graph6 of
    ``g`` relabelled by its canonical ordering, packed from the search's columns.

    >>> from raagcert.graphs import path_graph, to_graph6
    >>> canonical_form(path_graph(3)), to_graph6(path_graph(3))
    (b'BW', 'Bg')
    """
    _, _, columns = _search_within(g, "canonical labelling")
    return _graph6_from_columns(g.n, columns).encode("ascii")


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


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on ``n`` vertices,
    sorted by the canonical graph6 that its search's columns pack.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): each representative h on m - 1 vertices gets a
    new vertex v = m - 1 joined to each orbit-least mask M of Aut(h), and the
    extension C = h + M is kept iff v lies in the Aut(C)-orbit of m(C): among
    the vertices with the largest pair (degree, sum of the neighbours'
    degrees), the one C's canonical order places last.  If v's degree is not
    the largest, which h's degrees and M tell, C is dropped before it is
    built; if v's pair is not the largest, C is dropped before its search.
    Otherwise that one search gives C's canonical order and the generators of
    Aut(C), and when m(C) is v itself, v is kept with no orbit to compute.

    m(C) is canonical: an isomorphism f: C -> D maps m(C) into the orbit of
    m(D).  The pair is invariant, so the canonical relabellings k_C and k_D
    send m(C) and m(D) to one position of the canonical graph, the last with
    the largest pair; so k_D^-1 k_C f^-1, in Aut(D), maps f(m(C)) to m(D).
    Hence, given one representative per class on m - 1 vertices, each class
    on m vertices is kept exactly once:

    - at least once: for X in the class, an isomorphism from X - m(X) onto
      a representative h carries m(X)'s neighbourhood into the orbit of an
      orbit-least mask M, so X is isomorphic to C = h + M by a map sending
      m(X) to v, and v then lies in the orbit of m(C);
    - at most once: if kept extensions h + M and h' + M' are isomorphic, some
      isomorphism between them fixes v, as both new vertices lie in the
      orbits of the canonical vertices; it restricts to h -> h', so h = h',
      and to an automorphism of h mapping M to M', so M = M'.
    """
    if type(n) is not int:
        raise InputError(f"vertex count {n!r} is not an exact integer")
    if n < 1:
        raise InputError("enumeration needs at least one vertex")
    if n > ENUMERATE_MAX_N:
        raise ResourceError(f"enumeration capped at {ENUMERATE_MAX_N} vertices")
    return [h for h, _ in _level(n)]


# a level: its representatives with the generators of their automorphism groups
_Level = list[tuple[Graph, tuple[VertexPermutation, ...]]]


def _level(m: int) -> _Level:
    return _shared("levels", m, _built_level, m)


def _built_level(m: int) -> _Level:
    """The level on ``m`` vertices, from the level on m - 1 as
    ``enumerate_graphs`` describes."""
    if m == 1:
        return [(from_edges(1, []), ())]
    kept: list[tuple[str, Graph, tuple[VertexPermutation, ...]]] = []
    for h, generators in _level(m - 1):
        # v's degree is the mask's size, and a vertex of h gains one where the
        # mask holds it, so the degree test needs no extension built: v has
        # the largest degree d iff h's largest degree is below d, or equals
        # it with no vertex of that degree in the mask
        h_degrees = [row.bit_count() for row in h.rows]
        h_top = max(h_degrees)
        at_top = sum(1 << u for u, deg in enumerate(h_degrees) if deg == h_top)
        for mask in _orbit_least_masks(h.n, generators):
            degree = mask.bit_count()
            if degree < h_top or degree == h_top and mask & at_top:
                continue
            cand = _extension(h, mask)
            degrees = [deg + (mask >> u & 1) for u, deg in enumerate(h_degrees)]
            degrees.append(degree)
            # the neighbours' degree sum of each vertex of v's (largest) degree
            sums = {u: sum(degrees[w] for w in range(m) if row >> w & 1)
                    for u, row in enumerate(cand.rows) if degrees[u] == degree}
            top = max(sums.values())
            if sums[m - 1] != top:
                continue
            order, cand_generators, columns = _search(cand)
            last = max((u for u, s in sums.items() if s == top), key=order.__getitem__)
            if last != m - 1:
                roots = _orbit_roots(m, cand_generators)
                if roots[last] != roots[m - 1]:
                    continue
            kept.append((_graph6_from_columns(m, columns), cand, cand_generators))
    kept.sort(key=lambda item: item[0])
    return [(g, g_generators) for _, g, g_generators in kept]
