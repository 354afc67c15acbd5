"""Characteristic closures, transvection-free vertex sets and related queries.

A vertex set generates a characteristic normal vertex-subgroup of the
right-angled Artin group exactly when it is a union of characteristic
closures, where the closure of a vertex is its domination closure swept
through the graph's automorphism group, that is, the union of the orbits of
the domination closure's members.  Domination (w dominates v when lk(v) lies
in st(w)) is a preorder, so the domination closure of v is v with every vertex
dominating it: the intersection of st(x) over the neighbours x of v, which is
every vertex when v is isolated.  v lies in each neighbour's star, so the
intersection never drops v, and ``_closure_mask`` stops at the first star
that leaves v alone.  A vertex is transvection-free exactly when its closure
is itself, and a set is characteristic exactly when it contains each
member's domination closure and orbit.  The orbits come from
``isomorphism.vertex_orbits``; no automorphism list is built, and
``characteristic_closures`` reads every vertex's closure from one search.

``is_characteristic_vertex_set`` mostly settles the orbit half of its test
without that search, by colour refinement from the degree partition (McKay,
"Practical graph isomorphism", 1981): each round splits every cell by the
vertex's number of neighbours in each cell.  Automorphisms preserve degrees,
so they preserve the degree partition, and a partition they preserve stays
preserved when its cells are split by counts taken against its own cells.
So every orbit lies inside one cell of every round, and a set that is a
union of cells contains each member's orbit.  Refinement can stabilise on
cells coarser than the orbits: on C3 ⊔ C4 every vertex has degree 2 and two
neighbours of degree 2, so the partition never leaves one cell, and only the
orbit search shows that the triangle and the square are characteristic.  The
search runs only in such a case.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import InputError
from .graphs import Graph, VertexSet
from .isomorphism import CANONICAL_MAX_N, vertex_orbits


def _closure_mask(g: Graph, v: int) -> int:
    """Bit mask of the domination closure of ``v``: the AND of its neighbours'
    stars, stopped once it is ``v`` alone."""
    rows = g.rows
    closure = (1 << g.n) - 1
    alone = 1 << v
    row = rows[v]
    while row:
        low = row & -row
        closure &= rows[low.bit_length() - 1] | low
        if closure == alone:
            break
        row ^= low
    return closure


def domination_closure(g: Graph, v: int) -> VertexSet:
    """Least vertex set containing ``v`` and closed under taking dominating vertices."""
    g.check_vertex(v)
    return VertexSet(_closure_mask(g, v), g.n)


def characteristic_closures(g: Graph) -> tuple[VertexSet, ...]:
    """The characteristic closure of every vertex, from one orbit search: the
    union of the orbits of the members of its domination closure."""
    orbits = vertex_orbits(g)
    out = []
    for v in range(g.n):
        mask = 0
        for u in VertexSet(_closure_mask(g, v), g.n):
            mask |= orbits[u]
        out.append(VertexSet(mask, g.n))
    return tuple(out)


def characteristic_closure(g: Graph, v: int) -> VertexSet:
    """Union of the automorphism images of the domination closure of ``v``."""
    g.check_vertex(v)
    return characteristic_closures(g)[v]


def transvection_free_vertices(g: Graph) -> VertexSet:
    """Vertices dominated by no other vertex."""
    if g.n < 1:
        raise InputError("need at least one vertex")
    mask = 0
    for v in range(g.n):
        if _closure_mask(g, v) == 1 << v:
            mask |= 1 << v
    return VertexSet(mask, g.n)


def is_transvection_free_graph(g: Graph) -> bool:
    """True iff every vertex is transvection-free and the graph is not a single vertex."""
    if g.n < 1:
        raise InputError("need at least one vertex")
    if g.n == 1:
        return False
    return all(_closure_mask(g, v) == 1 << v for v in range(g.n))


def _refined_partitions(g: Graph) -> Iterator[list[int]]:
    """The degree partition of ``g``, then each round of colour refinement
    while it splits a cell, as lists of cell masks.  Every automorphism
    preserves each of them."""
    rows = g.rows
    by_degree: dict[int, int] = {}
    for v, row in enumerate(rows):
        degree = row.bit_count()
        by_degree[degree] = by_degree.get(degree, 0) | 1 << v
    cells = list(by_degree.values())
    while True:
        yield cells
        split: dict[tuple[int, ...], int] = {}
        for cell in cells:
            members = cell
            while members:
                low = members & -members
                row = rows[low.bit_length() - 1]
                key = (cell, *((row & other).bit_count() for other in cells))
                split[key] = split.get(key, 0) | low
                members ^= low
        if len(split) == len(cells):
            return
        cells = list(split.values())


def is_characteristic_vertex_set(g: Graph, s: VertexSet) -> bool:
    """True iff ``s`` equals the union of the characteristic closures of its members.

    Equivalently, ``s`` contains the domination closure and the orbit of each
    member.  The orbits are searched only when no refined degree partition
    has ``s`` as a union of cells.
    """
    if s.n != g.n:
        raise InputError("vertex set belongs to a different graph")
    if not 1 <= g.n <= CANONICAL_MAX_N:
        vertex_orbits(g)  # raises the orbit search's size error, on every s
    if any(_closure_mask(g, v) & ~s.mask for v in s):
        return False
    for cells in _refined_partitions(g):
        if all((cell & s.mask) in (0, cell) for cell in cells):
            return True
    orbits = vertex_orbits(g)
    return not any(orbits[v] & ~s.mask for v in s)


class MbaCharacteristicSets(NamedTuple):
    link_intersection: VertexSet
    max_degree_linked: VertexSet


def mba_characteristic_sets(g: Graph) -> MbaCharacteristicSets:
    """The two characteristic vertex sets attached to a non-regular graph.

    ``link_intersection`` collects the vertices adjacent to every vertex of
    non-maximal degree; ``max_degree_linked`` the maximal-degree vertices
    adjacent to at least one vertex of non-maximal degree.
    """
    if g.is_regular():
        raise InputError("these sets are only defined for non-regular graphs")
    top = g.max_degree_vertices()
    inter = (1 << g.n) - 1
    union = 0
    for v in top.complement():
        inter &= g.rows[v]
        union |= g.rows[v]
    return MbaCharacteristicSets(
        link_intersection=VertexSet(inter, g.n),
        max_degree_linked=VertexSet(union & top.mask, g.n),
    )
