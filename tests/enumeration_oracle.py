"""The deduplication that ``raagcert.isomorphism.enumerate_graphs`` replaced by
a colour-bucketed isomorphism check, kept only as an oracle for it.

``enumerate_graphs`` runs the canonical search on every extension of every
representative, once per orbit of neighbourhood masks, and keeps the first
extension of each canonical graph6; ``vertex_colours`` computes the colours
that the enumeration updates one added vertex at a time from scratch.
"""

from __future__ import annotations

from raagcert import Graph, from_edges
from raagcert.graphs import _graph6_from_columns
from raagcert.isomorphism import _canonical_search, _extension, _orbit_least_masks


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class on ``n`` vertices: the first
    extension in (parent, mask) order, sorted by canonical graph6."""
    level = [(from_edges(1, []), [])]
    for m in range(2, n + 1):
        seen = {}
        for h, generators in level:
            for mask in _orbit_least_masks(h.n, generators):
                cand = _extension(h, mask)
                _, cand_generators, columns = _canonical_search(cand)
                key = _graph6_from_columns(m, columns)
                if key not in seen:
                    seen[key] = (cand, cand_generators)
        level = [seen[key] for key in sorted(seen)]
    return [h for h, _ in level]


def vertex_colours(g: Graph) -> list[int]:
    """Per vertex: degree << 24 | sum of the neighbours' degrees << 12 | twice
    the number of edges among the neighbours."""
    neighbours = [[w for w in range(g.n) if g.adjacent(v, w)] for v in range(g.n)]
    return [
        len(ns) << 24
        | sum(len(neighbours[w]) for w in ns) << 12
        | sum(g.adjacent(u, w) for u in ns for w in ns)
        for ns in neighbours
    ]
