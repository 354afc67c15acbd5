"""The canonical augmentation of ``raagcert.isomorphism.enumerate_graphs`` in
brute-force form, kept as an oracle for it.

Every extension of every representative, once per orbit of neighbourhood
masks, runs the canonical search, with no degree prefilter.  The pair (degree,
sum of the neighbours' degrees) of each vertex is computed by definition from
``Graph.adjacent``, and the extension is kept iff some automorphism, from the
full group ``automorphisms`` lists, maps its new vertex to the largest-pair
vertex that the canonical order places last.
"""

from __future__ import annotations

from raagcert import Graph, automorphisms, from_edges, to_graph6
from raagcert.isomorphism import _canonical_search, _extension, _orbit_least_masks


def _pairs(g: Graph) -> list[tuple[int, int]]:
    degrees = [sum(g.adjacent(v, w) for w in range(g.n)) for v in range(g.n)]
    return [(degrees[v], sum(degrees[w] for w in range(g.n) if g.adjacent(v, w)))
            for v in range(g.n)]


def enumerate_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class on ``n`` vertices: the kept
    extension, sorted by canonical graph6."""
    level = [from_edges(1, [])]
    for m in range(2, n + 1):
        kept = []
        for h in level:
            for mask in _orbit_least_masks(h.n, _canonical_search(h)[1]):
                cand = _extension(h, mask)
                order, _, _ = _canonical_search(cand)
                pairs = _pairs(cand)
                last = max((v for v in range(m) if pairs[v] == max(pairs)), key=order.__getitem__)
                if any(a[m - 1] == last for a in automorphisms(cand)):
                    kept.append((to_graph6(cand.relabel(order)), cand))
        kept.sort(key=lambda item: item[0])
        level = [g for _, g in kept]
    return level
