"""Searches that ``raagcert.closures`` replaced by closed forms, kept only as
oracles for them.

``domination_closure`` grows a vertex set until no vertex dominating a member
is missing, ``transvection_free_vertices`` tries every ordered pair, and
``is_characteristic_vertex_set`` rebuilds the union of the members'
characteristic closures from the full automorphism list of
``symmetry_oracle``; all three go through the checked ``dominates``.
``is_transvection_free_graph`` counts ``transvection_free_vertices``.
"""

from raagcert import Graph, VertexSet, dominates

from symmetry_oracle import automorphisms


def domination_closure(g: Graph, v: int) -> VertexSet:
    """Least vertex set containing ``v`` and closed under taking dominating vertices."""
    g.check_vertex(v)
    closure = 1 << v
    changed = True
    while changed:
        changed = False
        for w in range(g.n):
            if closure >> w & 1:
                continue
            if any(dominates(g, u, w) for u in VertexSet(closure, g.n)):
                closure |= 1 << w
                changed = True
    return VertexSet(closure, g.n)


def transvection_free_vertices(g: Graph) -> VertexSet:
    """Vertices dominated by no other vertex."""
    return VertexSet.of(
        (v for v in range(g.n) if not any(w != v and dominates(g, v, w) for w in range(g.n))),
        g.n,
    )


def is_transvection_free_graph(g: Graph) -> bool:
    """True iff every vertex is transvection-free and the graph is not a single vertex."""
    return g.n > 1 and len(transvection_free_vertices(g)) == g.n


def is_characteristic_vertex_set(g: Graph, s: VertexSet, auts=None) -> bool:
    """True iff ``s`` equals the union of the characteristic closures of its members."""
    if auts is None:
        auts = automorphisms(g)
    mask = 0
    for v in s:
        for u in domination_closure(g, v):
            for perm in auts:
                mask |= 1 << perm[u]
    return mask == s.mask
