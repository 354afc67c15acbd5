"""
Graphs, structural queries and interchange formats
==================================================

Build small graphs, read off the per-vertex and whole-graph structure that
the certification rules consume, and round-trip the two text formats.
"""

from raagcert import (
    VertexSet,
    complement,
    compose,
    cycle_graph,
    dominates,
    edgeless_graph,
    from_edge_list,
    from_graph6,
    mba_parameters,
    path_graph,
    to_edge_list,
    to_graph6,
)

# A path on three vertices: the middle vertex sees both ends.
p3 = path_graph(3)
print("P3, vertex 1:", "link", list(VertexSet(p3.rows[1], p3.n)), "degree", p3.degree(1))

# Domination compares a link against a star; it drives every transvection.
print("P3: vertex 1 dominates vertex 0?", dominates(p3, 0, 1))
c5 = cycle_graph(5)
print("C5: any dominations?", any(dominates(c5, v, w) for v in range(5) for w in range(5) if v != w))

# Joins and disjoint unions correspond to direct and free products of the groups.
c4 = compose(edgeless_graph(2), edgeless_graph(2), "simplicial_join")
print("join of two edgeless pairs has edges", sorted(c4.edges()))
print("complement of that join:", sorted(complement(c4).edges()))

# Whole-graph queries: maximal-degree set, regularity, connectedness.
print("P3: max-degree set", list(p3.max_degree_vertices()),
      "regular?", p3.is_regular(), "connected?", p3.is_connected())

# Max-by-abelian parameters: connected, non-regular, and the low-degree
# vertices induce a complete graph.
from raagcert import from_edges

fig = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)])
print("five-vertex wheel-like graph is max-by-abelian with", mba_parameters(fig))

# The two interchange formats round-trip exactly.
print("edge-list of C5:", to_edge_list(c5))
print("graph6 of C5:", to_graph6(c5))
print("round-trip equal?", from_graph6(to_graph6(c5)) == c5 == from_edge_list(to_edge_list(c5)))
