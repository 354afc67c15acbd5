"""
Characteristic closures and transvection-free vertices
======================================================

A set of vertices generates a characteristic subgroup of the right-angled
Artin group exactly when it is a union of characteristic closures: sweep the
domination closure of a vertex through the graph's automorphism group.
"""

from raagcert import (
    characteristic_closures,
    cycle_graph,
    from_edges,
    induced,
    is_characteristic_vertex_set,
    is_transvection_free_graph,
    path_graph,
    petersen_graph,
    transvection_free_vertices,
    VertexSet,
)

p3 = path_graph(3)
closures = characteristic_closures(p3)
print("characteristic closure of the end of P3:", list(closures[0]))
print("characteristic closure of the middle of P3:", list(closures[1]))

# The five-cycle admits no transvections at all; the four-cycle admits them
# everywhere (opposite vertices have equal links).
print("transvection-free vertices of C5:", list(transvection_free_vertices(cycle_graph(5))))
print("transvection-free vertices of C4:", list(transvection_free_vertices(cycle_graph(4))))
print("is C9 transvection-free?", is_transvection_free_graph(cycle_graph(9)))
print("is Petersen transvection-free?", is_transvection_free_graph(petersen_graph()))

# The maximal-degree set is always characteristic; a lone vertex usually is not.
print("max-degree set characteristic?",
      is_characteristic_vertex_set(p3, p3.max_degree_vertices()))
print("single end vertex characteristic?",
      is_characteristic_vertex_set(p3, VertexSet.of([0], 3)))

# CHAR_QUOTIENT deletes such sets.  In this max-by-abelian graph the lone
# vertex of non-maximal degree is 0; the least characteristic set holding its
# link is the link itself, and deleting it cuts vertex 0 off.
fig = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)])
link = VertexSet(fig.rows[0], fig.n)
print("link of the low-degree vertex:", list(link),
      "characteristic?", is_characteristic_vertex_set(fig, link))
print("quotient connected?", induced(fig, link.complement()).is_connected())
