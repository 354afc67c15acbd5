"""
Automorphisms, canonical forms and exhaustive enumeration
=========================================================

The certification pipeline needs graph symmetries (for characteristic
closures), an isomorphism test (for deduplication), and every isomorphism
class of small graphs (for the exhaustive verification runs).
"""

from raagcert import cycle_graph, enumerate_graphs, from_edges, path_graph, petersen_graph
from raagcert.isomorphism import automorphisms, canonical_form

# The path on three vertices has just the flip; the five-cycle is dihedral.
print("Aut(P3):", automorphisms(path_graph(3)))
print("|Aut(C5)| =", len(automorphisms(cycle_graph(5))))
print("|Aut(Petersen)| =", len(automorphisms(petersen_graph())))

# Canonical forms answer isomorphism questions byte for byte.
c4_one = cycle_graph(4)
c4_two = from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
print("two labelings of the four-cycle:",
      canonical_form(c4_one) == canonical_form(c4_two))
print("P3 vs triangle:", canonical_form(path_graph(3)) == canonical_form(cycle_graph(3)))

# One representative per isomorphism class, for each size.
counts = [len(enumerate_graphs(n)) for n in range(1, 8)]
print("isomorphism classes for 1..7 vertices:", counts)
print("total classes with at most 7 vertices:", sum(counts))
