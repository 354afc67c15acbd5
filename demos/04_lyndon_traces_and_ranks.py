"""
Trace monoid, Lyndon elements and lower-central ranks
=====================================================

Words over the vertices, read modulo swapping adjacent commuting letters,
form the trace monoid of the graph.  Its Lyndon elements, bracketed into
iterated commutators, give bases of the graded pieces of the lower central
series of the right-angled Artin group, so counting them computes ranks.
"""

from raagcert import (
    bracketing,
    cycle_graph,
    edgeless_graph,
    enumerate_lyndon,
    from_edges,
    is_lyndon,
    standard_factorization,
    trace_class,
)

# Three vertices where only the last two commute: one swap identifies two words.
g = from_edges(3, [(1, 2)])
m = trace_class(g, (0, 1, 2))
print("class of v0.v1.v2:", sorted(m.words()), "standard representative:", m.std)

# Lyndon elements are smaller than all of their proper right factors.
print("is v0.v1 Lyndon on the edgeless pair?",
      is_lyndon(trace_class(edgeless_graph(2), (0, 1))))
print("is v1.v0 Lyndon?", is_lyndon(trace_class(edgeless_graph(2), (1, 0))))

# Standard factorization drives the bracketing into commutators.
m = trace_class(edgeless_graph(2), (0, 0, 1))
x, y = standard_factorization(m)
print("standard factorization of v0.v0.v1:", x.std, "|", y.std)
print("bracketing:", bracketing(m))

# The Lyndon elements of length 3 on C5: each of the five non-adjacent pairs
# i < j gives i.i.j and i.j.j, and five more use three distinct vertices.
c5 = cycle_graph(5)
print("length-3 Lyndon elements of C5:", [m.std for m in enumerate_lyndon(c5, 3)])

# Rank table of the graded pieces: free groups recover Witt's necklace counts.
for graph, name in ((edgeless_graph(2), "free of rank 2"), (c5, "five-cycle")):
    ranks = [len(enumerate_lyndon(graph, length)) for length in range(1, 6)]
    print(f"ranks for {name}:", ranks)
