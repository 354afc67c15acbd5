"""
Signed automorphisms and their graded signed permutations
=========================================================

Automorphisms built from graph symmetries and generator inversions act on
the graded pieces of the lower central series by signed permutation
matrices, held as ``SignedAut`` objects on basis indices: column c carries
``signs[c]`` in row ``perm[c]``.  Eigenvalue 1 on any piece forces infinitely
many twisted conjugacy classes.  det(I - M) is the product over the cycles
of M of (1 - the cycle's sign product), so eigenvalue 1 means some cycle has
sign product +1.
"""

from raagcert import (
    SignedAut,
    cycle_graph,
    edgeless_graph,
    eigenvalue_witness_report,
    has_eigenvalue_one,
    induced_matrix,
    l2_basis,
)


def cycles(m):
    """Each cycle of ``m.perm`` from its least point, with its sign product."""
    seen = set()
    for start in range(len(m.perm)):
        cycle, product, point = [], 1, start
        while point not in seen:
            seen.add(point)
            cycle.append(point)
            product *= m.signs[point]
            point = m.perm[point]
        if cycle:
            yield tuple(cycle), product


def show(label, m):
    text = ", ".join(f"{cycle} sign {product:+d}" for cycle, product in cycles(m))
    print(f"{label}: perm {m.perm} signs {m.signs}; cycles {text or 'none'};"
          f" eigenvalue 1? {has_eigenvalue_one(m)}")


g = edgeless_graph(2)
swap = SignedAut((1, 0), (1, 1))

# Level 1: the action on the abelianization; a plain swap fixes v0 + v1.
show("level 1, swap", induced_matrix(g, swap, 1))

# Level 2: commutators of non-adjacent pairs; the swap reverses the bracket.
print("level-2 basis:", l2_basis(g))
show("level 2, swap", induced_matrix(g, swap, 2))

# Inverting both generators fixes the bracket on level 2.
flip = SignedAut((0, 1), (-1, -1))
show("level 2, both inverted", induced_matrix(g, flip, 2))

# Level 3: the swap exchanges the shapes (i, j, i) and (i, j, j), each with a
# sign -1, so the 2-cycle has sign product +1.
print("level-3 basis:", [(i, j, k) for i, j in l2_basis(g) for k in (i, j)])
show("level 3, swap", induced_matrix(g, swap, 3))

# A rotation of the 5-cycle with one inverted generator: a single 5-cycle of
# sign -1 on level 1, no eigenvalue 1 there, so the scan looks higher up.
c5 = cycle_graph(5)
rotate = SignedAut((1, 2, 3, 4, 0), (-1, 1, 1, 1, 1))
for level in (1, 2, 3):
    show(f"C5 level {level}, inverted rotation", induced_matrix(c5, rotate, level))

# Exhaustive scan: every signed automorphism of a non-complete graph has a
# witness on level 1, 2 or 3.
report = eigenvalue_witness_report(c5)
print("C5 scan:", report.total, "signed automorphisms, witnesses per level:",
      report.level_counts, "failures:", len(report.failures))
