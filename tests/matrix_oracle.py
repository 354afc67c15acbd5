"""Dense exact-integer matrices, kept only as an oracle for the signed
permutations of ``raagcert.liering``; the group operations on ``SignedAut``
(identity, composition, inverse, cycles with their sign products); and the
brute witness scan that ``eigenvalue_witness_report`` shortens by its lemma.

Matrices are tuples of rows of Python integers.  ``det_exact`` is fraction-free
(Bareiss) elimination and ``det_by_cofactors`` the Laplace expansion it is
checked against; neither uses floats.
"""

import math

from raagcert import (
    InputError,
    SignedAut,
    has_eigenvalue_one,
    induced_matrix,
    liering,
    signed_automorphisms,
)
from raagcert.liering import WITNESS_LEVELS, WitnessReport


def dense(m: SignedAut) -> tuple[tuple[int, ...], ...]:
    """Rows of the matrix whose column c holds ``m.signs[c]`` in row ``m.perm[c]``."""
    rows = [[0] * len(m.perm) for _ in m.perm]
    for c, (r, sign) in enumerate(zip(m.perm, m.signs)):
        rows[r][c] = sign
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> SignedAut:
    if type(n) is not int or n < 0:
        raise InputError(f"size {n!r} is not a non-negative exact integer")
    return SignedAut(tuple(range(n)), (1,) * n)


def compose(a: SignedAut, b: SignedAut) -> SignedAut:
    """``a`` after ``b``: point i goes to ``a.perm[b.perm[i]]`` with sign
    ``a.signs[b.perm[i]] * b.signs[i]``, the matrix product of the dense forms."""
    return SignedAut(tuple(a.perm[p] for p in b.perm),
                     tuple(a.signs[p] * e for p, e in zip(b.perm, b.signs)))


def inverse(a: SignedAut) -> SignedAut:
    perm = [0] * len(a.perm)
    for i, p in enumerate(a.perm):
        perm[p] = i
    return SignedAut(tuple(perm), tuple(a.signs[p] for p in perm))


def cycles(a: SignedAut) -> list[tuple[tuple[int, ...], int]]:
    """Each cycle of ``a.perm`` from its least point, with its sign product."""
    out = []
    seen = set()
    for start in range(len(a.perm)):
        cycle = []
        point = start
        while point not in seen:
            seen.add(point)
            cycle.append(point)
            point = a.perm[point]
        if cycle:
            out.append((tuple(cycle), math.prod(a.signs[p] for p in cycle)))
    return out


def subtract(a, b) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def matmul(a, b) -> tuple[tuple[int, ...], ...]:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def cyclic_shift(signs) -> SignedAut:
    """k x k cyclic shift whose column i carries the i-th sign in row i + 1
    (mod k); det(I - P) = 1 - product of the signs."""
    k = len(signs)
    return SignedAut(tuple((i + 1) % k for i in range(k)), tuple(signs))


def det_exact(rows) -> int:
    """Exact determinant by fraction-free elimination; arbitrary precision."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_by_cofactors(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * det_by_cofactors(minor)
    return total


def det_identity_minus(m: SignedAut) -> int:
    """det(I - M) for the dense form of ``m``."""
    return det_exact(subtract(dense(identity(len(m.perm))), dense(m)))


def induced_matrix_oracle(g, a: SignedAut, level: int) -> SignedAut:
    """``induced_matrix`` for a signed automorphism ``a`` of ``g`` at level 2
    or 3, from a basis rebuilt by pairwise adjacency queries and a dict from
    each image bracket to its column."""
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if not g.adjacent(i, j)]
    if level == 2:
        basis = pairs
    else:
        basis = [(i, j, rep) for i, j in pairs for rep in (i, j)]
    perm, signs = a.perm, a.signs
    images = []
    for element in basis:
        i, j = element[:2]
        p, q = perm[i], perm[j]
        if level == 2:
            sign = signs[i] * signs[j]
        else:
            # (i, j, i) picks up e_j, (i, j, j) picks up e_i
            sign = signs[j] if element[2] == i else signs[i]
        if p > q:
            p, q = q, p
            sign = -sign
        images.append(((p, q) + tuple(perm[rep] for rep in element[2:]), sign))
    column = {element: c for c, element in enumerate(basis)}
    return SignedAut(tuple(column[x] for x, _ in images), tuple(s for _, s in images))


def witness_levels_oracle(g) -> list[int]:
    """The least witness level of each signed automorphism, in the order of
    ``signed_automorphisms``, 0 where there is none: without the lemma
    ``eigenvalue_witness_report`` relies on, every signed automorphism's
    matrices on levels 1, 2 and 3 in turn, up to the first with eigenvalue 1."""
    return [
        next((level for level in WITNESS_LEVELS
              if has_eigenvalue_one(induced_matrix(g, a, level))), 0)
        for a in signed_automorphisms(g)
    ]


def witness_report_oracle(g) -> WitnessReport:
    """``eigenvalue_witness_report`` built from ``witness_levels_oracle``."""
    levels = witness_levels_oracle(g)
    failures = [a for a, level in zip(signed_automorphisms(g), levels) if not level]
    return WitnessReport(len(levels), {level: levels.count(level) for level in WITNESS_LEVELS},
                         tuple(failures))


def withhold_higher_witnesses(monkeypatch) -> None:
    """Make levels 2 and 3 give the 1 x 1 matrix (-1), which has no eigenvalue
    1, in ``eigenvalue_witness_report`` and in the oracle alike (both build
    them through ``liering._graded_matrix``): no non-complete graph with
    n <= 8 lacks a witness, so this is the way to reach the failure path."""
    monkeypatch.setattr(liering, "_graded_matrix",
                        lambda a, level, pairs, column: SignedAut((0,), (-1,)))
