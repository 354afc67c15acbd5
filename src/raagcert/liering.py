"""Signed graph automorphisms and their exact action on the first three
graded pieces of the lower central series of the associated group.

An automorphism generated by graph symmetries and generator inversions sends
generator i to the image of i under a graph automorphism, raised to a sign.
Partial conjugations act trivially on the associated graded Lie ring, so this
family captures the whole action.  On the graded pieces it acts by signed
permutation matrices over these bases:

* level 1: the generators themselves;
* level 2: the commutators of non-adjacent increasing pairs (i, j);
* level 3: the left-normed triples (i, j, i) and (i, j, j) per such pair.

Brackets are stored with strictly increasing first two indices; swapping the
first two slots of a triple costs a factor -1 and exchanges the two shapes.
Each matrix is held as a ``SignedAut`` on basis indices, and eigenvalue 1 is
read off its cycles: det(I - M) is the product over the cycles of (1 - the
cycle's sign product), so no matrix is built and no float appears.

The witness level of a signed automorphism (pi, e) depends only on pi and the
sign product of each cycle of pi.  If e and e' have the same product on every
cycle, then following each cycle from its least vertex gives a d in {+1, -1}^n
with e'_i = d_pi(i) * e_i * d_i, so (pi, e') is (pi, e) conjugated by the
inversion automorphism d.  Each graded piece is a functor, so the two have
conjugate matrices, with the same eigenvalues, on every level.  On level 1,
eigenvalue 1 appears iff some cycle has sign product +1.  So of the 2^n sign
vectors, 2^n - 2^(n - c(pi)) have a level-1 witness, where c(pi) counts the
cycles, and the other 2^(n - c(pi)) all have the level of the one that is -1
on the least vertex of each cycle and +1 elsewhere.  The scan uses this on
levels 2 and 3: per permutation it builds their matrices only for the first
sign vector without a level-1 witness, and gives that level to the
permutation's later sign vectors without one.  Level 1 is still checked for
every signed automorphism.  The report counts the signed automorphisms per
witness level and lists only those with no witness, so a scan's memory does
not grow with the group.

A scan builds the sign vectors and the level-2 basis with its column map
once.  ``induced_matrix`` checks on every call that its permutation is a
graph automorphism, through ``is_automorphism``, which answers a repeat of
the pair it last accepted at once; the scan builds levels 2 and 3 of a
signed automorphism whose level 1 passed that check without it, so it walks
the edges once per permutation.  The signed automorphisms built from Aut(g),
and their matrices, are valid by construction and skip ``SignedAut``
validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError, ResourceError
from .graphs import Graph
from .isomorphism import VertexPermutation, automorphisms, is_automorphism

SIGNED_AUT_MAX_N = 8
WITNESS_LEVELS = (1, 2, 3)


@dataclass(frozen=True)
class SignedAut:
    """A permutation together with a sign per point: a graph automorphism with
    a sign per vertex, or the signed permutation matrix whose column ``c``
    holds ``signs[c]`` in row ``perm[c]``."""

    perm: VertexPermutation
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.perm) != len(self.signs):
            raise InputError("need one sign per vertex")
        if any(type(x) is not int for x in itertools.chain(self.perm, self.signs)):
            raise InputError("perm and signs must hold exact integers")
        if any(s not in (-1, 1) for s in self.signs):
            raise InputError("signs must be +1 or -1")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise InputError("perm must be a permutation of 0..n-1")


def _trusted_signed(perm: VertexPermutation, signs: tuple[int, ...]) -> SignedAut:
    """``SignedAut(perm, signs)`` without ``SignedAut.__post_init__``, for a
    tuple permutation of integers and a tuple of +1/-1 that are valid by
    construction."""
    a = object.__new__(SignedAut)
    object.__setattr__(a, "perm", perm)
    object.__setattr__(a, "signs", signs)
    return a


def has_eigenvalue_one(m: SignedAut) -> bool:
    """Whether the signed permutation matrix ``m`` has eigenvalue 1.

    det(I - M) is the product, over the cycles of ``m.perm``, of (1 - the
    cycle's sign product), so it vanishes exactly when some cycle has sign
    product +1.  An empty basis has no such cycle: the 0 x 0 determinant is 1.
    """
    perm, signs = m.perm, m.signs
    seen = 0
    for start in range(len(perm)):
        if seen >> start & 1:
            continue
        product = signs[start]
        seen |= 1 << start
        point = perm[start]
        while point != start:
            product *= signs[point]
            seen |= 1 << point
            point = perm[point]
        if product == 1:
            return True
    return False


def signed_automorphisms(g: Graph) -> Iterator[SignedAut]:
    """All |Aut| * 2^n signed automorphisms, in a deterministic order."""
    if g.n > SIGNED_AUT_MAX_N:
        raise ResourceError(f"signed automorphisms capped at {SIGNED_AUT_MAX_N} vertices")
    auts = automorphisms(g)
    sign_vectors = [
        tuple(-1 if bits >> i & 1 else 1 for i in range(g.n))
        for bits in range(1 << g.n)
    ]
    for perm in auts:
        for signs in sign_vectors:
            yield _trusted_signed(perm, signs)


def l2_basis(g: Graph) -> tuple[tuple[int, int], ...]:
    """Non-adjacent increasing pairs, in lexicographic order."""
    rows = g.rows
    return tuple(
        (i, j)
        for i, j in itertools.combinations(range(g.n), 2)
        if not rows[i] >> j & 1
    )


def _check_signed_aut(g: Graph, a: SignedAut) -> None:
    if not is_automorphism(g, a.perm):
        if len(a.perm) != g.n:
            raise InputError("signed automorphism acts on a different vertex count")
        raise InputError("permutation is not a graph automorphism")


def induced_matrix(g: Graph, a: SignedAut, level: int) -> SignedAut:
    """Signed permutation matrix of the signed automorphism on the chosen graded
    piece, as a ``SignedAut`` on basis indices: column ``c`` holds ``signs[c]``
    in row ``perm[c]``, and level 1 is ``a`` itself.  The matrix product
    ``m k`` of two such matrices holds ``m.signs[k.perm[c]] * k.signs[c]`` in
    row ``m.perm[k.perm[c]]`` of column ``c``.

    On level 2 the pair (i, j) maps to the reordered image pair with
    sign e_i * e_j, negated when the permutation swaps the order.  On level 3
    the triple (i, j, i) picks up e_j and (i, j, j) picks up e_i, with a
    further -1 and a shape exchange when the image pair needs reordering.
    """
    if type(level) is not int:
        raise InputError(f"level {level!r} is not an exact integer")
    _check_signed_aut(g, a)
    if level == 1:
        return a
    if level not in (2, 3):
        raise InputError("level must be 1, 2 or 3")
    pairs = l2_basis(g)
    return _graded_matrix(a, level, pairs, {pair: c for c, pair in enumerate(pairs)})


def _graded_matrix(a: SignedAut, level: int, pairs: tuple[tuple[int, int], ...],
                   column: dict[tuple[int, int], int]) -> SignedAut:
    """``induced_matrix`` on level 2 or 3 of a signed automorphism of the
    graph whose level-2 basis is ``pairs``, with ``column`` giving each
    pair's column, unchecked."""
    perm, signs = a.perm, a.signs
    rows: list[int] = []
    row_signs: list[int] = []
    if level == 2:
        for i, j in pairs:
            p, q = perm[i], perm[j]
            if p < q:
                rows.append(column[p, q])
                row_signs.append(signs[i] * signs[j])
            else:
                rows.append(column[q, p])
                row_signs.append(-signs[i] * signs[j])
    else:
        # the level-3 basis holds (i, j, i) in column 2c and (i, j, j) in
        # column 2c + 1 for the pair (i, j) in column c of l2_basis
        for i, j in pairs:
            p, q = perm[i], perm[j]
            if p < q:
                c = 2 * column[p, q]
                rows += (c, c + 1)
                row_signs += (signs[j], signs[i])
            else:
                # reordering the first two slots negates and exchanges shapes;
                # the third slot is never reordered
                c = 2 * column[q, p]
                rows += (c + 1, c)
                row_signs += (-signs[j], -signs[i])
    # the image pairs are non-adjacent because a.perm is a graph automorphism,
    # so rows is a permutation of the basis columns and every sign is +1 or -1
    return _trusted_signed(tuple(rows), tuple(row_signs))


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of scanning every signed automorphism for an eigenvalue-1
    witness: how many were scanned, how many have their least witness on each
    level, and those with none, in scan order."""

    total: int
    level_counts: dict[int, int]
    failures: tuple[SignedAut, ...]


def eigenvalue_witness_report(g: Graph) -> WitnessReport:
    """How many signed automorphisms have each level in {1, 2, 3} as the least
    whose matrix has eigenvalue 1, and those with none (expected never, for
    non-complete graphs), reported rather than raised.

    Levels 2 and 3 are tried once per permutation, by the module docstring's
    lemma: its sign vectors without a level-1 witness all share one level.

    >>> from raagcert.graphs import cycle_graph
    >>> report = eigenvalue_witness_report(cycle_graph(4))
    >>> report.total, report.level_counts
    (128, {1: 95, 2: 33, 3: 0})
    """
    if g.n > SIGNED_AUT_MAX_N:
        raise ResourceError(f"witness scan capped at {SIGNED_AUT_MAX_N} vertices")
    if g.is_complete():
        raise InputError("the scan requires a non-complete graph")
    counts = dict.fromkeys(WITNESS_LEVELS, 0)
    failures = []
    pairs = l2_basis(g)
    column = {pair: c for c, pair in enumerate(pairs)}
    # the permutation whose levels 2 and 3 were tried last, and its level
    perm, witness = None, 0
    for a in signed_automorphisms(g):
        if has_eigenvalue_one(induced_matrix(g, a, 1)):
            counts[1] += 1
            continue
        if a.perm != perm:
            perm = a.perm
            witness = next((level for level in WITNESS_LEVELS[1:]
                            if has_eigenvalue_one(_graded_matrix(a, level, pairs, column))), 0)
        if witness:
            counts[witness] += 1
        else:
            failures.append(a)
    return WitnessReport(sum(counts.values()) + len(failures), counts, tuple(failures))
