"""Trace monoid over a graph's commutation relations, and its Lyndon elements.

Words are tuples of vertex indices.  Two letters commute exactly when they are
joined by an edge, and a trace is the equivalence class of a word under
swapping adjacent commuting letters.

The word order is index-lexicographic with a proper prefix smaller, so tuple
comparison implements it directly.  The standard representative of a trace is
the largest word in its class, and traces compare through their standard
representatives.  A word is standard exactly when no letter can move left,
past letters it commutes with, over a smaller letter it also commutes with
(Anisimov–Knuth, 1979).  ``enumerate_lyndon`` builds standard words letter
by letter, in order, so it never meets a second word of a trace, and it
extends only the prefixes that can still begin a Lyndon word (*Pruning*
below).

A word's dependence heap orders position i before position j when i < j and
their letters do not commute.  The factorizations m = xy of its trace are the
splits of the heap into a down-closed and an up-closed set of positions
(Diekert–Rozenberg, *The Book of Traces*, 1995), and the largest word of
either part is the greedy walk that always takes the largest available letter.
The proofs below argue on the heap, but the code reads the standard word
alone: ``is_lyndon`` scans it, and ``standard_factorization`` cuts it at its
least proper suffix.  Only ``TraceClass.words`` materialises a class, by
breadth-first closure over single swaps.

A trace is a Lyndon element iff it is nontrivial and smaller than every proper
right factor; bracketing a Lyndon element via its standard factorization
produces the iterated commutators that form bases of the graded pieces of the
lower central series of the associated right-angled Artin group.

**Lemma** (Lalonde, TCS 117, 1993).  A nontrivial trace t is a Lyndon element
iff its standard word w = std(t) is a Lyndon word, that is, smaller than each
of its proper suffixes.  So ``is_lyndon`` reads w alone.

*Greedy lemma.*  w is the greedy walk through the heap that always takes the
largest available letter.  Equal letters never commute, so the walk is
deterministic, and restricted to any set of remaining positions it continues
as that set's own greedy walk.

*(⇒)*  For i ≥ 1 the positions of the suffix w[i:] form an up-closed set, and
by the greedy lemma its standard word is w[i:] itself.  So w[i:] is a proper
right factor, and a Lyndon trace has w < w[i:] for every i ≥ 1: w is a Lyndon
word.

*(⇐)*  Let w be a Lyndon word and t = xy with x and y nontrivial.  x is
down-closed, so each letter the walk takes from x is the largest one x has
available, and w restricted to x is p = std(x).  Let q be w restricted to y.
Then p·q is a word of t, so p·q ≤ w, and the word lemma below gives q > w.
Hence std(y) ≥ q > w = std(t) for every proper right factor y.

*Word lemma.*  If w is a Lyndon word, w is a shuffle of nonempty words p and
q, and p·q ≤ w, then q > w.  Suppose instead q ≤ w.  Every Lyndon factor f of
p or q (Chen–Fox–Lyndon factorization) has f ≤ w: a factor of p has
f ≤ p ≤ p·q ≤ w, a factor of q has f ≤ q ≤ w.  By Radford's lemma
(Reutenauer, *Free Lie Algebras*, 1993, §6.1), a word whose factors are
l₁ ≥ … ≥ l_k is the largest word of l₁ ш … ш l_k; w is a shuffle of all the
factors, so w ≤ L, their decreasing concatenation, and |L| = |w|.  L starts
with its largest factor f₁, and f₁ ≤ w ≤ L, so f₁ is a prefix of w, and a
proper one, since f₁ is no longer than p or q.  Write w = f₁z and L = f₁L′, so
z ≤ L′.  Every factor of L′ is a Lyndon word at most f₁, so L′ ≤ f₁^∞, by
induction on the number of factors; and f₁^k < w for every k, because z > w.
Together these give L′ < w, hence z < w.  But z is a proper suffix of the
Lyndon word w, so z > w, a contradiction.

**Standard factorization.**  Let t be a Lyndon trace of length ℓ ≥ 2,
w = std(t), v = w[i:] the least proper suffix of w and u = w[:i].  Then the
standard factorization of t is (trace of u, trace of v).  Two facts about the
greedy walk carry the proof: positions available at the same step carry
distinct letters, since equal letters never commute; and the first letter of
a Lyndon word is its least.

*(a)*  [0, i) is down-closed and [i, ℓ) is up-closed, since the heap orders
positions only forwards, so t = xy with std(x) = u, as in (⇐), and
std(y) = v by the greedy lemma.  u and v are Lyndon words with u < w < v
(Reutenauer, *Free Lie Algebras*, 1993, ch. 5), so by the lemma x and y are
Lyndon traces, and x < y.

*(b)*  No position z > 0 of a Lyndon standard word lacks a heap predecessor:
otherwise z is available at step 0 beside position 0, the walk took 0, and
w[z] < w[0], against the least first letter.  Applied to v, y has the single
initial vertex v[0].  Applied to z = i in w, some position before i holds a
letter equal to v[0] or not commuting with it, so v[0] lies in dep(x).

*(c)*  Let Y be any proper, nonempty up-closed set of positions, j = min Y
and s the standard word of Y.  Then j ≥ 1: otherwise the least position z
outside Y has its heap predecessors outside Y and before z, so none, against
(b).  If Y = [j, ℓ), then s = w[j:] ≥ v, with equality only for j = i.
Otherwise let z be the least position after j outside Y.  Its predecessors
lie outside Y and before z, so before j, and z was available when the walk
took j.  Hence w[z] < w[j] ≤ s[0], since j is minimal in Y, and
s > w[z:] ≥ v.  So (u, v) is the least candidate, Y = [i, ℓ) is the only
right factor with std(y) = v, and x is determined.

The word-level form of (c) is false, so the heap's up-closure is needed: the
Lyndon word 00101, with v = 01, is a shuffle of p = 0 and q = 0011 < v.

**Pruning** (Duval, J. Algorithms 4, 1983).  Duval's scan compares letter i
of a word with letter j, where w[i - j:i] = w[:j] and j < i.  If w[i] < w[j],
the proper suffix w[i - j:i + 1] is smaller than the prefix w[:j + 1] of the
same length, so every word that starts with w[:i + 1] has a proper suffix
smaller than itself, and none is a Lyndon word.  Hence every prefix of a
Lyndon word passes the scan.  A prefix of a standard word is standard, since
whether a letter can move left depends only on the letters before it.  So
the standard word of a Lyndon trace, by the lemma a Lyndon word, is reached
through standard prefixes that all pass the scan, and a build that extends
only such prefixes keeps it.  Passing the scan is not enough (the scan of
(0, 0) ends with j = 1), so ``enumerate_lyndon`` still tests each candidate
with ``is_lyndon``."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import InputError, ResourceError
from .graphs import Graph

TraceWord = tuple[int, ...]

LYNDON_MAX_LENGTH = 6
# enumerate_lyndon refuses lengths with more than this many words, n**length,
# before any work, though it builds only the standard words that can still
# become Lyndon words
LYNDON_MAX_WORDS = 100_000


@lru_cache(maxsize=None)
def _class_words(g: Graph, word: TraceWord) -> frozenset[TraceWord]:
    """All words reachable from ``word`` by swapping adjacent commuting letters."""
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if a != b and g.adjacent(a, b):
                    swapped = w[:i] + (b, a) + w[i + 2 :]
                    if swapped not in seen:
                        seen.add(swapped)
                        nxt.append(swapped)
        frontier = nxt
    return frozenset(seen)


def _largest_word(rows: tuple[int, ...], w: TraceWord, part: int) -> TraceWord:
    """Largest word of the subtrace of ``w`` on the position mask ``part``: the
    greedy walk through the heap that always takes the largest available
    letter.  A position is available when its letter commutes with every
    letter before it in the part."""
    out = []
    while part:
        best = -1
        before = 0
        for j, a in enumerate(w):
            if part >> j & 1:
                if not before & ~rows[a] and (best < 0 or a > w[best]):
                    best = j
                before |= 1 << a
        out.append(w[best])
        part ^= 1 << best
    return tuple(out)


@dataclass(frozen=True)
class TraceClass:
    """A trace, identified by its standard (largest) representative word."""

    graph: Graph
    std: TraceWord

    @property
    def length(self) -> int:
        return len(self.std)

    def words(self) -> frozenset[TraceWord]:
        return _class_words(self.graph, self.std)

    def _check_same(self, other: "TraceClass") -> None:
        if self.graph != other.graph:
            raise InputError("traces live over different graphs")

    def __lt__(self, other: "TraceClass") -> bool:
        self._check_same(other)
        return self.std < other.std

    def __le__(self, other: "TraceClass") -> bool:
        self._check_same(other)
        return self.std <= other.std

    def __repr__(self) -> str:
        body = ".".join(f"v{v}" for v in self.std)
        return f"TraceClass({body or '1'})"


def trace_class(g: Graph, word: Sequence[int]) -> TraceClass:
    """The trace of ``word``; letters must be vertices of ``g``."""
    w = tuple(word)
    for letter in w:
        g.check_vertex(letter)
    return TraceClass(g, _largest_word(g.rows, w, (1 << len(w)) - 1))


def support(m: TraceClass) -> frozenset[int]:
    return frozenset(m.std)


def initial_vertices(m: TraceClass) -> frozenset[int]:
    """Vertices that can start some word of the class: the letters of the
    heap's minimal positions."""
    rows = m.graph.rows
    out = set()
    before = 0
    for a in m.std:
        if not before & ~rows[a]:
            out.add(a)
        before |= 1 << a
    return frozenset(out)


def dependence_set(m: TraceClass) -> frozenset[int]:
    """Support plus every vertex that fails to commute with some support vertex."""
    g = m.graph
    supp = support(m)
    extra = {
        j
        for j in range(g.n)
        for i in supp
        if i != j and not g.adjacent(i, j)
    }
    return supp | extra


def is_lyndon(m: TraceClass) -> bool:
    """True iff the trace is strictly smaller than every proper right factor.

    By the lemma in the module docstring, that holds exactly when the standard
    word w is a Lyndon word.  (⇒) each suffix w[i:], i ≥ 1, is the standard
    word of an up-closed set of positions, so of a proper right factor.  (⇐)
    for t = xy, w restricted to x is std(x), and w restricted to y is a word
    q of y; the word lemma turns std(x)·q ≤ w into q > w, so std(y) > w.

    Duval's scan reads w once: ``j`` is the position in w that letter ``i``
    is compared with, so w[:i] is a power of the Lyndon word w[:i - j].  A
    smaller letter ends the first Lyndon factor before w does, a larger one
    makes all of w[:i + 1] Lyndon, and w is Lyndon iff the scan ends with
    period len(w), that is with ``j == 0``.
    """
    w = m.std
    if not w:
        raise InputError("the trivial trace is not eligible")
    j = 0
    for i in range(1, len(w)):
        if w[j] < w[i]:
            j = 0
        elif w[j] == w[i]:
            j += 1
        else:
            return False
    return j == 0


def _lyndon_candidates(g: Graph, length: int) -> list[TraceWord]:
    """The standard words of the given length, sorted, every prefix of which
    passes Duval's scan: a superset of the Lyndon traces' standard words.

    ``blocked`` is the mask of letters that may not come next: a letter b is
    blocked after a suffix c u when c < b and b commutes with c and every
    letter of u, since b could then move left over u and c.  ``j`` is the
    position of Duval's scan (see ``is_lyndon``): the next letter a must be
    at least w[j], and moves the scan to j + 1 if equal, to 0 if larger.
    """
    rows = g.rows
    n = g.n
    above = [((1 << n) - 1) >> (a + 1) << (a + 1) for a in range(n)]
    level: list[tuple[TraceWord, int, int]] = [((a,), rows[a] & above[a], 0) for a in range(n)]
    for _ in range(length - 1):
        level = [(w + (a,), rows[a] & (above[a] | blocked), j + 1 if a == w[j] else 0)
                 for w, blocked, j in level for a in range(w[j], n) if not blocked >> a & 1]
    return [w for w, _, _ in level]


def enumerate_lyndon(g: Graph, length: int) -> list[TraceClass]:
    """All Lyndon traces of the given length, sorted; their count is the rank
    of the corresponding graded piece of the lower central series."""
    if length < 1:
        raise InputError("length must be positive")
    if length > LYNDON_MAX_LENGTH:
        raise ResourceError(f"Lyndon enumeration capped at length {LYNDON_MAX_LENGTH}")
    if g.n**length > LYNDON_MAX_WORDS:
        raise ResourceError(
            f"Lyndon enumeration capped at {LYNDON_MAX_WORDS} words; "
            f"{g.n} letters at length {length} give {g.n**length}")
    found: list[TraceClass] = []
    for word in _lyndon_candidates(g, length):
        m = TraceClass(g, word)
        if is_lyndon(m):
            found.append(m)
    return found


def closed_form_lyndon(g: Graph, length: int) -> list[TraceClass]:
    """Lyndon traces of length 1, 2 or 3 read off directly from adjacency.

    Lengths 1 and 2 are the vertices and the non-adjacent increasing pairs.
    Length 3 comprises four families over non-commuting pairs: i i k, i j k
    with both j and k non-commuting with i, i j j, and i j k with j != k where
    k fails to commute with i or with j.
    """
    if length not in (1, 2, 3):
        raise InputError("closed forms cover lengths 1, 2 and 3 only")

    def noncomm(i: int, j: int) -> bool:
        return i != j and not g.adjacent(i, j)

    words: set[TraceWord] = set()
    if length == 1:
        words = {(i,) for i in range(g.n)}
    elif length == 2:
        words = {(i, j) for i in range(g.n) for j in range(i + 1, g.n) if noncomm(i, j)}
    else:
        for i, j in itertools.combinations(range(g.n), 2):
            if not noncomm(i, j):
                continue
            words.add((i, i, j))
            words.add((i, j, j))
            # the i < j < k family with both (i,j) and (i,k) non-commuting is
            # the special case of this disjunction with k > j
            for k in range(i + 1, g.n):
                if k != j and (noncomm(i, k) or noncomm(j, k)):
                    words.add((i, j, k))
    classes = {trace_class(g, w) for w in words}
    return sorted(classes, key=lambda m: m.std)


def standard_factorization(m: TraceClass) -> tuple[TraceClass, TraceClass]:
    """The factorization m = xy into Lyndon traces x < y with the initial vertex
    of y in the dependence set of x, with y minimal.

    y is the trace of the least proper suffix of the standard word, and x the
    trace of the prefix before it (proof in the module docstring).

    >>> from raagcert.graphs import from_edges
    >>> x, y = standard_factorization(trace_class(from_edges(3, [(1, 2)]), (0, 0, 1)))
    >>> x.std, y.std
    ((0,), (0, 1))
    """
    if not is_lyndon(m):
        raise InputError("standard factorization is defined for Lyndon traces")
    if m.length < 2:
        raise InputError("needs length at least 2")
    i = _least_proper_suffix(m.std)
    return TraceClass(m.graph, m.std[:i]), TraceClass(m.graph, m.std[i:])


def _least_proper_suffix(w: TraceWord) -> int:
    """Start of the least proper suffix of ``w``, which has length at least 2."""
    return min(range(1, len(w)), key=lambda i: w[i:])


@dataclass(frozen=True)
class BracketTree:
    """Bracketing of a Lyndon trace: a leaf vertex or a pair of subtrees."""

    vertex: Optional[int] = None
    left: Optional["BracketTree"] = None
    right: Optional["BracketTree"] = None

    @classmethod
    def leaf(cls, vertex: int) -> "BracketTree":
        return cls(vertex=vertex)

    @classmethod
    def node(cls, left: "BracketTree", right: "BracketTree") -> "BracketTree":
        return cls(left=left, right=right)

    def leaves(self) -> tuple[int, ...]:
        if self.vertex is not None:
            return (self.vertex,)
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()

    def render(self) -> str:
        if self.vertex is not None:
            return f"v{self.vertex}"
        assert self.left is not None and self.right is not None
        return f"[{self.left.render()},{self.right.render()}]"

    def __str__(self) -> str:
        return self.render()


def bracketing(m: TraceClass) -> BracketTree:
    """Iterated-commutator tree obtained from repeated standard factorization."""
    if not is_lyndon(m):
        raise InputError("bracketing is defined for Lyndon traces")
    return _bracket(m.std)


def _bracket(w: TraceWord) -> BracketTree:
    """Bracketing of a Lyndon standard word; both parts of its standard
    factorization are Lyndon standard words again, so no level re-checks."""
    if len(w) == 1:
        return BracketTree.leaf(w[0])
    i = _least_proper_suffix(w)
    return BracketTree.node(_bracket(w[:i]), _bracket(w[i:]))
