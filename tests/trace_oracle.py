"""Brute-force trace computations, kept as a test oracle for ``raagcert.lyndon``.

A trace's class is materialised by breadth-first closure over single swaps of
adjacent commuting letters; its standard word is the class maximum, its
factorizations come from cutting every word of the class, and the Lyndon
traces of a length come from scanning all n**length words.  Everything here is
exponential and meant for small graphs only; a bounded cache keeps the
repeated closures of one test cheap.

``is_lyndon_by_heap`` is a second, faster oracle for the Lyndon test: it
compares the trace with the largest word of every proper right factor of its
dependence heap, so it reaches graphs and lengths the class closure cannot.

``anisimov_knuth_words`` builds every standard word of a length letter by
letter, without the Lyndon pruning ``raagcert.lyndon`` applies, so the
Lyndon test can be checked on the standard words the enumeration skips.

``closed_form_lyndon`` reads the Lyndon traces of lengths 1 to 3 off the
adjacency, with no search, for comparison with ``enumerate_lyndon``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from raagcert import Graph, InputError, TraceClass, trace_class
from raagcert.lyndon import _check_length, _largest_word

TraceWord = tuple[int, ...]


@lru_cache(maxsize=1 << 14)
def class_words(g: Graph, word: TraceWord) -> frozenset[TraceWord]:
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


def standard_word(g: Graph, word: TraceWord) -> TraceWord:
    return max(class_words(g, tuple(word)))


def initial_vertices(g: Graph, std: TraceWord) -> frozenset[int]:
    return frozenset(w[0] for w in class_words(g, std) if w)


def factorizations(g: Graph, std: TraceWord) -> set[tuple[TraceWord, TraceWord]]:
    """All (std(x), std(y)) with the trace of ``std`` equal to xy, x and y nontrivial."""
    out = set()
    for w in class_words(g, std):
        for cut in range(1, len(w)):
            out.add((standard_word(g, w[:cut]), standard_word(g, w[cut:])))
    return out


def is_lyndon(g: Graph, std: TraceWord) -> bool:
    """True iff the trace is strictly smaller than every proper right factor."""
    return all(std < y for _, y in factorizations(g, std))


def _bounded_right_factors(rows: tuple[int, ...], w: TraceWord) -> Iterator[int]:
    """Position masks of the nonempty, proper, up-closed sets of the heap of
    ``w`` whose own subsequence of ``w`` is at most ``w``.

    A position may stay out only when its letter commutes with every letter
    already in.  A factor is skipped when its subsequence exceeds ``w``: that
    subsequence is one of the factor's words, so the factor's largest word
    exceeds ``w`` too.  ``k`` counts the subsequence's letters that match
    ``w`` so far, and is -1 once the subsequence has fallen below it.
    """
    full = (1 << len(w)) - 1
    stack = [(0, 0, 0, 0)]
    while stack:
        j, up, letters, k = stack.pop()
        if j == len(w):
            if 0 < up < full:
                yield up
            continue
        a = w[j]
        if k < 0 or a < w[k]:
            stack.append((j + 1, up | 1 << j, letters | 1 << a, -1))
        elif a == w[k]:
            stack.append((j + 1, up | 1 << j, letters | 1 << a, k + 1))
        if not letters & ~rows[a]:
            stack.append((j + 1, up, letters, k))


def is_lyndon_by_heap(g: Graph, std: TraceWord) -> bool:
    """True iff the trace of the standard word ``std`` is strictly smaller than
    the largest word of every proper right factor of its heap."""
    rows = g.rows
    # a position whose letter commutes with every later letter is heap-maximal,
    # so it is a right factor on its own, one letter long
    later = 0
    for j in range(len(std) - 1, 0, -1):
        if std[j] <= std[0] and not later & ~rows[std[j]]:
            return False
        later |= 1 << std[j]
    return all(std < _largest_word(rows, std, up) for up in _bounded_right_factors(rows, std))


def standard_words(g: Graph, length: int) -> list[TraceWord]:
    """The standard word of every trace of the given length, sorted."""
    seen: set[TraceWord] = set()
    out = []
    for word in itertools.product(range(g.n), repeat=length):
        if word not in seen:
            words = class_words(g, word)
            seen |= words
            out.append(max(words))
    return sorted(out)


def anisimov_knuth_words(g: Graph, length: int) -> list[TraceWord]:
    """The standard word of every trace of the given length, sorted.

    ``blocked`` is the mask of letters that may not come next: a letter b is
    blocked after a suffix c u when c < b and b commutes with c and every
    letter of u, since b could then move left over u and c.
    """
    rows = g.rows
    above = [((1 << g.n) - 1) >> (a + 1) << (a + 1) for a in range(g.n)]
    level: list[tuple[TraceWord, int]] = [((), 0)]
    for _ in range(length):
        level = [(w + (a,), rows[a] & (above[a] | blocked))
                 for w, blocked in level for a in range(g.n) if not blocked >> a & 1]
    return [w for w, _ in level]


def enumerate_lyndon(g: Graph, length: int) -> list[TraceWord]:
    """Standard words of all Lyndon traces of the given length, sorted."""
    return [w for w in standard_words(g, length) if is_lyndon(g, w)]


def _dependence_set(g: Graph, std: TraceWord) -> frozenset[int]:
    return frozenset(j for j in range(g.n) for i in std if i == j or not g.adjacent(i, j))


def standard_factorization(g: Graph, std: TraceWord) -> tuple[TraceWord, TraceWord]:
    """The split xy of a Lyndon trace into Lyndon traces x < y whose y has a
    single initial vertex, inside the dependence set of x, with y least."""
    candidates = [
        (x, y) for x, y in factorizations(g, std)
        if x < y and is_lyndon(g, x) and is_lyndon(g, y)
        and initial_vertices(g, y) <= _dependence_set(g, x)
    ]
    return min(candidates, key=lambda pair: pair[1])


def bracketing(g: Graph, std: TraceWord) -> str:
    """The rendered iterated commutator of a Lyndon trace."""
    if len(std) == 1:
        return f"v{std[0]}"
    x, y = standard_factorization(g, std)
    return f"[{bracketing(g, x)},{bracketing(g, y)}]"


def closed_form_lyndon(g: Graph, length: int) -> list[TraceClass]:
    """Lyndon traces of length 1, 2 or 3 read off directly from adjacency.

    Lengths 1 and 2 are the vertices and the non-adjacent increasing pairs.
    Length 3 comprises four families over non-commuting pairs: i i k, i j k
    with both j and k non-commuting with i, i j j, and i j k with j != k where
    k fails to commute with i or with j.
    """
    _check_length(length)
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
