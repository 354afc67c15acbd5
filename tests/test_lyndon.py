import itertools
import random

import pytest
from sympy import divisors, mobius

from raagcert import (
    InputError,
    ResourceError,
    bracketing,
    complete_graph,
    dependence_set,
    edgeless_graph,
    enumerate_lyndon,
    from_edges,
    initial_vertices,
    is_lyndon,
    path_graph,
    standard_factorization,
    support,
    trace_class,
)
from raagcert.lyndon import (
    LYNDON_MAX_LENGTH,
    LYNDON_MAX_WORDS,
    TraceClass,
    _class_words,
    _lyndon_candidates,
)

import trace_oracle as oracle
from trace_oracle import closed_form_lyndon
from conftest import classes, random_graph


@pytest.fixture
def mixed_graph():
    # three vertices where only the last two commute
    return from_edges(3, [(1, 2)])


def test_trace_class_examples(mixed_graph):
    m = trace_class(mixed_graph, (0, 1, 2))
    assert m.words() == {(0, 1, 2), (0, 2, 1)}
    assert m.std == (0, 2, 1)

    free = trace_class(edgeless_graph(3), (2, 0, 1))
    assert free.words() == {(2, 0, 1)} and free.std == (2, 0, 1)

    abelian = trace_class(complete_graph(2), (1, 0))
    assert abelian.std == (1, 0)
    assert trace_class(complete_graph(2), (0, 1)) == abelian


def test_transposition_is_not_transitive_without_closure(mixed_graph):
    # words 1.0.2 and 2.0.1 are conjugate traces but not single transposes
    m1 = trace_class(mixed_graph, (1, 0, 2))
    m3 = trace_class(mixed_graph, (2, 0, 1))
    transposed = set()
    for w in m1.words():
        for cut in range(1, len(w)):
            transposed.add(trace_class(mixed_graph, w[cut:] + w[:cut]).std)
    assert m3.std not in transposed


def test_trace_order():
    g = edgeless_graph(3)
    one = trace_class(g, ())
    assert one < trace_class(g, (0,))
    assert trace_class(g, (0,)) < trace_class(g, (1,))
    assert trace_class(g, (0,)) < trace_class(g, (0, 1))
    with pytest.raises(InputError):
        one < trace_class(edgeless_graph(2), (0,))


def test_is_lyndon_examples():
    g2 = edgeless_graph(2)
    assert is_lyndon(trace_class(g2, (0,)))
    assert is_lyndon(trace_class(g2, (1,)))
    assert not is_lyndon(trace_class(g2, (1, 0)))
    assert is_lyndon(trace_class(g2, (0, 1)))
    assert not is_lyndon(trace_class(g2, (0, 0)))
    with pytest.raises(InputError):
        is_lyndon(trace_class(g2, ()))


def test_enumerate_lyndon_small(monkeypatch):
    g = from_edges(4, [(0, 1), (2, 3)])
    pairs = [(i, j) for i, j in itertools.combinations(range(4), 2) if not g.adjacent(i, j)]
    assert [m.std for m in enumerate_lyndon(g, 2)] == pairs

    assert enumerate_lyndon(complete_graph(4), 2) == []
    assert [m.std for m in enumerate_lyndon(edgeless_graph(2), 3)] == [(0, 0, 1), (0, 1, 1)]
    with pytest.raises(ResourceError):
        enumerate_lyndon(edgeless_graph(2), 7)
    with pytest.raises(InputError):
        enumerate_lyndon(edgeless_graph(2), 0)

    # the word budget bounds n**length, inclusive
    monkeypatch.setattr("raagcert.lyndon.LYNDON_MAX_WORDS", 8)
    assert len(enumerate_lyndon(edgeless_graph(2), 3)) == 2  # exactly 2**3 words
    with pytest.raises(ResourceError):
        enumerate_lyndon(edgeless_graph(3), 2)


@pytest.mark.parametrize("function", [enumerate_lyndon, closed_form_lyndon])
@pytest.mark.parametrize("length", [2.0, True, "2", None], ids=["float", "bool", "str", "none"])
def test_length_must_be_an_exact_integer(function, length):
    with pytest.raises(InputError, match="exact integer"):
        function(edgeless_graph(3), length)


def test_closed_form_matches_enumeration_small(mixed_graph):
    from raagcert import cycle_graph

    graphs = [mixed_graph, path_graph(4), cycle_graph(5), complete_graph(3),
              edgeless_graph(3)]
    for g in graphs:
        for length in (1, 2, 3):
            assert closed_form_lyndon(g, length) == enumerate_lyndon(g, length)
    with pytest.raises(InputError):
        closed_form_lyndon(mixed_graph, 4)


def test_closed_form_le3_specific(mixed_graph):
    le3 = {m.std for m in closed_form_lyndon(edgeless_graph(2), 3)}
    assert le3 == {(0, 0, 1), (0, 1, 1)}
    # only the two vertices that fail to commute contribute, and 0.2.1 appears
    # as the standard representative of the class of 0.1.2
    le3 = {m.std for m in closed_form_lyndon(mixed_graph, 3)}
    assert (0, 2, 1) in le3
    le2 = closed_form_lyndon(cycle_graph_for_diagonals(), 2)
    assert [m.std for m in le2] == [(0, 2), (1, 3)]


def cycle_graph_for_diagonals():
    from raagcert import cycle_graph

    return cycle_graph(4)


def test_standard_factorization_and_bracketing():
    g = from_edges(3, [(1, 2)])  # 0 commutes with nothing
    m = trace_class(g, (0, 0, 1))
    x, y = standard_factorization(m)
    assert (x.std, y.std) == ((0,), (0, 1))
    assert str(bracketing(m)) == "[v0,[v0,v1]]"

    m = trace_class(g, (0, 1, 1))
    x, y = standard_factorization(m)
    assert (x.std, y.std) == ((0, 1), (1,))
    assert str(bracketing(m)) == "[[v0,v1],v1]"

    m = trace_class(g, (0, 1))
    assert tuple(c.std for c in standard_factorization(m)) == ((0,), (1,))
    assert bracketing(trace_class(g, (2,))).leaves() == (2,)

    with pytest.raises(InputError):
        standard_factorization(trace_class(g, (1, 0)))
    with pytest.raises(InputError):
        bracketing(trace_class(g, (1, 0)))


def test_bracketing_a_wide_heap():
    """0 commutes with nothing and 1..13 pairwise commute, so the heap of the
    trace of 0 1 ... 13 has 2**13 - 1 proper right factors; the least is the
    last letter alone at every level."""
    g = from_edges(14, itertools.combinations(range(1, 14), 2))
    m = trace_class(g, range(14))
    assert m.std == (0, *range(13, 0, -1))
    expected = "v0"
    for v in range(13, 0, -1):
        expected = f"[{expected},v{v}]"
    assert str(bracketing(m)) == expected


def test_bracket_leaves_spell_a_class_word():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, 4)
        for m in enumerate_lyndon(g, 3):
            assert bracketing(m).leaves() in m.words()


def _is_lyndon_by_recursive_criterion(g, std) -> bool:
    """Alternative characterization: length one, or a split into two smaller
    Lyndon traces x < y whose second part starts inside the dependence set of
    the first.  Factorizations and initial vertices come from the oracle."""
    if len(std) == 1:
        return True
    for x_std, y_std in oracle.factorizations(g, std):
        if not x_std < y_std:
            continue
        if not (_is_lyndon_by_recursive_criterion(g, x_std)
                and _is_lyndon_by_recursive_criterion(g, y_std)):
            continue
        inits = oracle.initial_vertices(g, y_std)
        if len(inits) == 1 and next(iter(inits)) in dependence_set(TraceClass(g, x_std)):
            return True
    return False


def test_lyndon_criteria_agree():
    for n in range(1, 5):
        for g in classes(n):
            for length in range(1, 5):
                for std in oracle.standard_words(g, length):
                    m = TraceClass(g, std)
                    assert is_lyndon(m) == _is_lyndon_by_recursive_criterion(g, std)


def _check_against_oracle(g, length, every_word=True):
    """Every query on every trace of ``length`` equals the oracle's;
    with ``every_word``, so does the standard word of every word."""
    stds = oracle.standard_words(g, length)
    assert oracle.anisimov_knuth_words(g, length) == stds
    lyndon = []
    for std in stds:
        m = TraceClass(g, std)
        expected = oracle.is_lyndon(g, std)
        assert is_lyndon(m) == expected, (g, std)
        assert initial_vertices(m) == oracle.initial_vertices(g, std), (g, std)
        if expected:
            lyndon.append(std)
    assert [m.std for m in enumerate_lyndon(g, length)] == lyndon
    for std in lyndon:
        m = TraceClass(g, std)
        if length > 1:
            x, y = standard_factorization(m)
            assert (x.std, y.std) == oracle.standard_factorization(g, std), (g, std)
        assert str(bracketing(m)) == oracle.bracketing(g, std), (g, std)
    if every_word:
        for word in itertools.product(range(g.n), repeat=length):
            assert trace_class(g, word).std == oracle.standard_word(g, word), (g, word)


@pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_heap_queries_match_oracle_on_every_class(n):
    for g in classes(n):
        for length in range(1, 6):
            _check_against_oracle(g, length)


def test_heap_queries_match_oracle_on_random_6_vertex_graphs():
    rng = random.Random(11)
    for _ in range(3):
        _check_against_oracle(random_graph(rng, 6), 5, every_word=False)


def _is_lyndon_word(w) -> bool:
    """The definition: nonempty and smaller than each proper suffix."""
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


def _lyndon_factors(w) -> list:
    """Chen–Fox–Lyndon factorization, by splitting off the longest Lyndon prefix."""
    factors = []
    while w:
        cut = max(i for i in range(1, len(w) + 1) if _is_lyndon_word(w[:i]))
        factors.append(w[:cut])
        w = w[cut:]
    return factors


def _shuffles(u, v) -> set:
    if not u or not v:
        return {u + v}
    return ({u[:1] + s for s in _shuffles(u[1:], v)}
            | {v[:1] + s for s in _shuffles(u, v[1:])})


def test_radford_lemma_on_three_letters():
    """A word whose Lyndon factors are l1 >= ... >= lk is the largest word of
    their shuffle product, the step of ``is_lyndon``'s proof that bounds w."""
    for length in range(1, 7):
        for w in itertools.product(range(3), repeat=length):
            factors = _lyndon_factors(w)
            assert all(a >= b for a, b in zip(factors, factors[1:])), w
            shuffled = {()}
            for f in factors:
                shuffled = {s for u in shuffled for s in _shuffles(u, f)}
            assert max(shuffled) == w, w


def test_word_lemma_by_brute_force():
    """If a Lyndon word w is a shuffle of nonempty p and q with p.q <= w, then
    q > w: every split of every Lyndon word, 2 letters up to length 9 and 3
    letters up to length 7."""
    splits = 0
    for letters, longest in ((2, 9), (3, 7)):
        for length in range(2, longest + 1):
            for w in itertools.product(range(letters), repeat=length):
                if not _is_lyndon_word(w):
                    continue
                for part in range(1, (1 << length) - 1):
                    p = tuple(a for i, a in enumerate(w) if part >> i & 1)
                    q = tuple(a for i, a in enumerate(w) if not part >> i & 1)
                    assert p + q > w or q > w, (w, p, q)
                    splits += 1
    assert splits == 87_492


def _check_against_heap_oracle(g, length):
    """``is_lyndon`` equals the heap oracle on every standard word, including
    those the pruned enumeration never builds, and the pruned enumeration
    equals every standard word filtered by ``is_lyndon``."""
    lyndon = []
    for std in oracle.anisimov_knuth_words(g, length):
        expected = oracle.is_lyndon_by_heap(g, std)
        assert is_lyndon(TraceClass(g, std)) == expected, (g, std)
        if expected:
            lyndon.append(std)
    found = enumerate_lyndon(g, length)
    assert [m.std for m in found] == lyndon, g
    return found


def test_is_lyndon_matches_heap_oracle_on_every_class():
    for n in range(1, 6):
        for g in classes(n):
            for length in range(1, 6):
                _check_against_heap_oracle(g, length)


@pytest.mark.slow
def test_is_lyndon_matches_heap_oracle_at_the_word_budget():
    sample = list(classes(6))
    rng = random.Random(29)
    for n in range(7, 11):
        sample += [random_graph(rng, n) for _ in range(5)]
    for g in sample:
        length = max(k for k in range(1, LYNDON_MAX_LENGTH + 1) if g.n**k <= LYNDON_MAX_WORDS)
        for m in _check_against_heap_oracle(g, length):
            assert len(initial_vertices(m)) == 1, (g, m.std)


def _no_suffix_below_prefix(w) -> bool:
    """No proper suffix of w is smaller than the prefix of w of its length,
    which holds iff w followed by a letter above all of its own is Lyndon."""
    return all(w[i:] >= w[:len(w) - i] for i in range(1, len(w)))


def test_candidates_are_the_standard_words_whose_prefixes_pass_the_scan():
    """The pruned build keeps exactly the standard words every prefix of which
    Duval's scan passes, in order; the scan fails on a prefix iff some proper
    suffix of it falls below the prefix of the same length."""
    for n in range(1, 6):
        for g in classes(n):
            for length in range(1, 6):
                expected = [w for w in oracle.standard_words(g, length)
                            if all(_no_suffix_below_prefix(w[:k]) for k in range(1, length + 1))]
                assert _lyndon_candidates(g, length) == expected, (g, length)


def test_enumeration_fills_no_class_cache():
    _class_words.cache_clear()
    g = random_graph(random.Random(5), 6)
    assert enumerate_lyndon(g, 5)
    assert _class_words.cache_info().currsize == 0


def test_initial_vertex_singleton_for_lyndon():
    for n in range(1, 6):
        for g in classes(n):
            for length in range(1, 6):
                for m in enumerate_lyndon(g, length):
                    assert len(initial_vertices(m)) == 1, (g, m.std)
                    assert support(m) <= set(range(g.n))


def necklace_count(alphabet: int, length: int) -> int:
    return sum(int(mobius(d)) * alphabet ** (length // d) for d in divisors(length)) // length


def test_free_ranks_match_necklace_counts():
    for n in (2, 3):
        g = edgeless_graph(n)
        for length in range(1, 6):
            assert len(enumerate_lyndon(g, length)) == necklace_count(n, length)


def _clique_polynomial(g, upto):
    # alternating clique count of the commutation graph, constant term 1
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for size in range(1, min(g.n, upto) + 1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.adjacent(u, v) for u, v in itertools.combinations(combo, 2)):
                coeffs[size] += (-1) ** size
    return coeffs


def _series_inverse(p, upto):
    inv = [0] * (upto + 1)
    inv[0] = 1
    for k in range(1, upto + 1):
        inv[k] = -sum(p[j] * inv[k - j] for j in range(1, min(k, len(p) - 1) + 1))
    return inv


def _trace_counts_direct(g, upto):
    return [1] + [len(oracle.standard_words(g, length)) for length in range(1, upto + 1)]


def test_trace_growth_three_ways():
    """Trace counts by direct dedup, by inverting the clique polynomial, and by
    the Euler product over Lyndon counts (unique non-increasing Lyndon
    factorization) must all agree."""
    from raagcert import cycle_graph

    upto = 5
    graphs = [path_graph(3), cycle_graph(4), cycle_graph(5), complete_graph(3),
              edgeless_graph(3), from_edges(3, [(1, 2)]),
              from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4)])]
    for g in graphs:
        direct = _trace_counts_direct(g, upto)
        mobius = _series_inverse(_clique_polynomial(g, upto), upto)
        euler = [1] + [0] * upto
        for length in range(1, upto + 1):
            for _ in range(len(enumerate_lyndon(g, length))):
                for k in range(length, upto + 1):
                    euler[k] += euler[k - length]
        assert direct == mobius == euler


def test_lyndon_counts_satisfy_the_clique_polynomial_identity():
    """prod_k (1 - t^k)^phi_k = P(-t) up to t^5 in exact integers, where phi_k
    counts Lyndon traces of length k and P(t) counts cliques by size."""
    upto = 5
    for n in range(1, 6):
        for g in classes(n):
            product = [1] + [0] * upto
            for length in range(1, upto + 1):
                for _ in range(len(enumerate_lyndon(g, length))):
                    for k in range(upto, length - 1, -1):
                        product[k] -= product[k - length]
            assert product == _clique_polynomial(g, upto), g


def test_standard_factorization_x_is_determined_by_minimal_y():
    for n in range(2, 5):
        for g in classes(n):
            for length in (2, 3, 4):
                for m in enumerate_lyndon(g, length):
                    x, y = standard_factorization(m)
                    others = {
                        xs
                        for xs, ys in oracle.factorizations(g, m.std)
                        if ys == y.std
                    }
                    assert others == {x.std}


def test_least_right_factor_is_the_least_proper_suffix():
    """Step (c) of the standard factorization proof: over every factorization
    of a Lyndon trace, the least right factor is the least proper suffix of
    its standard word, and exactly one factorization has it."""
    for n in range(1, 5):
        for g in classes(n):
            for length in range(2, 6):
                for std in oracle.enumerate_lyndon(g, length):
                    ys = [y for _, y in oracle.factorizations(g, std)]
                    least = min(std[i:] for i in range(1, length))
                    assert min(ys) == least and ys.count(least) == 1, (g, std)


def test_class_words_all_same_length():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng, 5)
        word = tuple(rng.randrange(5) for _ in range(4))
        words = trace_class(g, word).words()
        assert len({len(w) for w in words}) == 1
