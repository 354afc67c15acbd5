import functools
import itertools
import random

import pytest

from raagcert import (
    Graph,
    InputError,
    ResourceError,
    VertexSet,
    characteristic_closure,
    characteristic_closures,
    complement,
    complete_graph,
    complete_multipartite_graph,
    compose,
    cycle_graph,
    dominates,
    domination_closure,
    from_edges,
    from_graph6,
    induced,
    is_characteristic_vertex_set,
    is_transvection_free_graph,
    mba_characteristic_sets,
    mba_parameters,
    path_graph,
    petersen_graph,
    srg_parameters,
    to_graph6,
    transvection_free_vertices,
)
from raagcert.certify import RULES_BY_NAME
from raagcert.closures import _closure_mask, _refined_partitions
from raagcert.isomorphism import automorphisms, vertex_orbits

import closure_oracle as oracle
import graph_oracle
import symmetry_oracle
from conftest import classes, random_graph
from families import large_families


def test_domination_closure_examples():
    p3 = path_graph(3)
    assert list(domination_closure(p3, 0)) == [0, 1, 2]
    c5 = cycle_graph(5)
    assert all(list(domination_closure(c5, v)) == [v] for v in range(5))
    k4 = complete_graph(4)
    assert all(len(domination_closure(k4, v)) == 4 for v in range(4))


def test_characteristic_closure_examples():
    p3 = path_graph(3)
    assert list(characteristic_closure(p3, 1)) == [1]
    assert list(characteristic_closure(p3, 0)) == [0, 1, 2]
    c4 = cycle_graph(4)
    assert list(characteristic_closure(c4, 0)) == [0, 1, 2, 3]


def test_transvection_free_vertices():
    assert len(transvection_free_vertices(cycle_graph(5))) == 5
    assert len(transvection_free_vertices(cycle_graph(4))) == 0
    assert list(transvection_free_vertices(cycle_graph(4)).complement()) == [0, 1, 2, 3]


def test_transvection_free_graph():
    assert is_transvection_free_graph(cycle_graph(9))
    assert not is_transvection_free_graph(complete_graph(1))
    assert not is_transvection_free_graph(cycle_graph(4))
    assert is_transvection_free_graph(petersen_graph())


def test_srg_transvection_dichotomy():
    cases = [petersen_graph(), complete_multipartite_graph([2, 2]),
             complete_multipartite_graph([3, 3])]
    for n in range(2, 7):
        cases.extend(g for g in classes(n) if srg_parameters(g) is not None)
    for g in cases:
        n, k, lam, mu = srg_parameters(g)
        admitting = transvection_free_vertices(g).complement()
        if lam < k - 1 and mu < k:
            assert len(admitting) == 0
        else:
            assert len(admitting) == g.n


def test_is_characteristic_vertex_set():
    for g in (path_graph(4), cycle_graph(6), petersen_graph()):
        assert is_characteristic_vertex_set(g, g.max_degree_vertices())
        assert is_characteristic_vertex_set(g, transvection_free_vertices(g))
    p3 = path_graph(3)
    assert not is_characteristic_vertex_set(p3, VertexSet.of([0], 3))
    # the orbit search's size limits hold even where refinement would answer
    with pytest.raises(ResourceError):
        is_characteristic_vertex_set(cycle_graph(11), VertexSet.of(range(11), 11))
    with pytest.raises(InputError):
        is_characteristic_vertex_set(Graph(0, ()), VertexSet(0, 0))


def test_every_closure_is_characteristic_on_small_classes():
    for n in range(1, 6):
        for g in classes(n):
            for v in range(g.n):
                s = characteristic_closure(g, v)
                assert is_characteristic_vertex_set(g, s)


def test_union_of_characteristic_sets_is_characteristic():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng, 6)
        s1 = characteristic_closure(g, rng.randrange(6))
        s2 = characteristic_closure(g, rng.randrange(6))
        assert is_characteristic_vertex_set(g, s1.union(s2))


def test_closure_degrees_monotone():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, 7)
        v = rng.randrange(7)
        for w in characteristic_closure(g, v):
            assert g.degree(w) >= g.degree(v)


def test_closure_is_domination_closed_and_aut_invariant():
    rng = random.Random(13)
    for _ in range(15):
        g = random_graph(rng, 6)
        v = rng.randrange(6)
        s = characteristic_closure(g, v)
        for u in s:
            for w in range(g.n):
                if w != u and dominates(g, u, w):
                    assert w in s
        for perm in automorphisms(g):
            assert {perm[u] for u in s} == set(s)


def test_mba_characteristic_sets(fig_mba_5_4_3, fig_mba_7_5_4):
    sets = mba_characteristic_sets(path_graph(3))
    assert list(sets.link_intersection) == [1]

    # lone non-maximal vertex: the intersection reduces to its link
    sets = mba_characteristic_sets(fig_mba_5_4_3)
    assert sets.link_intersection == fig_mba_5_4_3.link(0)

    sets = mba_characteristic_sets(fig_mba_7_5_4)
    assert list(sets.max_degree_linked) == [2, 3, 6]
    assert 2 in sets.link_intersection  # the vertex adjacent to both low-degree ones

    with pytest.raises(InputError):
        mba_characteristic_sets(cycle_graph(5))


def test_mba_sets_are_characteristic_and_bounded():
    for n in range(2, 7):
        for g in classes(n):
            if g.is_regular():
                continue
            top = g.max_degree_vertices()
            sets = mba_characteristic_sets(g)
            assert is_characteristic_vertex_set(g, sets.link_intersection)
            assert is_characteristic_vertex_set(g, sets.max_degree_linked)
            if mba_parameters(g) is not None:
                assert sets.link_intersection.mask != top.mask
                assert sets.link_intersection.issubset(top)
                assert len(sets.max_degree_linked) > 0


def test_transvection_freeness_closure_small():
    c5, c6 = cycle_graph(5), cycle_graph(6)
    for a, b in itertools.product((c5, c6), repeat=2):
        assert is_transvection_free_graph(compose(a, b, "disjoint_union"))
        assert is_transvection_free_graph(compose(a, b, "simplicial_join"))
    assert is_transvection_free_graph(complement(c5))
    assert is_transvection_free_graph(complement(c6))


def test_mba_reductions_delete_the_mba_sets(fig_mba_5_4_3, fig_mba_7_5_4):
    (lone,) = RULES_BY_NAME["MBA_K_N1"].reductions(fig_mba_5_4_3)
    assert lone.deleted == mba_characteristic_sets(fig_mba_5_4_3).link_intersection
    assert lone.deleted == fig_mba_5_4_3.link(0)
    (pair,) = RULES_BY_NAME["MBA_K_N2_QUOTIENT"].reductions(fig_mba_7_5_4)
    assert pair.deleted == mba_characteristic_sets(fig_mba_7_5_4).link_intersection
    assert list(pair.deleted) == [2]


# -- the closed forms against the searches they replaced ------------------------


def _assert_closures_match_oracle(g):
    for v in range(g.n):
        assert domination_closure(g, v) == oracle.domination_closure(g, v), (g, v)
    assert transvection_free_vertices(g) == oracle.transvection_free_vertices(g), g


def test_closure_mask_matches_oracle():
    # the AND of the stars stops at the first one that leaves v alone
    graphs = [g for n in range(1, 7) for g in classes(n)]
    graphs += [g for seed in (7, 101) for _, g in large_families(seed)]
    for g in graphs:
        for v in range(g.n):
            assert _closure_mask(g, v) == oracle.domination_closure(g, v).mask, (g, v)


def test_closures_match_oracle_on_small_classes():
    for n in range(1, 7):
        for g in classes(n):
            _assert_closures_match_oracle(g)


@pytest.mark.slow
def test_closures_match_oracle_on_seven_vertex_classes():
    for g in classes(7):
        _assert_closures_match_oracle(g)


def _char_closure_deletions_by_oracle(g):
    """Deleted sets of CHAR_CLOSURE_GENERIC, in the order the rule tries them,
    from the oracle's closures swept through the full automorphism list."""
    auts = symmetry_oracle.automorphisms(g)
    masks = {}
    for v in range(g.n):
        masks.setdefault(sum({1 << perm[u] for u in oracle.domination_closure(g, v)
                              for perm in auts}))
    masks.setdefault(oracle.transvection_free_vertices(g).mask)
    return [VertexSet(mask, g.n) for mask in masks
            if 0 < mask.bit_count() <= g.n - 2
            and not induced(g, VertexSet(mask, g.n).complement()).is_complete()]


def test_char_closure_rule_runs_one_orbit_search(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return vertex_orbits(g)

    monkeypatch.setattr("raagcert.closures.vertex_orbits", counting)
    rule = RULES_BY_NAME["CHAR_CLOSURE_GENERIC"]
    g = cycle_graph(10)
    reductions = list(rule.reductions(g))
    assert len(calls) == 1
    assert [r.deleted for r in reductions] == _char_closure_deletions_by_oracle(g)


def test_char_closure_rule_reductions_match_oracle():
    rule = RULES_BY_NAME["CHAR_CLOSURE_GENERIC"]
    graphs = [g for n in range(1, 7) for g in classes(n)] + [petersen_graph()]
    for g in graphs:
        closures = characteristic_closures(g)
        assert closures == tuple(characteristic_closure(g, v) for v in range(g.n))
        reductions = list(rule.reductions(g))
        assert [r.deleted for r in reductions] == _char_closure_deletions_by_oracle(g), g
        for r in reductions:
            assert r.children == (induced(g, r.deleted.complement()),)


def _gnp(rng, n, p):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _threshold(rng, n):
    """Each new vertex is isolated or joined to every earlier vertex."""
    rows = [0]
    for v in range(1, n):
        if rng.random() < 0.5:
            rows = [row | 1 << v for row in rows] + [(1 << v) - 1]
        else:
            rows.append(0)
    return Graph(n, tuple(rows))


def _max_by_abelian(rng, n, low):
    """Max-by-abelian graph with ``low`` (1 or 2) adjacent vertices of
    non-maximal degree, n - low and n - low + 1: the m = n - low high vertices
    form a complete graph from which, for each low vertex, a perfect matching
    on that vertex's (even-sized) link is removed, so every high vertex keeps
    degree m - 1."""
    m = n - low
    while True:
        links = [rng.sample(range(m), 2 * rng.randint(1, (m - 3) // 2)) for _ in range(low)]
        matchings = [{frozenset(link[i:i + 2]) for i in range(0, len(link), 2)} for link in links]
        if low == 1 or not matchings[0] & matchings[1]:
            break
    removed = set().union(*matchings)
    edges = [(u, v) for u, v in itertools.combinations(range(m), 2)
             if frozenset((u, v)) not in removed]
    for i, link in enumerate(links):
        edges += [(m + i, u) for u in link]
    if low == 2:
        edges.append((m, m + 1))
    return from_edges(n, edges)


def _sixty_four_vertex_families(rng):
    def parts():
        out = []
        while sum(out) < 64:
            out.append(min(rng.randint(1, 12), 64 - sum(out)))
        return out

    for _ in range(2):
        a = rng.randint(1, 63)
        yield compose(_gnp(rng, a, 0.5), _gnp(rng, 64 - a, 0.5), "simplicial_join")
        yield compose(_gnp(rng, a, 0.5), _gnp(rng, 64 - a, 0.5), "disjoint_union")
        yield _shuffled(rng, _threshold(rng, 64))
        yield _shuffled(rng, complete_multipartite_graph(parts()))
        for low in (1, 2):
            g = _max_by_abelian(rng, 64, low)
            assert mba_parameters(g) == (64, 64 - low, 63 - low)
            yield _shuffled(rng, g)
        for p in (0.05, 0.5, 0.95):
            yield _gnp(rng, 64, p)


def test_closures_match_oracle_on_64_vertex_families():
    for g in _sixty_four_vertex_families(random.Random(20261018)):
        _assert_closures_match_oracle(g)


def _assert_vertex_queries_match_oracle(g):
    assert transvection_free_vertices(g) == oracle.transvection_free_vertices(g), g
    assert is_transvection_free_graph(g) == oracle.is_transvection_free_graph(g), g
    assert g.max_degree_vertices() == graph_oracle.max_degree_vertices(g), g


def test_vertex_queries_match_oracle_on_seven_vertex_classes():
    rng = random.Random(7)
    for n in range(1, 8):
        for g in classes(n):
            _assert_vertex_queries_match_oracle(g)
            _assert_vertex_queries_match_oracle(_shuffled(rng, g))


def test_vertex_queries_match_oracle_on_64_vertex_families():
    graphs = list(_sixty_four_vertex_families(random.Random(20261018)))
    # transvection-free on 64 vertices: disjoint unions and joins of cycles
    graphs += [compose(cycle_graph(30), cycle_graph(34), "disjoint_union"),
               compose(cycle_graph(30), cycle_graph(34), "simplicial_join")]
    assert any(is_transvection_free_graph(g) for g in graphs)
    for g in graphs:
        _assert_vertex_queries_match_oracle(g)


def _assert_characteristic_test_matches_oracle(monkeypatch, sizes):
    # one orbit search per graph for the code under test, one automorphism
    # list per graph for the oracle
    monkeypatch.setattr("raagcert.closures.vertex_orbits",
                        functools.lru_cache(maxsize=None)(vertex_orbits))
    pairs = 0
    for n in sizes:
        for g in classes(n):
            auts = symmetry_oracle.automorphisms(g)
            for mask in range(1 << n):
                s = VertexSet(mask, n)
                expected = oracle.is_characteristic_vertex_set(g, s, auts)
                assert is_characteristic_vertex_set(g, s) == expected, (g, s)
                pairs += 1
    return pairs


def test_characteristic_test_matches_oracle_on_every_small_subset(monkeypatch):
    assert _assert_characteristic_test_matches_oracle(monkeypatch, range(1, 6)) == 1306


@pytest.mark.slow
def test_characteristic_test_matches_oracle_on_every_seven_vertex_subset(monkeypatch):
    assert _assert_characteristic_test_matches_oracle(monkeypatch, range(1, 8)) == 144922


# -- orbits settled by colour refinement --------------------------------------------


def test_orbits_lie_inside_every_refined_cell():
    coarser = []
    for n in range(1, 8):
        for g in classes(n):
            orbits = set(vertex_orbits(g))
            for cells in _refined_partitions(g):
                assert all(any((orbit & ~cell) == 0 for cell in cells) for orbit in orbits), g
            if set(cells) != orbits:  # the last round is the stable partition
                coarser.append(to_graph6(g))
    # C3 + C4 and its complement: the only classes with n <= 7 that need the search
    assert coarser == ["FCdb?", "FFzvO"]


@pytest.mark.parametrize("text, triangle, square", [
    ("FCdb?", [0, 3, 4], [1, 2, 5, 6]),
    ("G?aJB?", [0, 4, 5], [1, 2, 6, 7]),
])
def test_characteristic_test_falls_back_to_orbits(monkeypatch, text, triangle, square):
    # C3 + C4 and C3 + C4 + K1: every vertex of a cycle has degree 2 and two
    # neighbours of degree 2, so refinement never separates the triangle from
    # the square, and only the orbit search shows each is characteristic
    g = from_graph6(text)
    calls = []

    def counted(h):
        calls.append(h)
        return vertex_orbits(h)

    monkeypatch.setattr("raagcert.closures.vertex_orbits", counted)
    for part in (triangle, square):
        s = VertexSet.of(part, g.n)
        assert not any(all((cell & s.mask) in (0, cell) for cell in cells)
                       for cells in _refined_partitions(g))
        calls.clear()
        assert is_characteristic_vertex_set(g, s)
        assert len(calls) == 1
    auts = symmetry_oracle.automorphisms(g)
    for mask in range(1 << g.n):
        s = VertexSet(mask, g.n)
        assert is_characteristic_vertex_set(g, s) == oracle.is_characteristic_vertex_set(
            g, s, auts), s

