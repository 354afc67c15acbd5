import collections
import hashlib
import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from raagcert import (
    Graph,
    InputError,
    ResourceError,
    complement,
    complete_graph,
    complete_multipartite_graph,
    compose,
    cycle_graph,
    edgeless_graph,
    from_edges,
    mba_parameters,
    path_graph,
    petersen_graph,
    srg_parameters,
    to_graph6,
)
from raagcert.isomorphism import (
    are_isomorphic,
    automorphisms,
    canonical_form,
    canonical_relabelled,
    compose_permutations,
    enumerate_graphs,
    invert_permutation,
    is_automorphism,
    vertex_orbits,
)
from raagcert.cli import main
from raagcert.graphs import _graph6_from_columns
from raagcert import isomorphism
from raagcert.isomorphism import (
    _canonical_search,
    _extension,
    _extension_colours,
    _isomorphism,
    _orbit_least_masks,
    shared_searches,
)

import enumeration_oracle
import symmetry_oracle as oracle
from conftest import classes, counted_searches, random_graph


def test_automorphism_counts():
    assert len(automorphisms(complete_graph(4))) == 24
    assert len(automorphisms(edgeless_graph(4))) == 24
    assert automorphisms(path_graph(3)) == [(0, 1, 2), (2, 1, 0)]
    assert len(automorphisms(cycle_graph(5))) == 10
    assert len(automorphisms(petersen_graph())) == 120


def test_automorphisms_form_a_group():
    for g in (path_graph(4), cycle_graph(5), from_edges(5, [(0, 1), (1, 2), (1, 3)])):
        auts = automorphisms(g)
        aut_set = set(auts)
        assert tuple(range(g.n)) in aut_set
        for a, b in itertools.product(auts, repeat=2):
            assert compose_permutations(a, b) in aut_set
        for a in auts:
            assert invert_permutation(a) in aut_set
            assert is_automorphism(g, a)


def _preserves_adjacency_pairwise(g, perm):
    return sorted(perm) == list(range(g.n)) and all(
        g.adjacent(u, v) == g.adjacent(perm[u], perm[v])
        for u, v in itertools.combinations(range(g.n), 2))


def test_is_automorphism_matches_pairwise_definition():
    maps = 0
    for n in range(1, 5):
        for g in classes(n):
            for perm in itertools.product(range(n), repeat=n):
                assert is_automorphism(g, perm) == _preserves_adjacency_pairwise(g, perm), (g, perm)
                maps += 1
            for perm in ((), tuple(range(n - 1)), tuple(range(n + 1)), (0,) * (n + 1)):
                assert not is_automorphism(g, perm)
    for g in classes(5):
        for perm in itertools.permutations(range(5)):
            expected = _preserves_adjacency_pairwise(g, perm)
            assert is_automorphism(g, perm) == is_automorphism(g, list(perm)) == expected, (g, perm)
            maps += 1
    assert maps == 1 * 1 + 2 * 4 + 4 * 27 + 11 * 256 + 34 * 120


def test_is_automorphism_rejects_non_int_entries():
    assert is_automorphism(cycle_graph(4), (0, 1, 2, 3))
    assert not is_automorphism(cycle_graph(4), (0.0, 1.0, 2.0, 3.0))
    assert not is_automorphism(cycle_graph(4), (0, 1, 2, 3.0))
    assert not is_automorphism(edgeless_graph(2), (False, True))


def test_is_automorphism_rejects_non_permutations_without_edges():
    # the edge loop has nothing to check, so the permutation check decides
    g = edgeless_graph(3)
    assert is_automorphism(g, (2, 0, 1)) and is_automorphism(g, [2, 0, 1])
    for perm in ((0, 0, 1), [1, 1, 1], (0, 1, 3), (-1, 0, 1), (0, 1), (0, 1, 2, 3), (),
                 (0, 1, 2.0), (True, False, 2)):
        assert not is_automorphism(g, perm), perm
    assert not is_automorphism(edgeless_graph(1), (1,))


def test_edge_cache_keeps_graphs_apart():
    # the same vertex and edge counts, different edges: a stale edge list
    # would check each graph against another's edges
    graphs = (
        cycle_graph(4),
        from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]),
        from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    )
    for perm in itertools.permutations(range(4)):
        for g in graphs:
            assert is_automorphism(g, perm) == _preserves_adjacency_pairwise(g, perm), (g, perm)


def test_is_automorphism_on_64_vertices():
    # a circulant on Z_64 has the rotations and the reflection i -> -i as
    # automorphisms; relabelled by sigma, they become sigma rho sigma^-1
    rng = random.Random(64)
    n = 64
    steps = {k for k in range(1, n // 2 + 1) if rng.random() < 0.5}
    g = from_edges(n, [(i, (i + k) % n) for i in range(n) for k in steps])
    sigma = list(range(n))
    rng.shuffle(sigma)
    h = g.relabel(sigma)
    inverse = invert_permutation(sigma)
    for k in range(0, n, 5):
        for rho in ([(v + k) % n for v in range(n)], [(k - v) % n for v in range(n)]):
            tau = compose_permutations(sigma, compose_permutations(rho, inverse))
            assert is_automorphism(h, tau) and _preserves_adjacency_pairwise(h, tau)
            near = list(tau)
            i, j = rng.sample(range(n), 2)
            near[i], near[j] = near[j], near[i]
            assert is_automorphism(h, near) == _preserves_adjacency_pairwise(h, near)
    for _ in range(10):
        perm = list(range(n))
        rng.shuffle(perm)
        assert is_automorphism(h, perm) == _preserves_adjacency_pairwise(h, perm)


def test_automorphism_count_matches_networkx():
    rng = random.Random(7)
    pool = [random_graph(rng, rng.randint(2, 6)) for _ in range(12)]
    pool += [cycle_graph(6), petersen_graph()]
    for g in pool:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        matcher = nx.algorithms.isomorphism.GraphMatcher(h, h)
        assert len(automorphisms(g)) == sum(1 for _ in matcher.isomorphisms_iter())


def test_canonical_form_basics():
    c4a = cycle_graph(4)
    c4b = from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert canonical_form(c4a) == canonical_form(c4b)
    assert canonical_form(path_graph(3)) != canonical_form(complete_graph(3))
    relabelled = canonical_relabelled(c4b)
    assert are_isomorphic(relabelled, c4a)


def test_canonical_form_petersen_vs_kneser():
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    kneser = from_edges(
        10,
        [
            (index[a], index[b])
            for a, b in itertools.combinations(pairs, 2)
            if not set(a) & set(b)
        ],
    )
    assert canonical_form(kneser) == canonical_form(petersen_graph())
    triangular = complement(kneser)
    assert canonical_form(triangular) != canonical_form(petersen_graph())


def test_isomorphism_is_equivalence_and_invariant():
    rng = random.Random(99)
    sample = [random_graph(rng, 6) for _ in range(8)]
    for g in sample:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(tuple(perm))
        assert are_isomorphic(g, h)
        assert g.degree_sequence() == h.degree_sequence()
        assert srg_parameters(g) == srg_parameters(h)
        assert mba_parameters(g) == mba_parameters(h)
    for a, b in itertools.combinations(sample, 2):
        assert are_isomorphic(a, b) == are_isomorphic(b, a)


def test_enumerate_counts():
    assert [len(classes(n)) for n in range(1, 6)] == [1, 2, 4, 11, 34]
    for n in range(1, 6):
        complete_count = sum(1 for g in classes(n) if g.is_complete())
        assert complete_count == 1


def test_enumerate_against_brute_force():
    for n in range(1, 6):
        keys = set()
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            keys.add(canonical_form(from_edges(n, edges)))
        assert keys == {canonical_form(g) for g in classes(n)}


def test_enumerate_orbit_counting_identity():
    for n in range(2, 7):
        labelled = sum(
            math.factorial(n) // len(automorphisms(g)) for g in classes(n)
        )
        assert labelled == 2 ** (n * (n - 1) // 2)


def _partitions(n, most=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _burnside_count(n: int) -> int:
    """Graphs on n vertices up to isomorphism: by Burnside's lemma, the mean
    over S_n of 2 ** (orbits of a permutation on vertex pairs), summed over
    cycle types (Harary–Palmer, *Graphical Enumeration*, 1973)."""
    total = Fraction(0)
    for cycles in _partitions(n):
        orbits = (sum(k // 2 for k in cycles)
                  + sum(math.gcd(a, b) for a, b in itertools.combinations(cycles, 2)))
        centralizer = math.prod(k**m * math.factorial(m)
                                for k, m in collections.Counter(cycles).items())
        total += Fraction(2**orbits, centralizer)
    assert total.denominator == 1
    return int(total)


def test_burnside_count_matches_oeis_a000088():
    assert [_burnside_count(n) for n in range(1, 11)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]


# networkx warns that its hash values changed in 3.5; only bucket equality is used
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_enumeration_is_complete_by_counting(n):
    """As many classes as Burnside's count, pairwise non-isomorphic by
    networkx (Weisfeiler–Lehman hash buckets, then a full check within each),
    so the enumeration misses no class, independently of raagcert's search."""
    found = classes(n)
    assert len(found) == _burnside_count(n)
    buckets = {}
    for g in found:
        h = _networkx(g)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            assert not nx.is_isomorphic(a, b)


def test_enumeration_matches_atlas_totals(graph_classes):
    from networkx.generators.atlas import graph_atlas_g

    atlas_counts = {}
    for g in graph_atlas_g():
        atlas_counts[g.number_of_nodes()] = atlas_counts.get(g.number_of_nodes(), 0) + 1
    for n in range(1, 8):
        assert len(graph_classes(n)) == atlas_counts[n]


def test_complement_preserves_automorphism_count():
    for n in range(2, 7):
        for g in classes(n):
            assert len(automorphisms(g)) == len(automorphisms(complement(g)))


def _lexmin_order_oracle(g: Graph) -> tuple[int, ...]:
    """Unpruned search for the canonical ordering: every vertex at every
    position, cut only where the column prefix already exceeds the best."""
    n = g.n
    rows = g.rows
    best_cols = None
    best_order = None
    order = []
    cols = []
    used = [False] * n

    def extend(p):
        nonlocal best_cols, best_order
        if p == n:
            if best_cols is None or cols < best_cols:
                best_cols = cols.copy()
                best_order = order.copy()
            return
        for u in range(n):
            if used[u]:
                continue
            col = 0
            for w in order:
                col = col << 1 | (rows[u] >> w & 1)
            cols.append(col)
            if best_cols is None or cols <= best_cols[: len(cols)]:
                used[u] = True
                order.append(u)
                extend(p + 1)
                order.pop()
                used[u] = False
            cols.pop()

    extend(0)
    return invert_permutation(best_order)


def _assert_matches_oracle(g):
    # the ordering itself, not just the relabelled graph
    assert _canonical_search(g)[0] == _lexmin_order_oracle(g), g


def _all_extensions(top):
    for n in range(1, top + 1):
        for h in classes(n):
            for mask in range(1 << n):
                yield _extension(h, mask)


def test_canonical_order_matches_oracle_on_all_extensions():
    count = 0
    for g in _all_extensions(5):
        _assert_matches_oracle(g)
        count += 1
    assert count == 1306


@pytest.mark.slow
def test_canonical_order_matches_oracle_on_all_seven_vertex_extensions():
    count = 0
    for g in _all_extensions(6):
        _assert_matches_oracle(g)
        count += 1
    assert count == 11290


def _circulant(n, steps):
    return from_edges(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


def _shuffled_families():
    rng = random.Random(20261018)
    pool = [petersen_graph(), complete_multipartite_graph([2, 2, 2, 2, 2])]
    for n in (8, 9, 10):
        pool.append(cycle_graph(n))
        pool.append(_circulant(n, rng.sample(range(1, n // 2 + 1), 2)))
        pool.append(_circulant(n, rng.sample(range(1, n // 2 + 1), 3)))
        for p in (0.15, 0.3, 0.5, 0.7, 0.85):
            for _ in range(3):
                pool.append(from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                           if rng.random() < p]))
    for g in pool:
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g.relabel(perm)


def test_canonical_order_matches_oracle_on_shuffled_families():
    for g in _shuffled_families():
        _assert_matches_oracle(g)


def test_search_columns_pack_the_canonical_graph6():
    # enumeration keys each extension by its packed columns, so they must be
    # the graph6 of the canonically relabelled graph
    graphs = list(_all_extensions(5))
    assert len(graphs) == 1306
    for g in graphs + list(_shuffled_families()):
        order, _, columns = _canonical_search(g)
        assert _graph6_from_columns(g.n, columns) == to_graph6(g.relabel(order)), g


def test_canonical_form_of_large_twin_classes():
    # each took 13-17 s under the unpruned search; the forms were checked
    # against the oracle once
    assert canonical_form(edgeless_graph(10)) == b"I????????"
    assert canonical_form(complete_graph(10)) == b"I~~~~~~~w"
    assert canonical_form(complete_multipartite_graph([5, 5])) == b"I?B~vrw}?"


def _assert_isolated_vertices_come_first(g):
    order, _, columns = _canonical_search(g)
    isolated = [v for v, row in enumerate(g.rows) if not row]
    assert [order[v] for v in isolated] == list(range(len(isolated))), g
    assert columns[:len(isolated)] == (0,) * len(isolated), g


def test_isolated_vertices_come_first_in_ascending_order():
    rng = random.Random(18)
    for n in range(1, 8):
        for g in classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            _assert_isolated_vertices_come_first(g)
            _assert_isolated_vertices_come_first(g.relabel(perm))


@pytest.mark.slow
def test_isolated_vertices_come_first_on_eight_vertex_classes():
    for g in classes(8):
        _assert_isolated_vertices_come_first(g)


def test_search_with_isolated_vertices_lifts_the_search_without_them():
    # G ⊔ kK1 puts G's isolated vertices, then the k new ones, then the rest
    # of G in G's order, and its columns are G's behind k zeros
    for n in range(1, 7):
        for g in classes(n):
            order, _, columns = _canonical_search(g)
            orbits = vertex_orbits(g)
            isolated = sum(not row for row in g.rows)
            for k in range(1, 4):
                h = compose(g, edgeless_graph(k), "disjoint_union")
                lifted = tuple(p + k if row else p for p, row in zip(order, g.rows))
                lifted += tuple(range(isolated, isolated + k))
                assert _canonical_search(h)[::2] == (lifted, (0,) * k + columns), (g, k)
                # the generators still give Aut(g) times the isolated vertices' symmetric group
                together = sum(1 << v for v, row in enumerate(h.rows) if not row)
                expected = [orbit if row else together for orbit, row in zip(orbits, g.rows)]
                assert vertex_orbits(h) == tuple(expected + [together] * k), (g, k)


def test_orbit_least_masks_one_per_orbit():
    for n in range(1, 6):
        for h in classes(n):
            auts = oracle.automorphisms(h)
            masks = _orbit_least_masks(n, _canonical_search(h)[1])
            # Burnside: the orbits on subsets average 2^(cycles) over the group
            burnside = sum(2 ** _cycle_count(a) for a in auts) // len(auts)
            assert len(masks) == burnside
            for mask in masks:
                for a in auts:
                    assert sum(1 << a[v] for v in range(n) if mask >> v & 1) >= mask


def _cycle_count(perm):
    seen = set()
    cycles = 0
    for v in range(len(perm)):
        if v not in seen:
            cycles += 1
            while v not in seen:
                seen.add(v)
                v = perm[v]
    return cycles


# -- the group, orbits and mask orbits against the backtracking search ----------


def _assert_symmetry_matches_oracle(g):
    auts = oracle.automorphisms(g)
    assert automorphisms(g) == auts, g
    assert vertex_orbits(g) == oracle.vertex_orbits(g, auts), g
    generators = _canonical_search(g)[1]
    assert _orbit_least_masks(g.n, generators) == oracle.orbit_least_masks(g, auts), g


def test_symmetry_matches_oracle_on_small_classes():
    for n in range(1, 7):
        for g in classes(n):
            _assert_symmetry_matches_oracle(g)


@pytest.mark.slow
def test_symmetry_matches_oracle_on_seven_vertex_classes():
    for g in classes(7):
        _assert_symmetry_matches_oracle(g)


def test_symmetry_matches_oracle_on_shuffled_families():
    for g in _shuffled_families():
        _assert_symmetry_matches_oracle(g)


def test_enumerate_representatives_unchanged_by_orbit_skipping():
    assert [len(classes(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    # the representatives and their order, graph6 per line, as first emitted
    # when every mask of every parent was tried
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in classes(n):
            digest.update((to_graph6(g) + "\n").encode("ascii"))
    assert digest.hexdigest() == (
        "f6c2c0432761b45390c08c30d49e3fce9bbc211f7c71eb606d908b75360f50a3")
    # level 7 extends the n = 6 classes once per orbit of masks
    assert sum(len(_orbit_least_masks(6, _canonical_search(h)[1])) for h in classes(6)) == 5096


# -- enumeration: one canonical search per class ---------------------------------


def test_enumerate_matches_oracle():
    for n in range(1, 8):
        assert list(classes(n)) == enumeration_oracle.enumerate_graphs(n), n


@pytest.mark.slow
def test_enumerate_n8_matches_oracle():
    assert list(classes(8)) == enumeration_oracle.enumerate_graphs(8)


def test_enumerate_runs_one_canonical_search_per_class(monkeypatch):
    searches = []
    mappings = []
    search, check = isomorphism._canonical_search, isomorphism._isomorphism

    def counted_search(g):
        searches.append(g)
        return search(g)

    def counted_check(*args):
        mapping = check(*args)
        mappings.append(mapping)
        return mapping

    monkeypatch.setattr(isomorphism, "_canonical_search", counted_search)
    monkeypatch.setattr(isomorphism, "_isomorphism", counted_check)
    enumerate_graphs(7)
    # the classes on 2..7 vertices, each searched once
    assert len(searches) == 2 + 4 + 11 + 34 + 156 + 1044 == 1251
    # every other extension is matched by the first check it gets
    assert len(mappings) == 4507
    assert None not in mappings


def test_extension_colours_match_oracle():
    for n in range(1, 6):
        for h in classes(n):
            colours = enumeration_oracle.vertex_colours(h)
            for mask in range(1 << n):
                assert _extension_colours(h, colours, mask) == enumeration_oracle.vertex_colours(
                    _extension(h, mask)), (h, mask)


def _check_isomorphism(a, b):
    """``_isomorphism`` on ``a`` and ``b``, with every pair of a returned
    mapping checked."""
    a_colours = enumeration_oracle.vertex_colours(a)
    b_colours = enumeration_oracle.vertex_colours(b)
    mapping = _isomorphism(a, a_colours, b, b_colours)
    if mapping is not None:
        assert sorted(mapping) == list(range(b.n))
        assert [b_colours[u] for u in mapping] == a_colours
        for u, v in itertools.combinations(range(a.n), 2):
            assert a.adjacent(u, v) == b.adjacent(mapping[u], mapping[v]), (a, b, mapping)
    return mapping


def _networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_isomorphism_finds_relabelled_classes():
    rng = random.Random(14)
    for n in range(1, 8):
        for g in classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            assert _check_isomorphism(g.relabel(perm), g) is not None, (g, perm)


def _cube():
    return from_edges(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                          if (u ^ v).bit_count() == 1])


def _wagner():
    return from_edges(8, [(i, (i + d) % 8) for i in range(8) for d in (1, 4)])


def test_isomorphism_agrees_with_networkx_within_buckets():
    two_squares = from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                             + [(4 + i, 4 + (i + 1) % 4) for i in range(4)])
    named = [(cycle_graph(8), two_squares), (_cube(), _wagner())]
    rng = random.Random(8)
    pairs = list(itertools.combinations(range(8), 2))
    buckets = {}
    for a, b in named:
        for g in (a, b, a.relabel(rng.sample(range(8), 8))):
            buckets.setdefault(tuple(sorted(enumeration_oracle.vertex_colours(g))), []).append(g)
    for _ in range(400):
        g = from_edges(8, rng.sample(pairs, 8))
        buckets.setdefault(tuple(sorted(enumeration_oracle.vertex_colours(g))), []).append(g)
    outcomes = {True: 0, False: 0}
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            found = _check_isomorphism(a, b) is not None
            assert found == nx.is_isomorphic(_networkx(a), _networkx(b)), (a, b)
            outcomes[found] += 1
    for a, b in named:
        assert sorted(enumeration_oracle.vertex_colours(a)) == sorted(
            enumeration_oracle.vertex_colours(b))
        assert _check_isomorphism(a, b) is None
    assert outcomes[True] > 500 and outcomes[False] > 70


# -- one search per labelled graph within a shared_searches() scope ---------------


def _symmetry(g):
    return automorphisms(g), vertex_orbits(g), canonical_relabelled(g)


def test_shared_searches_change_no_result(monkeypatch):
    rng = random.Random(15)
    graphs = []
    for n in range(1, 7):
        for g in classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs += [g, g.relabel(perm)]
    levels = [list(classes(n)) for n in range(1, 7)]
    searches = counted_searches(monkeypatch)
    alone = [_symmetry(g) for g in graphs]
    # outside a scope every call searches again
    assert len(searches) == 3 * len(graphs)
    with shared_searches():
        for _ in range(2):  # the second pass reads only stored searches
            assert [_symmetry(g) for g in graphs] == alone
            assert [enumerate_graphs(n) for n in range(1, 7)] == levels
        # each distinct labelled graph searched once, whoever asked first
        assert len(searches) - 3 * len(graphs) == len(isomorphism._searches)
    assert isomorphism._searches is None


def test_shared_searches_end_with_the_command(monkeypatch, tmp_path, capsys):
    searches = counted_searches(monkeypatch)
    assert main(["certify", "--builtin", "petersen", "--builtin", "cycle:6"]) == 0
    assert searches and all(searches)  # the command ran inside a scope
    assert isomorphism._searches is None
    bad = tmp_path / "bad.txt"
    bad.write_text("3; 0-1\n3; 0-3\n")  # the second line is malformed
    assert main(["certify", "--input", str(bad)]) == 1
    assert isomorphism._searches is None
    # an internal failure propagates out of main, and the scope still closes
    monkeypatch.setattr("raagcert.cli.audit_certificate", lambda cert: ["forged"])
    with pytest.raises(RuntimeError):
        main(["certify", "--builtin", "cycle:5"])
    assert isomorphism._searches is None
    with pytest.raises(KeyError):
        with shared_searches():
            vertex_orbits(cycle_graph(5))
            raise KeyError
    assert isomorphism._searches is None
    capsys.readouterr()


def test_nested_shared_searches_share_one_dict():
    g = petersen_graph()
    with shared_searches():
        outer = isomorphism._searches
        with shared_searches():
            assert isomorphism._searches is outer
            vertex_orbits(g)
        # the inner scope's search outlives it, inside the outer scope
        assert isomorphism._searches is outer and g.rows in outer
    assert isomorphism._searches is None


def test_stored_searches_are_tuples():
    with shared_searches():
        enumerate_graphs(5)
        for g in classes(5):
            automorphisms(g)
            canonical_relabelled(g)
        stored = isomorphism._searches
        assert stored
        for rows, (order, generators, columns) in stored.items():
            assert type(rows) is type(order) is type(generators) is type(columns) is tuple
            assert all(type(a) is tuple for a in generators)
            assert len(order) == len(columns) == len(rows)


def test_budget_errors():
    with pytest.raises(ResourceError, match="^the automorphism search capped at 10 vertices$"):
        automorphisms(edgeless_graph(11))
    with pytest.raises(ResourceError, match="^the orbit search capped at 10 vertices$"):
        vertex_orbits(edgeless_graph(11))
    with pytest.raises(ResourceError, match="^canonical labelling capped at 10 vertices$"):
        canonical_relabelled(edgeless_graph(11))
    with pytest.raises(ResourceError):
        enumerate_graphs(9)
    with pytest.raises(InputError):
        enumerate_graphs(0)


@pytest.mark.slow
def test_enumerate_n6_against_brute_force():
    keys = set()
    pairs = list(itertools.combinations(range(6), 2))
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        keys.add(canonical_form(from_edges(6, edges)))
    assert keys == {canonical_form(g) for g in classes(6)}


@pytest.mark.slow
def test_enumerate_n7_against_brute_force():
    keys = set()
    pairs = list(itertools.combinations(range(7), 2))
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        keys.add(canonical_form(from_edges(7, edges)))
    assert len(keys) == 1044
    assert keys == {canonical_form(g) for g in classes(7)}
