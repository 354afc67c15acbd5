import collections
import contextlib
import functools
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
    certify,
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
    to_graph6,
)
from raagcert.isomorphism import (
    automorphisms,
    canonical_form,
    compose_permutations,
    enumerate_graphs,
    invert_permutation,
    is_automorphism,
    vertex_orbits,
)
from raagcert.certify import _serial6
from raagcert.cli import main
from raagcert.graphs import _graph6_from_columns
from raagcert import isomorphism
from raagcert.isomorphism import (
    _canonical_search,
    _extension,
    _orbit_least_masks,
    shared_searches,
)

import enumeration_oracle
import graph_oracle
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


def test_is_automorphism_keeps_look_alike_graphs_apart():
    # the same vertex and edge counts, different edges, and an equal copy of
    # the first: a check that reused one graph's edges for another would
    # answer wrongly
    graphs = (
        cycle_graph(4),
        from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]),
        from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
        Graph(4, cycle_graph(4).rows),
    )
    for perm in itertools.permutations(range(4)):
        for g in graphs:
            assert is_automorphism(g, perm) == _preserves_adjacency_pairwise(g, perm), (g, perm)


def _is_automorphism_oracle(g, perm):
    return all(type(x) is int for x in perm) and _preserves_adjacency_pairwise(g, perm)


def test_accepted_pair_memo_compares_identities():
    c4, p4 = cycle_graph(4), path_graph(4)
    rotation = (1, 2, 3, 0)
    assert is_automorphism(c4, rotation)
    # the accepted tuple on another graph object, where it is no automorphism
    assert not is_automorphism(p4, rotation)
    # a rejected call in between leaves no pair that accepts a wrong answer
    assert not is_automorphism(p4, rotation)
    assert is_automorphism(c4, rotation)
    # equal tuples of other objects, with entries that are not exact integers
    ident = (0, 1, 2, 3)
    assert is_automorphism(c4, ident)
    assert not is_automorphism(c4, (0, True, 2, 3))
    assert not is_automorphism(c4, (0, 1.0, 2, 3))
    assert is_automorphism(c4, ident)
    # a list is checked again after it changes
    perm = [1, 2, 3, 0]
    assert is_automorphism(c4, perm)
    perm[:] = [1, 0, 2, 3]
    assert not is_automorphism(c4, perm)
    perm[:] = [0, 0, 0, 0]
    assert not is_automorphism(edgeless_graph(4), perm)


def test_accepted_pair_memo_on_an_interleaved_stream():
    # calls that reuse graph and permutation objects in a seeded order, with
    # lists changed in place between calls, each answered as the definition says
    rng = random.Random(33)
    graphs = [cycle_graph(4), path_graph(4), edgeless_graph(4), Graph(4, cycle_graph(4).rows),
              from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])]
    perms = [tuple(p) for p in itertools.permutations(range(4))]
    perms += [list(p) for p in perms[::5]] + [(0, True, 2, 3), (1.0, 0, 2, 3)]
    for _ in range(4000):
        g, perm = rng.choice(graphs), rng.choice(perms)
        if type(perm) is list and rng.random() < 0.3:
            perm[:] = rng.sample(range(4), 4)
        assert is_automorphism(g, perm) == _is_automorphism_oracle(g, perm), (g, perm)


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
        h = graph_oracle.to_networkx(g)
        matcher = nx.algorithms.isomorphism.GraphMatcher(h, h)
        assert len(automorphisms(g)) == sum(1 for _ in matcher.isomorphisms_iter())


def test_canonical_form_basics():
    c4a = cycle_graph(4)
    c4b = from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert canonical_form(c4a) == canonical_form(c4b)
    assert canonical_form(path_graph(3)) != canonical_form(complete_graph(3))
    order, _, _ = _canonical_search(c4b)
    assert canonical_form(c4b.relabel(order)) == canonical_form(c4a)


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
        assert canonical_form(g) == canonical_form(h)
        assert graph_oracle.srg_parameters(g) == graph_oracle.srg_parameters(h)
        assert mba_parameters(g) == mba_parameters(h)
    for a, b in itertools.combinations(sample, 2):
        theirs = nx.is_isomorphic(graph_oracle.to_networkx(a), graph_oracle.to_networkx(b))
        assert (canonical_form(a) == canonical_form(b)) == theirs


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


def _burnside_counts(n: int) -> list[int]:
    """Graphs on n vertices up to isomorphism by edge count, the m-th entry
    counting those with m edges.  By Pólya's theorem it is the mean over S_n
    of the product, over the orbits of a permutation on vertex pairs, of
    1 + x ** (orbit size), summed over cycle types (Harary–Palmer, *Graphical
    Enumeration*, 1973); at x = 1 each product is Burnside's 2 ** (orbits)."""
    total = [Fraction(0)] * (n * (n - 1) // 2 + 1)
    for cycles in _partitions(n):
        # the pairs within a k-cycle make orbits of size k, and one of size
        # k / 2 for even k; those across an a- and a b-cycle make gcd(a, b)
        # orbits of size lcm(a, b)
        sizes = [k for k in cycles for _ in range((k - 1) // 2)]
        sizes += [k // 2 for k in cycles if k % 2 == 0]
        sizes += [math.lcm(a, b) for a, b in itertools.combinations(cycles, 2)
                  for _ in range(math.gcd(a, b))]
        poly = [1]
        for size in sizes:
            padded = poly + [0] * size
            poly = [c + (padded[m - size] if m >= size else 0) for m, c in enumerate(padded)]
        centralizer = math.prod(k**m * math.factorial(m)
                                for k, m in collections.Counter(cycles).items())
        for m, c in enumerate(poly):
            total[m] += Fraction(c, centralizer)
    assert all(count.denominator == 1 for count in total)
    return [int(count) for count in total]


def test_burnside_count_matches_oeis_a000088():
    assert [sum(_burnside_counts(n)) for n in range(1, 11)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]


def test_burnside_counts_match_oeis_a008406():
    assert [_burnside_counts(n) for n in range(1, 8)] == [
        [1],
        [1, 1],
        [1, 1, 1, 1],
        [1, 1, 2, 3, 2, 1, 1],
        [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1],
        [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1],
        [1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21, 10, 5, 2, 1, 1],
    ]


# networkx warns that its hash values changed in 3.5; only bucket equality is used
@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_enumeration_is_complete_by_counting(n):
    """As many classes as Burnside's count, pairwise non-isomorphic by
    networkx (Weisfeiler–Lehman hash buckets, then a full check within each),
    so the enumeration misses no class, independently of raagcert's search."""
    found = classes(n)
    assert len(found) == sum(_burnside_counts(n))
    buckets = {}
    for g in found:
        h = graph_oracle.to_networkx(g)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket, 2):
            assert not nx.is_isomorphic(a, b)


@functools.lru_cache(maxsize=None)
def _atlas_counts() -> collections.Counter:
    """The graphs of networkx's atlas (every graph on at most 7 vertices,
    up to isomorphism) counted by (vertices, edges)."""
    from networkx.generators.atlas import graph_atlas_g

    return collections.Counter((g.number_of_nodes(), g.number_of_edges())
                               for g in graph_atlas_g())


def test_enumeration_matches_atlas_totals(graph_classes):
    for n in range(1, 8):
        atlas = sum(count for (nodes, _), count in _atlas_counts().items() if nodes == n)
        assert len(graph_classes(n)) == atlas


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_enumeration_edge_counts_match_polya(n):
    """Each level's classes by edge count: a merge at one edge count and a
    split at another cancel in the total, but not here."""
    found = collections.Counter(g.edge_count for g in classes(n))
    histogram = [found[m] for m in range(n * (n - 1) // 2 + 1)]
    assert histogram == _burnside_counts(n)
    if n <= 7:
        assert histogram == [_atlas_counts()[n, m] for m in range(len(histogram))]


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


def _canonical_graph6_cases():
    rng = random.Random(32)
    for n in range(1, 8):
        for g in classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield g.relabel(perm)
    yield from _shuffled_families()
    # the 10-vertex builtins
    yield from (petersen_graph(), cycle_graph(10), complete_graph(10), edgeless_graph(10),
                complete_multipartite_graph([5, 5]), complete_multipartite_graph([1, 2, 3, 4]))


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "shared"])
def test_canonical_graph6_packs_the_relabelled_graph(shared):
    # canonical_form and the certificate serializer pack the search's
    # columns; re-encoding the canonically relabelled graph is their oracle
    with shared_searches() if shared else contextlib.nullcontext():
        for g in _canonical_graph6_cases():
            order, _, _ = _canonical_search(g)
            expected = to_graph6(g.relabel(order))
            assert canonical_form(g) == expected.encode("ascii"), g
            assert _serial6(g) == expected, g


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


@pytest.mark.slow
def test_canonical_form_survives_relabelling_on_eight_vertex_classes():
    # two seeded relabellings of each 8-vertex class; below 8 vertices the
    # tests relabel every class once or more
    rng = random.Random(8)
    for g in classes(8):
        key = canonical_form(g)
        for _ in range(2):
            assert canonical_form(g.relabel(rng.sample(range(8), 8))) == key, g


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
    # the representatives and their order, graph6 per line, as kept by
    # canonical augmentation
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in classes(n):
            digest.update((to_graph6(g) + "\n").encode("ascii"))
    assert digest.hexdigest() == (
        "7a1a46cdd07ae23f2a8e3be035d3d3ec233f142373ec27f1048ce205e921f0ef")
    # level 7 extends the n = 6 classes once per orbit of masks
    assert sum(len(_orbit_least_masks(6, _canonical_search(h)[1])) for h in classes(6)) == 5096


def test_classes_and_root_verdicts_are_pinned():
    # the canonical graph6, root verdict and root rule of every class with
    # n <= 7, in output order: none depends on which labelled representative
    # the enumeration keeps, so this held before canonical augmentation too
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in classes(n):
            cert = certify(g)
            digest.update(b"%s %s %s\n" % (
                canonical_form(g), cert.verdict.encode(), cert.rule.encode()))
    assert digest.hexdigest() == (
        "c7b31e08c42d4cafcade645f5e7737cf6d0a79a14cf15b0f72e71fa0c602e8d8")


# -- enumeration: canonical augmentation -------------------------------------------


def test_enumerate_matches_oracle():
    for n in range(1, 8):
        assert list(classes(n)) == enumeration_oracle.enumerate_graphs(n), n


@pytest.mark.slow
def test_enumerate_n8_matches_oracle():
    assert list(classes(8)) == enumeration_oracle.enumerate_graphs(8)


def test_enumerate_search_count_is_pinned(monkeypatch):
    searches = counted_searches(monkeypatch)
    enumerate_graphs(7)
    # each class on 2..7 vertices is searched once, as the extension kept for
    # it; 55 extensions pass the degree-pair test but lie outside the
    # canonical vertex's orbit, and are searched and dropped
    assert len(searches) == 1306 == 2 + 4 + 11 + 34 + 156 + 1044 + 55


# -- one search per labelled graph within a shared_searches() scope ---------------


def _symmetry(g):
    return automorphisms(g), vertex_orbits(g), canonical_form(g)


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
        assert len(searches) - 3 * len(graphs) == len(isomorphism._stores["searches"])
    assert isomorphism._stores is None


def _scope_closed():
    return isomorphism._stores is None


def test_shared_searches_end_with_the_command(monkeypatch, tmp_path, capsys):
    searches = counted_searches(monkeypatch)
    assert main(["certify", "--builtin", "petersen", "--builtin", "cycle:6"]) == 0
    assert searches and all(searches)  # the command ran inside a scope
    assert _scope_closed()
    bad = tmp_path / "bad.txt"
    bad.write_text("3; 0-1\n3; 0-3\n")  # the second line is malformed
    assert main(["certify", "--input", str(bad)]) == 1
    assert _scope_closed()
    # an internal failure propagates out of main, and the scope still closes
    monkeypatch.setattr("raagcert.cli.audit_certificate", lambda cert: ["forged"])
    with pytest.raises(RuntimeError):
        main(["certify", "--builtin", "cycle:5"])
    assert _scope_closed()
    with pytest.raises(KeyError):
        with shared_searches():
            g = cycle_graph(5)
            certify(g).to_dict()
            enumerate_graphs(4)
            # every store was filled before the scope ended
            assert all(isomorphism._stores[name] for name in ("searches", "levels",
                                                              "certificates"))
            raise KeyError
    assert _scope_closed()
    capsys.readouterr()


def test_nested_shared_searches_share_one_dict():
    g = petersen_graph()
    with shared_searches():
        outer = isomorphism._stores
        with shared_searches():
            assert isomorphism._stores is outer
            vertex_orbits(g)
        # the inner scope's search outlives it, inside the outer scope
        assert isomorphism._stores is outer and g.rows in outer["searches"]
    assert isomorphism._stores is None


def test_enumeration_resumes_from_the_stored_levels(monkeypatch):
    # in any order of calls within one scope, each level is built once and
    # every call returns what it returns outside a scope
    alone = {n: enumerate_graphs(n) for n in (3, 5, 7)}
    built = []
    built_level = isomorphism._built_level

    def counted(m):
        level = built_level(m)
        built.append(m)
        return level

    monkeypatch.setattr(isomorphism, "_built_level", counted)
    with shared_searches():
        for n in (7, 3, 5, 7):
            assert enumerate_graphs(n) == alone[n], n
        levels = isomorphism._stores["levels"]
        # a caller's list is its own: changing it leaves the stored level
        enumerate_graphs(5).clear()
        assert enumerate_graphs(5) == alone[5]
    assert built == [1, 2, 3, 4, 5, 6, 7]
    assert sorted(levels) == list(range(1, 8))
    assert enumerate_graphs(3) == alone[3] and built[7:] == [1, 2, 3]


def test_orbit_roots_match_the_orbits():
    # the least point of each orbit, against orbits grown point by point
    rng = random.Random(40)
    for _ in range(200):
        n = rng.randint(1, 12)
        generators = []
        for _ in range(rng.randint(0, 3)):
            perm = list(range(n))
            for _ in range(rng.randint(0, 2)):
                i, j = rng.randrange(n), rng.randrange(n)
                perm[i], perm[j] = perm[j], perm[i]
            generators.append(tuple(perm))
        orbit_of = {}
        for v in range(n):
            orbit, frontier = {v}, [v]
            while frontier:
                x = frontier.pop()
                for a in generators:
                    if a[x] not in orbit:
                        orbit.add(a[x])
                        frontier.append(a[x])
            orbit_of[v] = min(orbit)
        assert isomorphism._orbit_roots(n, generators) == [orbit_of[v] for v in range(n)]


def test_stored_searches_are_tuples():
    with shared_searches():
        enumerate_graphs(5)
        for g in classes(5):
            automorphisms(g)
            canonical_form(g)
        stored = isomorphism._stores["searches"]
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
        canonical_form(edgeless_graph(11))
    # above the budget a certificate keeps the node's own labelling
    g = cycle_graph(11).relabel([3, 1, 4, 10, 5, 9, 2, 6, 8, 7, 0])
    assert _serial6(g) == to_graph6(g) != to_graph6(cycle_graph(11))
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
