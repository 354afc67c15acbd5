import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagcert import (
    Graph,
    InputError,
    VertexSet,
    complement,
    complete_graph,
    complete_multipartite_graph,
    compose,
    cycle_graph,
    dominates,
    domination_closure,
    edgeless_graph,
    from_edge_list,
    from_edges,
    from_graph6,
    induced,
    mba_parameters,
    path_graph,
    petersen_graph,
    srg_parameters,
    to_edge_list,
    to_graph6,
)
from raagcert.certify import _add_cross_edges
from raagcert.isomorphism import _extension, are_isomorphic

import graph_oracle
from conftest import classes, random_graph
from families import large_families, small_degree_regular, srg_without_twins


def test_vertex_set_basics():
    s = VertexSet.of([0, 2], 4)
    assert list(s) == [0, 2]
    assert len(s) == 2 and 2 in s and 1 not in s
    assert list(s.complement()) == [1, 3]
    assert s.union(VertexSet.of([1], 4)).to_tuple() == (0, 1, 2)
    with pytest.raises(InputError):
        VertexSet.of([4], 4)
    with pytest.raises(InputError):
        s.union(VertexSet.of([0], 3))


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(2, (1, 0))  # vertex 0 adjacent to itself
    with pytest.raises(InputError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(InputError):
        from_edges(0, [])
    with pytest.raises(InputError):
        from_edges(65, [])
    with pytest.raises(InputError):
        from_edges(3, [(0, 0)])


def test_rows_given_as_a_list_are_stored_as_a_tuple():
    rows = [2, 5, 2]
    g = Graph(3, rows)
    path = from_edges(3, [(0, 1), (1, 2)])
    assert g.rows == (2, 5, 2) and type(g.rows) is tuple
    assert g == path and hash(g) == hash(path) and {g: 1}[path] == 1
    rows[0] = 0
    assert g == path
    with pytest.raises(TypeError):
        g.rows[0] = 0


def test_dominates_examples():
    c4 = cycle_graph(4)
    assert dominates(c4, 1, 3) and dominates(c4, 3, 1)
    c5 = cycle_graph(5)
    assert not any(dominates(c5, v, w) for v in range(5) for w in range(5) if v != w)
    assert dominates(path_graph(3), 0, 1)
    with pytest.raises(InputError):
        dominates(c4, 2, 2)


def test_compose():
    c4ish = compose(edgeless_graph(2), edgeless_graph(2), "simplicial_join")
    assert are_isomorphic(c4ish, cycle_graph(4))
    k2 = compose(complete_graph(1), complete_graph(1), "simplicial_join")
    assert k2 == complete_graph(2)
    g = path_graph(3)
    assert compose(g, Graph(0, ()), "disjoint_union") == g
    assert compose(Graph(0, ()), g, "disjoint_union") == g
    union = compose(path_graph(2), path_graph(2), "disjoint_union")
    assert union.edge_count == 2 and not union.is_connected()
    with pytest.raises(InputError):
        compose(g, g, "tensor")


def test_complement():
    assert complement(cycle_graph(3)) == edgeless_graph(3)
    c4c = complement(cycle_graph(4))
    two_edges = from_edges(4, [(0, 2), (1, 3)])
    assert c4c == two_edges
    assert complement(edgeless_graph(5)) == complete_graph(5)
    for g in classes(4):
        assert complement(complement(g)) == g


def test_complement_distributes_over_join():
    a, b = path_graph(3), cycle_graph(4)
    lhs = complement(compose(a, b, "simplicial_join"))
    rhs = compose(complement(a), complement(b), "disjoint_union")
    assert lhs == rhs


def test_induced():
    c4 = cycle_graph(4)
    assert induced(c4, VertexSet.of([0, 1], 4)) == complete_graph(2)
    assert induced(c4, VertexSet.full(4)) == c4
    assert induced(c4, VertexSet.empty(4)).n == 0
    # kept vertices stay in increasing order: old 2 becomes the middle of the path
    assert induced(path_graph(4), [3, 1, 2]) == path_graph(3)


def test_structure_queries():
    p3 = path_graph(3)
    assert list(p3.max_degree_vertices()) == [1]
    assert [v for v in range(3) if p3.degree(v) == 2] == [1]  # the centre
    assert p3.is_connected() and not p3.is_regular()
    assert list(p3.link(1)) == [0, 2] and p3.degree(1) == 2
    with pytest.raises(InputError):
        p3.link(3)
    lonely = from_edges(3, [(1, 2)])
    assert list(lonely.link(0)) == [] and lonely.degree(0) == 0

    k4 = complete_graph(4)
    assert k4.is_complete() and k4.is_regular() and k4.degree(0) == 3
    assert list(k4.max_degree_vertices()) == [0, 1, 2, 3]

    with pytest.raises(InputError):
        Graph(0, ()).max_degree_vertices()


def test_is_connected_matches_oracle():
    # the search stops at the first layer that reaches every vertex
    graphs = [g for n in range(1, 7) for g in classes(n)] + [Graph(0, ())]
    graphs += [g for seed in (7, 101) for _, g in large_families(seed)]
    graphs += small_degree_regular()
    assert {g.is_connected() for g in graphs} == {True, False}
    for g in graphs:
        assert g.is_connected() == graph_oracle.is_connected(g), g
        assert g.is_connected() == (len(g.components()) <= 1), g


@pytest.mark.parametrize("call", [
    lambda g: g.relabel((1.0, 0.0, 2.0, 3.0)),
    lambda g: g.relabel((True, False, 2, 3)),
    lambda g: g.relabel((0, 1, 2, 3.0)),
    lambda g: induced(g, [0.0, 1.0]),
    lambda g: induced(g, [True, 2]),
    lambda g: g.adjacent(0, 1.0),
    lambda g: g.adjacent(True, 1),
    lambda g: g.degree(2.0),
    lambda g: g.link(False),
    lambda g: domination_closure(g, 1.0),
    lambda g: VertexSet.of([True], g.n),
    lambda g: VertexSet.of([1.0], g.n),
    lambda g: VertexSet(True, g.n),
    lambda g: VertexSet(1.0, g.n),
    lambda g: VertexSet(1, float(g.n)),
    lambda g: True in VertexSet.of([1], g.n),
    lambda g: 1.0 in VertexSet.of([1], g.n),
    lambda g: Graph(2.0, [0, 0]),
    lambda g: Graph(2, [0.0, 0.0]),
    lambda g: Graph(True, [0]),
    lambda g: Graph(2, [False, False]),
    lambda g: from_edges(2.0, []),
    lambda g: from_edges(3, [(0, 1.0)]),
    lambda g: from_edges(3, [("0", 1)]),
    lambda g: from_edges(3, [(True, 0)]),
    lambda g: complete_graph(2.0),
    lambda g: complete_multipartite_graph([True, 2]),
    lambda g: complete_multipartite_graph(["1", 2]),
], ids=["relabel-floats", "relabel-bools", "relabel-one-float", "induced-floats",
        "induced-bool", "adjacent-float", "adjacent-bool", "degree", "link", "closure",
        "set-of-bool", "set-of-float", "set-bool-mask", "set-float-mask", "set-float-size",
        "set-contains-bool", "set-contains-float", "graph-float-size", "graph-float-rows",
        "graph-bool-size", "graph-bool-rows", "from-edges-float-size",
        "from-edges-float-endpoint", "from-edges-str-endpoint", "from-edges-bool-endpoint",
        "complete-float-size", "multipartite-bool-block", "multipartite-str-block"])
def test_vertices_must_be_exact_integers(call):
    with pytest.raises(InputError, match="exact integer"):
        call(cycle_graph(4))


def test_max_degree_vertices_mba_figure(fig_mba_5_4_3):
    top = fig_mba_5_4_3.max_degree_vertices()
    assert list(top) == [1, 2, 3, 4]
    assert {fig_mba_5_4_3.degree(v) for v in top} == {3}


def test_max_degree_vertices_match_the_degree_list():
    for n in range(1, 7):
        for g in classes(n):
            degrees = [g.degree(v) for v in range(n)]
            top = [v for v in range(n) if degrees[v] == max(degrees)]
            assert list(g.max_degree_vertices()) == top


def test_handshake_on_all_small_classes():
    for n in range(1, 6):
        for g in classes(n):
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def test_regular_complement_degree():
    for n in range(2, 7):
        for g in classes(n):
            if g.is_regular():
                k = g.degree(0)
                assert (k * g.n) % 2 == 0
                assert complement(g).is_regular()
                assert complement(g).degree(0) == g.n - k - 1


def test_one_and_two_regular_structure():
    for n in range(2, 7):
        for g in classes(n):
            if not g.is_regular():
                continue
            if g.degree(0) == 1:
                assert all(len(c) == 2 for c in g.components())
            if g.degree(0) == 2:
                for c in g.components():
                    assert all(g.degree(v) == 2 for v in c) and len(c) >= 3


def test_srg_parameters_examples():
    for m, p in itertools.product((2, 3), (2, 3)):
        params = srg_parameters(complete_multipartite_graph([m] * p))
        assert params == (m * p, m * (p - 1), m * (p - 2), m * (p - 1))
    assert srg_parameters(petersen_graph()) == (10, 3, 0, 1)
    assert srg_parameters(edgeless_graph(4)) is None
    assert srg_parameters(complete_graph(4)) is None
    assert srg_parameters(path_graph(4)) is None
    with pytest.raises(InputError):
        srg_parameters(Graph(0, ()))


def test_srg_structure_dichotomies():
    for n in range(2, 7):
        for g in classes(n):
            params = srg_parameters(g)
            if params is None:
                continue
            n_, k, lam, mu = params
            assert (n_ - k - 1) * mu == k * (k - lam - 1)
            if lam == k - 1:
                comps = g.components()
                assert len(comps) == n_ // (k + 1)
                assert all(induced(g, c).is_complete() for c in comps)
            if mu == k:
                blocks = n_ // (n_ - k)
                assert are_isomorphic(g, complete_multipartite_graph([n_ - k] * blocks))


def test_mba_parameters_examples(fig_mba_5_4_3, fig_mba_7_5_4):
    assert mba_parameters(fig_mba_5_4_3) == (5, 4, 3)
    joined = compose(
        compose(complete_graph(1), complete_graph(2), "disjoint_union"),
        compose(complete_graph(1), complete_graph(2), "disjoint_union"),
        "simplicial_join",
    )
    assert mba_parameters(joined) == (6, 4, 4)
    assert mba_parameters(fig_mba_7_5_4) == (7, 5, 4)
    assert mba_parameters(cycle_graph(5)) is None
    assert mba_parameters(path_graph(3)) is None  # deletion leaves an edgeless pair


def test_graph6_fixed_strings():
    assert to_graph6(from_edge_list("2; 0-1")) == "A_"
    assert to_graph6(from_edge_list("2;")) == "A?"
    assert from_graph6("A_") == complete_graph(2)
    assert from_graph6(">>graph6<<A_") == complete_graph(2)


def test_graph6_roundtrip_against_networkx():
    rng = random.Random(20260811)
    pool = [g for n in range(1, 6) for g in classes(n)]
    pool += [random_graph(rng, rng.randint(1, 9)) for _ in range(40)]
    pool.append(edgeless_graph(63))
    pool.append(path_graph(64))
    for g in pool:
        ours = to_graph6(g)
        theirs = nx.to_graph6_bytes(_to_networkx(g), header=False).decode().strip()
        assert ours == theirs
        assert from_graph6(ours) == g


def test_graph6_roundtrip_at_the_header_boundary():
    # 62 vertices fit the one-byte header, 63 and 64 need the four-byte one
    rng = random.Random(64)
    for n, p in ((62, 0.3), (63, 0.7), (64, 0.5)):
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])
        theirs = nx.to_graph6_bytes(_to_networkx(g), header=False).decode().strip()
        assert to_graph6(g) == theirs
        assert from_graph6(theirs) == g
        assert len(theirs) == (1 if n <= 62 else 4) + (n * (n - 1) // 2 + 5) // 6


def _to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def test_graph6_parse_errors_carry_offsets():
    with pytest.raises(InputError, match="offset 1"):
        from_graph6("A" + chr(20))
    with pytest.raises(InputError, match="offset 1"):
        from_graph6("B\u00e9")  # non-ASCII, not a replacement character
    with pytest.raises(InputError, match="offset"):
        from_graph6("D?")  # truncated body: five vertices need two body bytes
    with pytest.raises(InputError, match="offset"):
        from_graph6("A??")  # overlong body
    with pytest.raises(InputError, match="padding"):
        from_graph6("A@")  # n=2 with a stray bit below the pair bit
    with pytest.raises(InputError):
        from_graph6("?")  # empty graph rejected publicly
    with pytest.raises(InputError):
        from_graph6("")


def test_edge_list_roundtrip():
    for text in ("2; 0-1", "2;", "5; 0-1, 1-2, 2-3"):
        assert to_edge_list(from_edge_list(text)) == text
    for n in range(1, 6):
        for g in classes(n):
            assert from_edge_list(to_edge_list(g)) == g
    with pytest.raises(InputError):
        from_edge_list("3: 0-1")
    with pytest.raises(InputError):
        from_edge_list("3; 0+1")
    with pytest.raises(InputError):
        from_edge_list("x; 0-1")


def test_builtin_shapes():
    pete = petersen_graph()
    assert pete.n == 10 and pete.edge_count == 15
    assert all(pete.degree(v) == 3 for v in range(10))
    k23 = complete_multipartite_graph([2, 3])
    assert k23.edge_count == 6 and not k23.adjacent(0, 1)
    with pytest.raises(InputError):
        cycle_graph(2)
    with pytest.raises(InputError):
        complete_multipartite_graph([])


def test_module_doctests():
    import doctest

    import raagcert.graphs

    assert doctest.testmod(raagcert.graphs).failed == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**28 - 1))
def test_graph6_roundtrip_property(n, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    assert from_graph6(to_graph6(g)) == g
    assert complement(complement(g)) == g


# -- the whole-row code against the per-bit code it replaced ---------------------


def _error(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return f"InputError: {exc}"


def _oracle_pool():
    """Every class with n <= 6 under a seeded relabelling, a seeded labelled
    G(n, p) for every n in 1..64, and every graph of ``tests/families.py``."""
    rng = random.Random(20261018)
    pool = []
    for n in range(1, 7):
        for g in classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            pool.append(g.relabel(perm))
    for n in range(1, 65):
        p = rng.uniform(0.1, 0.9)
        pool.append(from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < p]))
    pool += small_degree_regular() + srg_without_twins()
    pool += [g for _, g in large_families(419)]
    return pool


def test_graph6_matches_oracle():
    for g in _oracle_pool():
        text = to_graph6(g)
        assert text == graph_oracle.to_graph6(g), g
        parsed = from_graph6(text)
        assert parsed == graph_oracle.from_graph6(text) == g
        assert isinstance(parsed.rows, tuple)


def test_induced_matches_oracle():
    rng = random.Random(419)
    for g in _oracle_pool():
        full = (1 << g.n) - 1
        masks = [0, full] + [rng.getrandbits(g.n) for _ in range(3)]
        # one vertex in eight deleted
        masks += [full & ~(rng.getrandbits(g.n) & rng.getrandbits(g.n) & rng.getrandbits(g.n))]
        # few runs: a prefix kept, or the block lo..hi-1 deleted
        lo, hi = sorted(rng.randint(0, g.n) for _ in range(2))
        masks += [(1 << hi) - 1, full ^ (1 << hi) - 1 ^ (1 << lo) - 1]
        for mask in masks:
            keep = VertexSet(mask, g.n)
            expected = graph_oracle.induced(g, keep)
            assert induced(g, keep) == expected, (g, keep)
            assert induced(g, reversed(keep.to_tuple())) == expected


def _wide_graph(rng, n):
    """A graph above the public 64-vertex cap, which only Graph(...) builds."""
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def test_symmetry_check_matches_oracle():
    rng = random.Random(101)
    for g in _oracle_pool() + [_wide_graph(rng, n) for n in (65, 70)]:
        if g.n < 2:
            continue
        assert Graph(g.n, g.rows) == g
        for flips in (1, 2, 5):
            rows = list(g.rows)
            for _ in range(flips):
                u, w = rng.sample(range(g.n), 2)
                rows[u] ^= 1 << w
            expected = _error(lambda r: graph_oracle.check_symmetric(g.n, r), rows)
            got = _error(lambda r: Graph(g.n, tuple(r)), rows)
            if expected is None:
                assert got == Graph(g.n, tuple(rows))
            else:
                assert got == expected


def test_max_degree_vertices_match_oracle():
    for g in _oracle_pool():
        assert g.max_degree_vertices() == graph_oracle.max_degree_vertices(g)


def _malformed_graph6():
    rng = random.Random(7)
    corpus = ["", "   ", ">>graph6<<", "?", "~", "~?", "~??", "~~??????", "~???", "~?@A",
              "~??~", "~?A?", "A" + chr(20), "Bé", "D?", "A??", "A@", "C^ ", " C^\t",
              "Dxz!", "D\x7f??", "@" + "?" * 3, "Bw☃", "éA", "A_\n", "~??}",
              ">>graph6<<C~", ">>graph6<<A\x00"]
    for n in list(range(1, 13)) + [20, 33, 61, 62, 63, 64]:
        text = to_graph6(random_graph(rng, n))
        head = 1 if n <= 62 else 4
        corpus += [text[:-1], text + "?", text + "~", text[:head]]
        for bit in range(-(n * (n - 1) // 2) % 6):
            # one set bit in the padding of the last byte
            corpus.append(text[:-1] + chr((ord(text[-1]) - 63 | 1 << bit) + 63))
        at = rng.randrange(len(text))
        corpus.append(text[:at] + rng.choice(" \x1f\x7fÿ{") + text[at + 1:])
    corpus += ["~?A@", "~?@" + "?" * 360, "~?A?" + "?" * 360]
    return corpus


def test_graph6_errors_match_oracle():
    corpus = _malformed_graph6()
    errors = 0
    for text in corpus:
        expected = _error(graph_oracle.from_graph6, text)
        assert _error(from_graph6, text) == expected, repr(text)
        errors += isinstance(expected, str)
    assert errors > 100


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64), st.integers(0, 64), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_derived_graphs_revalidate(n, m, p, seed):
    # the constructors that skip Graph.__post_init__ must only build graphs
    # that it accepts
    rng = random.Random(seed)
    m = min(m, 64 - n)
    g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    h = from_edges(m, [(u, v) for u in range(m) for v in range(u + 1, m)
                       if rng.random() < p]) if m else Graph(0, ())
    full = (1 << n) - 1
    keep = rng.getrandbits(n)
    other = rng.getrandbits(n) & ~keep
    perm = list(range(n))
    rng.shuffle(perm)
    derived = [
        induced(g, VertexSet(keep, n)),
        induced(g, [v for v in range(n) if keep >> v & 1]),
        g.relabel(perm),
        complement(g),
        compose(g, h, "disjoint_union"),
        compose(g, h, "simplicial_join"),
        from_graph6(to_graph6(g)),
        _add_cross_edges(g, keep, other),
        _add_cross_edges(g, keep, full ^ keep),
    ]
    if n < 64:
        derived.append(_extension(g, keep))
    for d in derived:
        assert isinstance(d.rows, tuple)
        assert Graph(d.n, d.rows) == d
