import itertools
import random
import re

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
    edgeless_graph,
    enumerate_graphs,
    from_edge_list,
    from_edges,
    from_graph6,
    induced,
    mba_parameters,
    path_graph,
    petersen_graph,
    to_edge_list,
    to_graph6,
)
from raagcert.graphs import decimal
from raagcert.isomorphism import _extension, canonical_form

import graph_oracle
import matrix_oracle
from conftest import classes, random_graph
from families import large_families, small_degree_regular, srg_without_twins


def test_vertex_set_basics():
    s = VertexSet.of([0, 2], 4)
    assert list(s) == [0, 2]
    assert len(s) == 2 and 2 in s and 1 not in s
    assert list(s.complement()) == [1, 3]
    assert tuple(VertexSet(s.mask | VertexSet.of([1], 4).mask, 4)) == (0, 1, 2)
    with pytest.raises(InputError):
        VertexSet.of([4], 4)


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
    assert canonical_form(c4ish) == canonical_form(cycle_graph(4))
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
    assert induced(c4, VertexSet((1 << 4) - 1, 4)) == c4
    assert induced(c4, VertexSet(0, 4)).n == 0
    # kept vertices stay in increasing order: old 2 becomes the middle of the path
    assert induced(path_graph(4), [3, 1, 2]) == path_graph(3)


def test_structure_queries():
    p3 = path_graph(3)
    assert list(p3.max_degree_vertices()) == [1]
    assert [v for v in range(3) if p3.degree(v) == 2] == [1]  # the centre
    assert p3.is_connected() and not p3.is_regular()
    assert list(VertexSet(p3.rows[1], 3)) == [0, 2] and p3.degree(1) == 2
    with pytest.raises(InputError):
        p3.degree(3)
    lonely = from_edges(3, [(1, 2)])
    assert list(VertexSet(lonely.rows[0], 3)) == [] and lonely.degree(0) == 0

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


def test_components_match_networkx():
    # as masks, in order of least vertex; JOIN_FACTOR reads the components of
    # the complement
    graphs = [g for n in range(1, 7) for g in classes(n)]
    graphs += [g for seed in (7, 101) for _, g in large_families(seed)]
    for g in graphs + [complement(g) for g in graphs]:
        theirs = [sum(1 << v for v in c)
                  for c in nx.connected_components(graph_oracle.to_networkx(g))]
        assert [c.mask for c in g.components()] == sorted(theirs, key=lambda m: m & -m), g
        assert all(c.n == g.n for c in g.components())


@pytest.mark.parametrize("call", [
    lambda g: g.relabel((1.0, 0.0, 2.0, 3.0)),
    lambda g: g.relabel((True, False, 2, 3)),
    lambda g: g.relabel((0, 1, 2, 3.0)),
    lambda g: induced(g, [0.0, 1.0]),
    lambda g: induced(g, [True, 2]),
    lambda g: induced(g, [0, "a"]),
    lambda g: induced(g, [[0]]),
    lambda g: g.adjacent(0, 1.0),
    lambda g: g.adjacent(True, 1),
    lambda g: g.degree(2.0),
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
    lambda g: cycle_graph("5"),
    lambda g: complete_multipartite_graph([True, 2]),
    lambda g: complete_multipartite_graph(["1", 2]),
    lambda g: enumerate_graphs(True),
    lambda g: enumerate_graphs(2.0),
    lambda g: matrix_oracle.identity(True),
    lambda g: matrix_oracle.identity(2.0),
    lambda g: matrix_oracle.identity(-2),
], ids=["relabel-floats", "relabel-bools", "relabel-one-float", "induced-floats",
        "induced-bool", "induced-str", "induced-list", "adjacent-float", "adjacent-bool", "degree",
        "set-of-bool", "set-of-float", "set-bool-mask", "set-float-mask", "set-float-size",
        "set-contains-bool", "set-contains-float", "graph-float-size", "graph-float-rows",
        "graph-bool-size", "graph-bool-rows", "from-edges-float-size",
        "from-edges-float-endpoint", "from-edges-str-endpoint", "from-edges-bool-endpoint",
        "complete-float-size", "cycle-str-size", "multipartite-bool-block", "multipartite-str-block",
        "enumerate-bool-size", "enumerate-float-size", "identity-bool-size", "identity-float-size",
        "identity-negative-size"])
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
    # the oracle that picks the strongly regular cases
    srg_parameters = graph_oracle.srg_parameters
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
            params = graph_oracle.srg_parameters(g)
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
                assert canonical_form(g) == canonical_form(
                    complete_multipartite_graph([n_ - k] * blocks))


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
        theirs = nx.to_graph6_bytes(graph_oracle.to_networkx(g), header=False).decode().strip()
        assert ours == theirs
        assert from_graph6(ours) == g


def test_graph6_roundtrip_at_the_header_boundary():
    # 62 vertices fit the one-byte header, 63 and 64 need the four-byte one
    rng = random.Random(64)
    for n, p in ((62, 0.3), (63, 0.7), (64, 0.5)):
        g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])
        theirs = nx.to_graph6_bytes(graph_oracle.to_networkx(g), header=False).decode().strip()
        assert to_graph6(g) == theirs
        assert from_graph6(theirs) == g
        assert len(theirs) == (1 if n <= 62 else 4) + (n * (n - 1) // 2 + 5) // 6


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
    # only spaces, tabs and line ends are blanks; str.strip would take these
    # control characters for blanks and read P3
    for text, char in (("\x1cBW\x0b", "\x1c"), ("BW\x0b", "\x0b"), ("BW\x0c", "\x0c"),
                       ("\x1fBW", "\x1f")):
        with pytest.raises(InputError, match=re.escape(f"invalid graph6 character {char!r} at offset")):
            from_graph6(text)
    assert from_graph6(" \tBW\r\n") == from_graph6("BW") == from_edges(3, [(0, 2), (1, 2)])
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
    # ASCII blanks and leading zeros are still read
    assert from_edge_list(" 03 ;\t0 -  2 ,1-2 ") == from_edges(3, [(0, 2), (1, 2)])


@pytest.mark.parametrize("text", [
    "1_0;", "+3;", "3; 0-+1", "3; 0-0_2", "\u0663; \u0660-\u0661", "\uff13;",
    "3\u00a0; 0-1", "3; 0-1\u2003", "\x1c3;\x1f", "3;\x0b", "3; 0-1\x0c", "3; 0-\x1e1",
], ids=["underscore", "plus", "plus-vertex", "underscore-vertex", "arabic-indic",
        "fullwidth", "nbsp", "em-space", "file-and-unit-separators", "vertical-tab",
        "form-feed", "record-separator"])
def test_edge_list_accepts_ascii_decimal_digits_only(text):
    # each is a valid graph if read through int() and str.strip()
    with pytest.raises(InputError):
        from_edge_list(text)


def test_bad_edge_shows_the_chunk_between_blanks():
    # a control character is not a blank, so it stays in the message
    with pytest.raises(InputError, match=re.escape("bad edge '\\x1c'")):
        from_edge_list("3; 0-1,\x1c")
    with pytest.raises(InputError, match=re.escape("bad edge '1'")):
        from_edge_list("3; 0-2, \t1 ")


@given(st.text(st.sampled_from("0123456789-+_ \t\x0b\x1c\x1e\u00a0\u0663\uff13x"),
               max_size=6))
def test_decimal_reads_ascii_digits_or_raises_input_error(text):
    # every number of an edge list, a builtin or a CLI option is read here;
    # the blanks are spaces and tabs, not every character str.strip drops
    stripped = text.strip(" \t")
    try:
        value = decimal(text)
    except InputError:
        assert not (text.isascii() and re.fullmatch("-?[0-9]+", stripped))
    else:
        assert text.isascii() and re.fullmatch("-?[0-9]+", stripped)
        assert value == int(stripped)


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
            assert induced(g, reversed(tuple(keep))) == expected


def _seeded_graph(rng, n):
    p = rng.uniform(0.1, 0.9)
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_relabel_matches_oracle():
    # every size 1..64, so _transpose meets each array width and both sides
    # of each change of width: 8/9, 16/17, 32/33 and 64
    rng = random.Random(46)
    pool = [_seeded_graph(rng, n) for n in range(1, 65) for _ in range(3)]
    pool += [edgeless_graph(64), complete_graph(64), path_graph(64)] + _oracle_pool()
    for g in pool:
        perm = rng.sample(range(g.n), g.n)
        relabelled = g.relabel(perm)
        assert relabelled == graph_oracle.relabel(g, perm), (g, perm)
        assert isinstance(relabelled.rows, tuple)


def test_relabel_laws():
    rng = random.Random(4646)
    for n in (1, 2, 3, 8, 9, 16, 17, 32, 33, 63, 64):
        g = _seeded_graph(rng, n)
        p, q = rng.sample(range(n), n), rng.sample(range(n), n)
        inverse = [0] * n
        for v, w in enumerate(p):
            inverse[w] = v
        assert g.relabel(list(range(n))) == g
        assert g.relabel(p).relabel(q) == g.relabel([q[w] for w in p])
        assert g.relabel(p).relabel(inverse) == g.relabel(inverse).relabel(p) == g
        moved = {frozenset((p[u], p[v])) for u, v in g.edges()}
        assert set(map(frozenset, g.relabel(p).edges())) == moved


@pytest.mark.parametrize("perm", [
    (0, 1, 2), (0, 1, 2, 3, 4), (), (0, 1, 1, 2), (0, 1, 2, 4), (-1, 0, 1, 2), (3, 2, 1, 0, 0),
    (1.0, 0, 2, 3), (True, False, 2, 3), (0, 1, 2, "3"), (0, 1, 2, None),
])
def test_relabel_errors_match_oracle(perm):
    g = cycle_graph(4)
    expected = _error(lambda p: graph_oracle.relabel(g, p), perm)
    assert expected in ("InputError: relabelling must hold exact integers",
                        "InputError: relabelling must be a permutation of the vertices")
    assert _error(g.relabel, perm) == expected


def test_from_edges_matches_the_validating_constructor():
    # from_edges checks each edge and skips Graph.__post_init__; its rows
    # must be the ones the validating constructor accepts, whatever the
    # order, direction and repetition of the edges
    rng = random.Random(4647)
    for n in list(range(1, 65)) + [63, 64, 64]:
        edges = list(_seeded_graph(rng, n).edges())
        drawn = edges + rng.sample(edges, len(edges) // 3) + rng.sample(edges, len(edges) // 4)
        drawn = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in drawn]
        rng.shuffle(drawn)
        pairs = set(map(frozenset, drawn))
        rows = [sum(1 << w for w in range(n) if frozenset((v, w)) in pairs) for v in range(n)]
        g = from_edges(n, drawn)
        assert g == Graph(n, rows) and Graph(n, g.rows) == g, (n, drawn)
        assert isinstance(g.rows, tuple)


def test_multipartite_rows_match_oracle():
    rng = random.Random(4648)
    cases = [[1] * n for n in (1, 2, 9, 17, 33, 64)] + [[64], [32, 32], [1, 63], [8] * 8]
    for _ in range(40):
        n = rng.randint(1, 64)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(n - 1, 10))))
        cases.append([b - a for a, b in zip([0] + cuts, cuts + [n])])
    for parts in cases:
        g = complete_multipartite_graph(parts)
        assert g == graph_oracle.complete_multipartite_graph(parts), parts
        assert isinstance(g.rows, tuple)
    for n in range(1, 65):
        assert complete_graph(n) == from_edges(n, itertools.combinations(range(n), 2))


def _wide_graph(rng, n):
    """A graph above the 64-vertex cap, which Graph(...) refuses too."""
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def test_symmetry_check_matches_oracle():
    rng = random.Random(101)
    for n in (65, 70):
        with pytest.raises(InputError, match="^at most 64 vertices are supported$"):
            _wide_graph(rng, n)
    for g in _oracle_pool():
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
              ">>graph6<<C~", ">>graph6<<A\x00", "\x1cBW\x0b", "BW\x0c", "\x1dBW", "\x1eBW\x1f"]
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
    keep = rng.getrandbits(n)
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
    ]
    if n < 64:
        derived.append(_extension(g, keep))
    for d in derived:
        assert isinstance(d.rows, tuple)
        assert Graph(d.n, d.rows) == d
