import itertools
import random

import pytest

from raagcert import (
    Graph,
    InputError,
    ResourceError,
    SignedAut,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    eigenvalue_witness_report,
    enumerate_lyndon,
    has_eigenvalue_one,
    from_edges,
    induced_matrix,
    l2_basis,
    signed_automorphisms,
)
from raagcert import liering
from raagcert.isomorphism import automorphisms

from conftest import classes, random_graph
from matrix_oracle import (
    compose,
    cycles,
    cyclic_shift,
    dense,
    det_by_cofactors,
    det_exact,
    det_identity_minus,
    identity,
    induced_matrix_oracle,
    inverse,
    matmul,
    witness_levels_oracle,
    witness_report_oracle,
    withhold_higher_witnesses,
)


def test_signed_aut_compose_inverse():
    a = SignedAut((1, 2, 0), (1, -1, 1))
    b = SignedAut((2, 0, 1), (-1, 1, 1))
    ab = compose(a, b)
    for i in range(3):
        # generator i maps through b then a; signs multiply along the way
        assert ab.perm[i] == a.perm[b.perm[i]]
        assert ab.signs[i] == a.signs[b.perm[i]] * b.signs[i]
    ident = identity(3)
    assert compose(a, inverse(a)) == ident
    assert compose(inverse(a), a) == ident
    with pytest.raises(InputError):
        SignedAut((0, 1), (1, 2))
    for not_a_permutation in ((0, 0), (1, 2), (-1, 0)):
        with pytest.raises(InputError):
            SignedAut(not_a_permutation, (1, 1))


def test_signed_aut_rejects_non_int_entries():
    for perm, signs in (((0, 1), (1.0, True)), ((1.0, 0.0), (1, 1)), ((0, 1), (1, True)),
                        ((False, True), (1, 1)), ((0, 1), (1, -1.0))):
        with pytest.raises(InputError):
            SignedAut(perm, signs)


def test_signed_automorphism_stream():
    sa = list(signed_automorphisms(edgeless_graph(2)))
    assert len(sa) == 8
    assert sa[0] == identity(2)
    assert len(set(sa)) == 8
    assert sum(1 for _ in signed_automorphisms(cycle_graph(5))) == 320
    with pytest.raises(ResourceError):
        next(signed_automorphisms(edgeless_graph(9)))


def test_bases():
    c4 = cycle_graph(4)
    assert l2_basis(c4) == ((0, 2), (1, 3))
    # the level-3 basis is (0, 2, 0), (0, 2, 2), (1, 3, 1), (1, 3, 3): inverting
    # v0 alone negates (0, 2, 2), which picks up e0, and no other column
    assert (induced_matrix(c4, SignedAut((0, 1, 2, 3), (-1, 1, 1, 1)), 3)
            == SignedAut((0, 1, 2, 3), (1, -1, 1, 1)))
    # swapping v0 and v2 exchanges the two shapes of the pair (0, 2) alone
    assert (induced_matrix(c4, SignedAut((2, 1, 0, 3), (1, 1, 1, 1)), 3)
            == SignedAut((1, 0, 2, 3), (-1, -1, 1, 1)))
    assert l2_basis(complete_graph(3)) == ()


def test_induced_matrix_level1():
    g = edgeless_graph(2)
    swap = SignedAut((1, 0), (1, 1))
    m = induced_matrix(g, swap, 1)
    assert m == SignedAut((1, 0), (1, 1))
    assert dense(m) == ((0, 1), (1, 0))
    assert has_eigenvalue_one(m)
    ident = induced_matrix(g, identity(2), 1)
    assert ident == identity(2)


def test_induced_matrix_level2_signs():
    g = edgeless_graph(2)
    swap = SignedAut((1, 0), (1, 1))
    assert induced_matrix(g, swap, 2) == SignedAut((0,), (-1,))
    all_inverted = SignedAut((0, 1), (-1, -1))
    assert induced_matrix(g, all_inverted, 2) == SignedAut((0,), (1,))
    for level, dim in ((1, 2), (2, 1), (3, 2)):
        assert induced_matrix(g, identity(2), level) == identity(dim)
    with pytest.raises(InputError):
        induced_matrix(g, swap, 4)
    # True would read as level 1, and 2.0 and 3.0 as levels 2 and 3
    for level in (True, 2.0, 3.0, "1"):
        with pytest.raises(InputError, match="exact integer"):
            induced_matrix(g, swap, level)
    with pytest.raises(InputError):
        induced_matrix(cycle_graph(4), SignedAut((1, 0, 2, 3), (1, 1, 1, 1)), 1)


def test_induced_matrix_level3_shape_exchange():
    g = edgeless_graph(2)
    swap = SignedAut((1, 0), (1, 1))
    m = induced_matrix(g, swap, 3)
    # basis (0,1,0), (0,1,1): the swap sends each shape to minus the other
    assert m == SignedAut((1, 0), (-1, -1))
    assert dense(m) == ((0, -1), (-1, 0))
    # inverting v0 alone: [[v0, v1], v0] picks up e0 * e1 * e0 = e1 = +1 and
    # [[v0, v1], v1] picks up e0 * e1 * e1 = e0 = -1
    assert induced_matrix(g, SignedAut((0, 1), (-1, 1)), 3) == SignedAut((0, 1), (1, -1))


def test_matrices_are_signed_permutations():
    rng = random.Random(41)
    for _ in range(10):
        g = random_graph(rng, 5)
        sa = list(signed_automorphisms(g))
        for a in rng.sample(sa, min(6, len(sa))):
            for level, dim in ((1, g.n), (2, len(l2_basis(g))), (3, 2 * len(l2_basis(g)))):
                m = induced_matrix(g, a, level)
                assert len(m.perm) == dim
                rows = dense(m)
                for row in rows:
                    assert sum(abs(x) for x in row) == 1
                for col in zip(*rows):
                    assert sum(abs(x) for x in col) == 1


def test_det_exact():
    assert det_exact(dense(identity(5))) == 1
    assert det_exact(((2, 1), (1, 1))) == 1
    assert det_identity_minus(cyclic_shift([-1, 1, 1])) == 2
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert det_exact(rows) == det_by_cofactors(rows)
    with pytest.raises(ValueError):
        det_exact(((1, 2),))


def test_signed_cycle_matrix():
    assert dense(cyclic_shift([1])) == ((1,),)
    assert dense(cyclic_shift([1, -1, 1])) == ((0, 0, 1), (1, 0, 0), (0, -1, 0))
    assert det_identity_minus(cyclic_shift([1])) == 0
    assert det_identity_minus(cyclic_shift([-1])) == 2
    assert det_identity_minus(cyclic_shift([-1, -1])) == 0
    assert cycles(cyclic_shift([1, -1, 1])) == [((0, 1, 2), -1)]
    with pytest.raises(InputError):
        cyclic_shift([2])


def test_has_eigenvalue_one():
    assert has_eigenvalue_one(identity(3))
    assert not has_eigenvalue_one(SignedAut((0,), (-1,)))
    # det of the 0 x 0 matrix I - M is 1
    assert not has_eigenvalue_one(SignedAut((), ()))
    # cycles (0 2) with signs -1, -1 and (1) with sign -1: the first gives the witness
    m = SignedAut((2, 1, 0), (-1, -1, -1))
    assert cycles(m) == [((0, 2), 1), ((1,), -1)]
    assert has_eigenvalue_one(m)
    assert not has_eigenvalue_one(SignedAut((2, 1, 0), (1, -1, -1)))


def test_functoriality_exhaustive_small():
    for n in range(1, 4):
        for g in classes(n):
            sa = list(signed_automorphisms(g))
            mats = {
                (a, level): induced_matrix(g, a, level)
                for a in sa
                for level in (1, 2, 3)
            }
            for a, b in itertools.product(sa, repeat=2):
                ab = compose(a, b)
                for level in (1, 2, 3):
                    assert mats[(ab, level)] == compose(mats[(a, level)], mats[(b, level)])


def test_functoriality_sampled_n4():
    rng = random.Random(8)
    for g in classes(4):
        sa = list(signed_automorphisms(g))
        for _ in range(60):
            a, b = rng.choice(sa), rng.choice(sa)
            ab = compose(a, b)
            for level in (1, 2, 3):
                lhs = induced_matrix(g, ab, level)
                ma, mb = induced_matrix(g, a, level), induced_matrix(g, b, level)
                assert lhs == compose(ma, mb)
                # compose is the matrix product of the dense forms
                assert dense(lhs) == matmul(dense(ma), dense(mb))


def test_witness_level_is_conjugation_invariant():
    rng = random.Random(10)
    for _ in range(8):
        g = random_graph(rng, 5)
        sa = list(signed_automorphisms(g))
        a, c = rng.choice(sa), rng.choice(sa)
        conj = compose(compose(inverse(c), a), c)
        for level in (1, 2, 3):
            assert has_eigenvalue_one(induced_matrix(g, a, level)) == has_eigenvalue_one(
                induced_matrix(g, conj, level)
            )


def test_l2_dimension_matches_lyndon_rank():
    rng = random.Random(12)
    for _ in range(10):
        g = random_graph(rng, 6)
        assert len(l2_basis(g)) == len(enumerate_lyndon(g, 2))


def test_witness_report_examples():
    report = eigenvalue_witness_report(edgeless_graph(2))
    assert report.total == 8 and not report.failures
    assert report.level_counts == {1: 5, 2: 3, 3: 0}

    report = eigenvalue_witness_report(cycle_graph(5))
    assert report.total == 320 and not report.failures

    with pytest.raises(InputError):
        eigenvalue_witness_report(complete_graph(3))
    with pytest.raises(ResourceError):
        eigenvalue_witness_report(edgeless_graph(9))


def test_complete_graph_all_inversions_has_no_level1_witness():
    for n in range(1, 5):
        g = complete_graph(n)
        flip = SignedAut(tuple(range(n)), (-1,) * n)
        m = induced_matrix(g, flip, 1)
        assert det_identity_minus(m) == 2**n
        assert not has_eigenvalue_one(m)


@pytest.mark.parametrize("max_n", [4, pytest.param(5, marks=pytest.mark.slow)])
def test_eigenvalue_one_matches_determinant_oracle(max_n):
    cases = 0
    for n in range(1, max_n + 1):
        for g in classes(n):
            for a in signed_automorphisms(g):
                for level in (1, 2, 3):
                    m = induced_matrix(g, a, level)
                    assert has_eigenvalue_one(m) == (det_identity_minus(m) == 0)
                    cases += 1
    assert cases == {4: 4_758, 5: 48_918}[max_n]


def _scan_sample():
    """Every non-complete class with n <= 5, each with all its signed
    automorphisms, and a seeded sample of them on seeded 6-vertex classes."""
    rng = random.Random(23)
    for n in range(1, 6):
        for g in classes(n):
            if not g.is_complete():
                yield g, list(signed_automorphisms(g))
    for g in rng.sample([g for g in classes(6) if not g.is_complete()], 25):
        sa = list(signed_automorphisms(g))
        yield g, rng.sample(sa, min(40, len(sa)))


def test_trusted_signed_auts_revalidate():
    checked = 0
    for g, sa in _scan_sample():
        for a in sa:
            for m in [a] + [induced_matrix(g, a, level) for level in (1, 2, 3)]:
                assert SignedAut(m.perm, m.signs) == m
                assert type(m.perm) is tuple and type(m.signs) is tuple
                assert has_eigenvalue_one(m) == any(p == 1 for _, p in cycles(m))
                checked += 1
    assert checked > 50_000


def test_induced_matrix_matches_oracle():
    for g, sa in _scan_sample():
        assert l2_basis(g) == tuple(
            (i, j) for i, j in itertools.combinations(range(g.n), 2) if not g.adjacent(i, j))
        for a in sa:
            for level in (2, 3):
                assert induced_matrix(g, a, level) == induced_matrix_oracle(g, a, level)


def test_pair_cache_keeps_graphs_apart():
    # two 4-cycles on the same vertices with different non-edges, and a path
    # with more of them; a stale basis would give each the other's columns
    graphs = (
        cycle_graph(4),
        from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)]),
        from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    )
    streams = [list(signed_automorphisms(g)) for g in graphs]
    for step in range(max(map(len, streams))):
        for g, sa in zip(graphs, streams):
            a = sa[step % len(sa)]
            for level in (2, 3):
                assert induced_matrix(g, a, level) == induced_matrix_oracle(g, a, level)


def test_non_automorphism_rejected_with_cached_bases():
    g = cycle_graph(4)
    swap = SignedAut((1, 0, 2, 3), (1, 1, 1, 1))
    for level, dim in ((1, 4), (2, 2), (3, 4)):
        assert induced_matrix(g, identity(4), level) == identity(dim)
        with pytest.raises(InputError, match="not a graph automorphism"):
            induced_matrix(g, swap, level)
        with pytest.raises(InputError, match="different vertex count"):
            induced_matrix(g, identity(3), level)
        with pytest.raises(InputError, match="different vertex count"):
            induced_matrix(g, identity(5), level)


def test_graph_with_list_rows_scans_like_its_tuple_twin():
    # C4 plus a pendant vertex, its rows given as a list
    g = Graph(5, [0b01010, 0b00101, 0b01010, 0b10101, 0b01000])
    twin = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    assert g == twin
    for a in signed_automorphisms(g):
        assert induced_matrix(g, a, 1) == a
        for level in (2, 3):
            assert induced_matrix(g, a, level) == induced_matrix_oracle(twin, a, level)
    assert eigenvalue_witness_report(g) == eigenvalue_witness_report(twin)
    assert eigenvalue_witness_report(g) == witness_report_oracle(twin)


def _check_witness_level_lemma(g):
    """The module docstring's lemma on the brute scan: the witness level
    depends only on the permutation and its cycles' sign products, and all
    sign vectors without a level-1 witness share one representative's level.
    The scan itself relies on the lemma, so the levels come from the oracle."""
    levels = dict(zip(signed_automorphisms(g), witness_levels_oracle(g)))
    assert len(levels) == len(automorphisms(g)) << g.n
    by_cycle_signs = {}
    for a, level in levels.items():
        key = (a.perm, tuple(product for _, product in cycles(a)))
        assert by_cycle_signs.setdefault(key, level) == level, (g, a)
    for perm in automorphisms(g):
        starts = {cycle[0] for cycle, _ in cycles(SignedAut(perm, (1,) * g.n))}
        rep = levels[SignedAut(perm, tuple(-1 if v in starts else 1 for v in range(g.n)))]
        coset = [levels[SignedAut(perm, signs)]
                 for signs in itertools.product((1, -1), repeat=g.n)]
        assert coset.count(1) == 2**g.n - 2**(g.n - len(starts)), (g, perm)
        assert rep != 1 and all(level == rep for level in coset if level != 1), (g, perm)


@pytest.mark.parametrize("sizes", [range(1, 6), pytest.param((6,), marks=pytest.mark.slow)])
def test_witness_level_depends_on_cycle_sign_products_alone(sizes):
    for n in sizes:
        for g in classes(n):
            if not g.is_complete():
                _check_witness_level_lemma(g)


@pytest.mark.parametrize("sizes", [range(1, 6), pytest.param((6,), marks=pytest.mark.slow)])
def test_witness_scan_matches_brute_oracle(sizes):
    # graphs where one permutation's sign vectors without a level-1 witness
    # reach level 2 and another's level 3: a level kept across permutations
    # would give one of them the other's level
    mixed = dict.fromkeys(sizes, 0)
    for n in sizes:
        for g in classes(n):
            if g.is_complete():
                continue
            expected = witness_report_oracle(g)
            assert eigenvalue_witness_report(g) == expected, g
            mixed[n] += expected.level_counts[2] > 0 and expected.level_counts[3] > 0
    assert mixed == {n: {1: 0, 2: 0, 3: 1, 4: 2, 5: 4, 6: 7}[n] for n in sizes}


def test_witness_scan_checks_each_permutation_once(monkeypatch):
    # one edge walk per automorphism, and levels 2 and 3 built at most once
    # per automorphism on top of one level-1 matrix per signed automorphism
    for g in (cycle_graph(5), edgeless_graph(4), from_edges(5, [(0, 1), (1, 2), (3, 4)])):
        edge_walks, matrices = [], []
        edges, matrix = Graph.edges, liering.induced_matrix
        monkeypatch.setattr(Graph, "edges", lambda h: edge_walks.append(h) or edges(h))
        monkeypatch.setattr(liering, "induced_matrix",
                            lambda h, a, level: matrices.append(level) or matrix(h, a, level))
        report = eigenvalue_witness_report(g)
        monkeypatch.undo()
        auts = len(automorphisms(g))
        assert report == witness_report_oracle(g)
        assert len(edge_walks) == auts
        assert matrices.count(1) == report.total
        assert 0 < matrices.count(2) <= auts and matrices.count(3) <= matrices.count(2)


def test_witness_scan_reports_failures_in_scan_order(monkeypatch):
    withhold_higher_witnesses(monkeypatch)
    for g in (cycle_graph(5), edgeless_graph(3), from_edges(5, [(0, 1), (1, 2), (3, 4)])):
        report = eigenvalue_witness_report(g)
        assert report == witness_report_oracle(g), g
        auts = automorphisms(g)
        # 2^(n - c(pi)) sign vectors of each permutation pi lack a level-1 witness
        counts = [len(cycles(SignedAut(perm, (1,) * g.n))) for perm in auts]
        assert len(report.failures) == sum(2**(g.n - c) for c in counts)
        assert report.level_counts == {1: report.total - len(report.failures), 2: 0, 3: 0}
        assert report.total == len(auts) << g.n
        # permutation order first, then the sign vector's bits ascending
        order = [(auts.index(a.perm), sum(1 << v for v, e in enumerate(a.signs) if e < 0))
                 for a in report.failures]
        assert order == sorted(set(order)), g
