"""The seeded input generators and the rank oracle."""

import itertools

import pytest

import inputs
from checks import certificate_shape, clique_polynomial_ranks
from raagcert import certify, enumerate_graphs, enumerate_lyndon, from_graph6, mba_parameters
from raagcert.cli import parse_builtin


def _texts(requests):
    return [(r.label, r.argv, r.stdin) for r in requests]


@pytest.mark.parametrize("make", [lambda s: inputs.certify_requests(s, 70),
                                  lambda s: inputs.ranks_requests(s, 30)])
def test_one_seed_one_input_list(make):
    assert _texts(make(5)) == _texts(make(5))
    assert _texts(make(5)) != _texts(make(6))


@pytest.mark.parametrize("seed", [0, 1, 17, 2**31])
def test_builtins_present_for_every_seed(seed):
    labels = [r.label for r in inputs.certify_requests(seed, 20)]
    assert labels[: len(inputs.BUILTINS)] == list(inputs.BUILTINS)
    for spec in inputs.BUILTINS:
        assert parse_builtin(spec).n <= 10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_graphs_are_valid(seed):
    requests = inputs.certify_requests(seed, 2 * len(inputs.FAMILIES) * len(inputs.FAMILY_SIZES))
    families = [r for r in requests if r.stdin is not None]
    assert {r.label.split(":")[0] for r in families} == set(inputs.FAMILIES)
    for req in families:
        g = from_graph6(req.stdin)
        assert g.n == req.n <= 64
        assert g.is_complete() == req.complete
        if req.label.startswith("mba_n"):
            params = mba_parameters(g)
            assert params is not None
            assert params.k == g.n - int(req.label[len("mba_n")])
    ranks = inputs.ranks_requests(seed, 40)
    assert len({r.stdin for r in ranks}) == 40
    assert all(from_graph6(r.stdin).n == inputs.RANKS_N for r in ranks)


def test_clique_polynomial_matches_lyndon_enumeration():
    small = [(g, 4) for n in range(1, 5) for g in enumerate_graphs(n)]
    # a sample of the ranks workload's own graph size
    sized = [(g, 3) for g in itertools.islice(enumerate_graphs(inputs.RANKS_N), 0, None, 25)]
    for g, upto in small + sized:
        expected = [len(enumerate_lyndon(g, length)) for length in range(1, upto + 1)]
        assert clique_polynomial_ranks(g, upto) == expected


def test_clique_polynomial_free_and_abelian():
    g = from_graph6(inputs.ranks_requests(0, 1)[0].stdin)
    assert clique_polynomial_ranks(g, 2)[1] == g.non_edge_count
    edgeless = parse_builtin("edgeless:3")
    necklaces = [3, 3, 8, 18, 48]
    assert clique_polynomial_ranks(edgeless, 5) == necklaces
    assert clique_polynomial_ranks(parse_builtin("complete:4"), 5) == [4, 0, 0, 0, 0]


def test_certificate_shape_counts_every_node():
    cert = certify(parse_builtin("complete_multipartite:2,2,3")).to_dict()
    rules, depth = certificate_shape(cert)
    assert rules["SRG"] + rules["JOIN_FACTOR"] == 1
    assert rules["DISCONNECTED"] == 3
    assert depth == 2
    assert sum(rules.values()) == 1 + len(cert["children"])
