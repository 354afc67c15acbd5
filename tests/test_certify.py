import copy
import hashlib
import json
import random
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagcert import (
    InputError,
    NOT_RINF_ABELIAN,
    RINF,
    UNDECIDED,
    VertexSet,
    audit_certificate,
    certify,
    complete_graph,
    complete_multipartite_graph,
    compose,
    cycle_graph,
    edgeless_graph,
    from_graph6,
    induced,
    max_join_decomposition,
    path_graph,
    petersen_graph,
    simplify,
    to_graph6,
)
from raagcert.certify import FIELDS, RULES, RULES_BY_NAME, Reduction, Rule
from raagcert.isomorphism import (
    CANONICAL_MAX_N,
    are_isomorphic,
    automorphisms,
    canonical_form,
    shared_searches,
)

from conftest import classes, counted_searches, random_graph
from families import large_families, small_degree_regular

# the citations of the two leaves every disconnected graph satisfies
CITATION = {name: next(RULES_BY_NAME[name].reductions(edgeless_graph(2))).citation
            for name in ("DISCONNECTED", "FALLBACK")}


def k1_plus_k2():
    return compose(complete_graph(1), complete_graph(2), "disjoint_union")


def test_max_join_decomposition_examples():
    d, factors = max_join_decomposition(cycle_graph(4))
    assert d == 0 and [f.n for f in factors] == [2, 2]
    assert all(f.edge_count == 0 for f in factors)

    d, factors = max_join_decomposition(path_graph(3))
    assert d == 1 and len(factors) == 1 and factors[0] == edgeless_graph(2)

    d, factors = max_join_decomposition(complete_graph(5))
    assert d == 5 and factors == ()

    with pytest.raises(InputError):
        max_join_decomposition(edgeless_graph(2))


def test_max_join_decomposition_reassembles():
    rng = random.Random(31)
    count = 0
    while count < 12:
        g = random_graph(rng, rng.randint(2, 7))
        if not g.is_connected():
            continue
        count += 1
        d, factors = max_join_decomposition(g)
        rebuilt = complete_graph(d) if d else None
        for f in factors:
            rebuilt = f if rebuilt is None else compose(rebuilt, f, "simplicial_join")
        assert rebuilt is not None and are_isomorphic(rebuilt, g)
        from raagcert import complement

        assert all(complement(f).is_connected() for f in factors)


def _join_factor_by_oracle(g):
    """JOIN_FACTOR's reductions as the rule first defined them: on a connected
    graph, the maximal join decomposition when it has a factor and either a
    centre or a second factor."""
    if not g.is_connected():
        return []
    centre_size, factors = max_join_decomposition(g)
    if factors and (centre_size > 0 or len(factors) > 1):
        return [factors]
    return []


def test_join_factor_reductions_match_oracle():
    rule = RULES_BY_NAME["JOIN_FACTOR"]
    citation = next(rule.reductions(cycle_graph(4))).citation
    graphs = [g for n in range(1, 8) for g in classes(n)]
    graphs += [g for seed in (7, 101) for _, g in large_families(seed)]
    graphs += small_degree_regular()
    applied = 0
    for g in graphs:
        reductions = list(rule.reductions(g))
        assert [r.children for r in reductions] == _join_factor_by_oracle(g), g
        assert all(r.citation == citation and r.deleted is None for r in reductions), g
        applied += len(reductions)
    assert 0 < applied < len(graphs)


def test_simplify(fig_mba_5_4_3):
    result = simplify(fig_mba_5_4_3)
    assert result.terminal == fig_mba_5_4_3
    assert result.category == "max_by_abelian"
    assert len(result.chain) == 2 and result.chain[1].is_complete()

    result = simplify(cycle_graph(5))
    assert result.terminal == cycle_graph(5)
    assert result.category == "regular" and result.chain == (cycle_graph(5),)

    result = simplify(path_graph(3))
    assert result.category == "disconnected"
    assert result.terminal == edgeless_graph(2)
    assert [g.n for g in result.chain] == [3, 2]

    with pytest.raises(InputError):
        simplify(complete_graph(3))


def test_certify_examples():
    cert = certify(cycle_graph(4))
    assert cert.verdict == RINF and cert.rule == "SRG"
    assert [c.rule for c in cert.children] == ["DISCONNECTED", "DISCONNECTED"]
    assert all(c.graph == edgeless_graph(2) for c in cert.children)

    assert certify(cycle_graph(5)).rule == "TRANSVECTION_FREE"
    assert certify(complete_graph(3)).verdict == NOT_RINF_ABELIAN
    assert certify(petersen_graph()).rule == "TRANSVECTION_FREE"

    joined = compose(k1_plus_k2(), k1_plus_k2(), "simplicial_join")
    cert = certify(joined)
    assert cert.rule == "JOIN_FACTOR" and cert.verdict == RINF
    assert len(cert.children) == 2
    assert all(c.rule == "DISCONNECTED" for c in cert.children)
    assert all(are_isomorphic(c.graph, k1_plus_k2()) for c in cert.children)


def test_certify_simplification_path():
    cert = certify(path_graph(4))
    assert cert.rule == "SIMPLIFICATION" and cert.verdict == RINF
    assert cert.children[0].rule == "DISCONNECTED"
    assert cert.children[0].graph == edgeless_graph(2)


def test_certify_mba_rules(split_mba_8):
    lone = certify(from_graph6("EEv_"))  # (6, 5, 3) max-by-abelian
    assert lone.rule == "MBA_K_N1"
    assert lone.children[0].rule == "DISCONNECTED"

    quotient = certify(from_graph6("ETpo"))  # (6, 4, 3) max-by-abelian
    assert quotient.rule == "MBA_K_N2_QUOTIENT"
    assert quotient.verdict == RINF

    cert = certify(split_mba_8)
    assert cert.rule == "MBA_K_N2_SPLIT"
    assert cert.children[0].rule == "JOIN_FACTOR"
    assert cert.children[0].graph.n == 8
    assert cert.children[0].graph.edge_count > split_mba_8.edge_count


def test_small_degree_regular_graphs_settle_early():
    # a regular non-complete graph of degree 1, 2, n-2 or n-3 is disconnected,
    # a cycle C_n with n >= 5 (transvection-free), C4 or a cocktail-party graph
    # (strongly regular with mu = k), or the complement of a union of cycles:
    # transvection-free for one cycle of length at least 5, a join otherwise
    graphs = [g for n in range(1, 8) for g in classes(n)] + small_degree_regular()
    graphs += [g for seed in (7, 101) for _, g in large_families(seed)]
    settled = 0
    for g in graphs:
        if (g.is_regular() and not g.is_complete()
                and g.degree(0) in (1, 2, g.n - 2, g.n - 3)):
            cert = certify(g)
            assert cert.verdict == RINF
            assert cert.rule in ("DISCONNECTED", "TRANSVECTION_FREE", "SRG", "JOIN_FACTOR")
            settled += 1
    assert settled > len(small_degree_regular())


@pytest.mark.parametrize("seed", [7, 101])
def test_certify_above_the_canonical_budget(seed):
    # certificates of graphs on 11 to 64 vertices keep their root labelling,
    # and the characteristic-closure rule is out of budget there
    rng = random.Random(seed)
    for family, g in large_families(seed):
        assert g.n > CANONICAL_MAX_N
        cert = certify(g)
        tree = cert.to_dict()
        assert tree["graph6"] == to_graph6(g)
        assert audit_certificate(tree) == []
        if family == "blow_up":
            assert (cert.verdict, cert.rule) == (UNDECIDED, "FALLBACK")
        else:
            assert cert.verdict == (NOT_RINF_ABELIAN if g.is_complete() else RINF)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert certify(g.relabel(perm)).verdict == cert.verdict


def test_certify_rejects_empty():
    from raagcert import Graph

    with pytest.raises(InputError):
        certify(Graph(0, ()))


def test_verdicts_partition_small_classes():
    for n in range(1, 6):
        for g in classes(n):
            cert = certify(g)
            if g.is_complete():
                assert cert.verdict == NOT_RINF_ABELIAN
            else:
                assert cert.verdict == RINF


def test_certificates_audit_clean_and_terminate():
    rng = random.Random(77)
    sample = [g for n in range(1, 6) for g in classes(n)]
    sample += [random_graph(rng, 7) for _ in range(15)]
    for g in sample:
        cert = certify(g)
        assert audit_certificate(cert.to_dict()) == []
        _assert_measure_decreases(cert)


def _assert_measure_decreases(cert):
    parent = (cert.graph.n, cert.graph.non_edge_count)
    for child in cert.children:
        assert (child.graph.n, child.graph.non_edge_count) < parent
        _assert_measure_decreases(child)


def test_verdict_is_isomorphism_invariant():
    rng = random.Random(123)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert certify(g).verdict == certify(g.relabel(tuple(perm))).verdict


def test_certificate_serialization_schema():
    cert = certify(cycle_graph(4)).to_dict()
    assert list(cert.keys()) == ["verdict", "rule", "citation", "graph6", "children"]
    parsed = json.loads(json.dumps(cert))
    assert parsed == cert
    assert from_graph6(cert["graph6"]).n == 4
    # graph6 strings are canonical: re-encoding the canonical labelling is stable
    g = from_graph6(cert["graph6"])
    assert to_graph6(g) == cert["graph6"] or canonical_form(g) == cert["graph6"].encode()


def test_auditor_flags_tampering():
    cert = certify(cycle_graph(4)).to_dict()

    wrong_verdict = copy.deepcopy(cert)
    wrong_verdict["verdict"] = NOT_RINF_ABELIAN
    assert audit_certificate(wrong_verdict)

    wrong_children = copy.deepcopy(cert)
    wrong_children["children"] = wrong_children["children"][:1]
    assert audit_certificate(wrong_children)

    wrong_graph = copy.deepcopy(cert)
    wrong_graph["graph6"] = to_graph6(path_graph(4))
    assert audit_certificate(wrong_graph)

    wrong_rule = copy.deepcopy(cert)
    wrong_rule["rule"] = "DISCONNECTED"
    assert audit_certificate(wrong_rule)

    undecided_on_decidable = {
        "verdict": UNDECIDED,
        "rule": "FALLBACK",
        "citation": CITATION["FALLBACK"],
        "graph6": to_graph6(cycle_graph(4)),
        "children": [],
    }
    # fallback leaves are structurally fine; the auditor checks hypotheses,
    # not optimality, so this one passes shape checks
    assert audit_certificate(undecided_on_decidable) == []

    missing_field = {"verdict": RINF}
    assert audit_certificate(missing_field)

    # the child is re-derived correctly but proves nothing
    simplified = certify(path_graph(4)).to_dict()
    child = simplified["children"][0]
    undecided_child = {**child, "verdict": UNDECIDED, "rule": "FALLBACK",
                       "citation": CITATION["FALLBACK"], "children": []}
    problems = audit_certificate({**simplified, "children": [undecided_child]})
    assert problems == ["root: no child has R-infinity"]


def test_audit_rejects_circular_reduction():
    # the join of two copies of K1+K2 is max-by-abelian with two non-maximal
    # vertices whose links partition it, and every cross edge is already
    # there, so the split rule's child is the graph itself
    joined = certify(compose(k1_plus_k2(), k1_plus_k2(), "simplicial_join")).to_dict()
    circular = {**joined, "rule": "MBA_K_N2_SPLIT", "children": [joined]}
    problems = audit_certificate(circular)
    assert problems == ["root: a child does not decrease the (n, non-edges) measure"]


def test_audit_rechecks_deleted_sets(monkeypatch):
    # a faulty rule deleting one end of a path, a set that the path's
    # reflection moves, so the quotient is not characteristic
    g = path_graph(4)
    end = VertexSet.of([0], 4)
    quotient = induced(g, end.complement())

    def reductions(h):
        yield Reduction("", (quotient,), end)

    faulty = Rule("SIMPLIFICATION", RINF, reductions)
    monkeypatch.setitem(RULES_BY_NAME, "SIMPLIFICATION", faulty)
    node = {"verdict": RINF, "rule": "SIMPLIFICATION", "citation": "",
            "graph6": to_graph6(g), "children": [certify(quotient).to_dict()]}
    problems = audit_certificate(node)
    assert problems == ["root: deleted vertex set fails the characteristic-set test"]


def test_audit_accepts_multipartite_srg_certs():
    for parts in ([2, 2], [2, 2, 2], [3, 3]):
        cert = certify(complete_multipartite_graph(parts))
        assert cert.rule == "SRG" and cert.verdict == RINF
        assert audit_certificate(cert.to_dict()) == []


def _certificate_digest(top: int) -> str:
    digest = hashlib.sha256()
    for n in range(1, top + 1):
        for g in classes(n):
            digest.update((certify(g).to_json() + "\n").encode("ascii"))
    return digest.hexdigest()


def test_certificates_byte_identical_up_to_six_vertices():
    # every certificate of the 208 classes on at most 6 vertices, in
    # enumeration order, one JSON line each
    assert _certificate_digest(6) == (
        "080b78a013a9708adbd78a29e902c66d32b030dc02ec8f8819058dea61b5d0b2")


def test_certificates_byte_identical_up_to_seven_vertices():
    assert _certificate_digest(7) == (
        "d2e73242c761bc7eecbbc18febae10bf9ec0438dfae995e38b591b7e3010c2be")


def _char_closure_forgery(g):
    return {"verdict": RINF, "rule": "CHAR_CLOSURE_GENERIC", "citation": "",
            "graph6": to_graph6(g), "children": [certify(cycle_graph(4)).to_dict()]}


@pytest.mark.parametrize("n", [10, 11], ids=["K10", "K11"])
def test_audit_rejects_char_closure_forgery_on_complete_graph(n):
    # the group of a complete graph is free abelian, not R-infinity
    problems = audit_certificate(_char_closure_forgery(complete_graph(n)))
    assert problems and problems[0].startswith("root: ")


@pytest.mark.parametrize("n", [9, 10])
def test_audit_rejects_char_closure_forgery_without_listing_automorphisms(n, monkeypatch):
    # the edgeless graph's 9! or 10! automorphisms are never listed: the
    # closures are unions of vertex orbits
    forgery = _char_closure_forgery(edgeless_graph(n))

    def refuse(g):
        raise AssertionError("automorphisms listed")

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "raagcert"
                and getattr(module, "automorphisms", None) is automorphisms):
            monkeypatch.setattr(module, "automorphisms", refuse)
    assert audit_certificate(forgery) == [
        "root: children match no reduction of rule CHAR_CLOSURE_GENERIC"]


def test_audit_rejects_nodes_it_cannot_rederive():
    # C11 does have R-infinity, but the characteristic-closure rule cannot be
    # re-derived beyond the symmetry budget, so the auditor fails closed
    problems = audit_certificate(_char_closure_forgery(cycle_graph(11)))
    assert len(problems) == 1 and "cannot re-derive" in problems[0]


def test_audit_rejects_a_non_ascii_root_graph6():
    # "B" and a non-ASCII letter once parsed as "B?", the edgeless graph on
    # three vertices, so this disconnected leaf passed the audit
    leaf = {"verdict": RINF, "rule": "DISCONNECTED", "citation": CITATION["DISCONNECTED"],
            "graph6": "B?", "children": []}
    assert audit_certificate(leaf) == []
    problems = audit_certificate({**leaf, "graph6": "B\u00e9"})
    assert len(problems) == 1
    assert problems[0].startswith("root: bad graph6") and "offset 1" in problems[0]


@pytest.mark.parametrize("change, problem", [
    # an empty object iterates like an empty list
    ({"children": {}}, "children is not a list"),
    # the rest of the node is a sound FALLBACK leaf
    ({"verdict": UNDECIDED, "rule": "NOT_A_RULE", "citation": CITATION["FALLBACK"]},
     "unknown rule 'NOT_A_RULE'"),
], ids=["children-object", "unknown-rule"])
def test_audit_rejects_a_leaf_only_one_check_can_catch(change, problem):
    leaf = {"verdict": RINF, "rule": "DISCONNECTED", "citation": CITATION["DISCONNECTED"],
            "graph6": "B?", "children": []}
    assert audit_certificate(leaf) == []
    assert audit_certificate({**leaf, **change}) == [f"root: {problem}"]


def _replace_child(cert, idx, child):
    children = list(cert["children"])
    children[idx] = child
    return {**cert, "children": children}


MALFORMED = {
    "node is a list": lambda cert: [cert],
    "children is a string": lambda cert: {**cert, "children": "none"},
    "graph6 is a number": lambda cert: {**cert, "graph6": 5},
    "rule is a list": lambda cert: {**cert, "rule": ["SRG"]},
    "citation is a number": lambda cert: {**cert, "citation": 5},
    "child is a number": lambda cert: _replace_child(cert, 0, 7),
    "child graph6 is a number": lambda cert: _replace_child(
        cert, 0, {**cert["children"][0], "graph6": 5}),
    "child lacks verdict": lambda cert: _replace_child(
        cert, 0, {k: v for k, v in cert["children"][0].items() if k != "verdict"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_audit_reports_malformed_input_at_the_parent(case):
    cert = MALFORMED[case](certify(cycle_graph(4)).to_dict())
    problems = audit_certificate(cert)
    assert len(problems) == 1 and problems[0].startswith("root: ")


def test_audit_checks_citations():
    cert = certify(cycle_graph(5)).to_dict()
    for forged in ("forged", [1], None, certify(cycle_graph(4)).to_dict()["citation"]):
        assert audit_certificate({**cert, "citation": forged}) == [
            "root: citation is not rule TRANSVECTION_FREE's"]
    path = certify(path_graph(4)).to_dict()
    child = {**path["children"][0], "citation": None}
    assert audit_certificate({**path, "children": [child]}) == [
        "root/0: citation is not rule DISCONNECTED's"]


def test_audit_walks_deep_chains_iteratively():
    leaf = {"verdict": UNDECIDED, "rule": "FALLBACK", "citation": CITATION["FALLBACK"],
            "graph6": to_graph6(cycle_graph(4)), "children": []}
    node = leaf
    for _ in range(3000):
        node = {**leaf, "children": [node]}
    problems = audit_certificate(node)
    # every node but the innermost is a FALLBACK leaf with a child
    assert len(problems) == 3000
    assert problems[0].startswith("root: ") and problems[1].startswith("root/0: ")


def _small_graphs():
    return [g for n in range(1, 6) for g in classes(n)]


@lru_cache(maxsize=None)
def _small_certificates() -> tuple[str, ...]:
    return tuple(certify(g).to_json() for g in _small_graphs())


def _nodes(tree):
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.get("children", []))
    return out


@lru_cache(maxsize=None)
def _citations() -> tuple[str, ...]:
    return tuple(sorted({node["citation"] for text in _small_certificates()
                         for node in _nodes(json.loads(text))}))


MUTATIONS = ("verdict", "drop_field", "drop_child", "duplicate_child", "swap_graph6", "rename",
             "citation")


def _mutate(node, kind, data):
    if kind == "verdict":
        node["verdict"] = data.draw(st.sampled_from(
            [v for v in (RINF, NOT_RINF_ABELIAN, UNDECIDED) if v != node.get("verdict")]))
    elif kind == "drop_field":
        node.pop(data.draw(st.sampled_from(FIELDS)), None)
    elif kind == "swap_graph6":
        other = json.loads(data.draw(st.sampled_from(_small_certificates())))
        node["graph6"] = other["graph6"]
    elif kind == "citation":
        node["citation"] = data.draw(st.one_of(
            st.sampled_from(_citations()), st.none(), st.integers(), st.lists(st.text())))
    elif kind == "rename":
        rule = data.draw(st.sampled_from(RULES))
        node["rule"] = rule.name
        if data.draw(st.booleans()):
            node["verdict"] = rule.verdict
    elif node.get("children"):
        children = node["children"]
        idx = data.draw(st.integers(0, len(children) - 1))
        if kind == "drop_child":
            del children[idx]
        else:
            children.append(copy.deepcopy(children[idx]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_audit_mutation_corpus(data):
    text = data.draw(st.sampled_from(_small_certificates()))
    tree = json.loads(text)
    kinds = set()
    for _ in range(data.draw(st.integers(1, 2))):
        node = data.draw(st.sampled_from(_nodes(tree)))
        kind = data.draw(st.sampled_from(MUTATIONS))
        kinds.add(kind)
        _mutate(node, kind, data)
    problems = audit_certificate(tree)
    if kinds == {"citation"} and tree != json.loads(text):
        assert problems
    if not problems:
        _assert_true_certificate(tree)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mutation_sample_audits_alike_with_shared_searches(data):
    texts = _small_certificates()
    i = data.draw(st.integers(0, len(texts) - 1))
    tree = json.loads(texts[i])
    for _ in range(data.draw(st.integers(1, 2))):
        node = data.draw(st.sampled_from(_nodes(tree)))
        _mutate(node, data.draw(st.sampled_from(MUTATIONS)), data)
    alone = audit_certificate(copy.deepcopy(tree))
    with shared_searches():
        certify(_small_graphs()[i]).to_dict()
        assert audit_certificate(tree) == alone


def _assert_true_certificate(tree):
    # by the exhaustive sweep, exactly the complete graphs on at most 7
    # vertices lack R-infinity
    for node in _nodes(tree):
        complete = from_graph6(node["graph6"]).is_complete()
        if node["verdict"] == RINF:
            assert not complete
        elif node["verdict"] == NOT_RINF_ABELIAN:
            assert complete


def _false_rule_claims():
    # each node of each small certificate, claimed by each rule with that
    # rule's verdict
    for text in _small_certificates():
        for idx in range(len(_nodes(json.loads(text)))):
            for rule in RULES:
                tree = json.loads(text)
                node = _nodes(tree)[idx]
                node["rule"], node["verdict"] = rule.name, rule.verdict
                yield tree


def test_audit_rejects_every_false_rule_claim():
    # a clean audit must still be a true certificate
    for tree in _false_rule_claims():
        if not audit_certificate(tree):
            _assert_true_certificate(tree)


def test_false_rule_claims_audit_alike_with_shared_searches(monkeypatch):
    # the auditor searches the graphs it parses itself, so searches the
    # serializer stored for the same classes change none of its problems
    searches = counted_searches(monkeypatch)
    trees = list(_false_rule_claims())
    alone = [audit_certificate(tree) for tree in trees]
    cold = len(searches)
    with shared_searches():
        for n in range(1, 6):
            for g in classes(n):
                certify(g).to_dict()
        warm = len(searches)
        assert [audit_certificate(tree) for tree in trees] == alone
    # the audits did share searches
    assert len(searches) - warm < cold


@pytest.mark.slow
def test_eight_vertex_sweep():
    # all 12,346 classes on 8 vertices have a certificate that audits clean;
    # only K8 lacks R-infinity, and every rule but FALLBACK proves some node
    # on at most 8 vertices, so none of them is dead
    digest = hashlib.sha256()
    verdicts: Counter = Counter()
    rules = set()
    for n in range(1, 9):
        for g in classes(n):
            tree = certify(g).to_dict()
            digest.update((json.dumps(tree) + "\n").encode("ascii"))
            assert audit_certificate(tree) == []
            rules.update(node["rule"] for node in _nodes(tree))
            if n == 8:
                verdicts[tree["verdict"]] += 1
    assert verdicts == {RINF: 12345, NOT_RINF_ABELIAN: 1}
    assert rules == {rule.name for rule in RULES} - {"FALLBACK"}
    # every certificate on at most 8 vertices, as _certificate_digest writes them
    assert digest.hexdigest() == (
        "bb155542163dee036bf24b717dbb4b67a4075c1783e047d3d4d29e9afc7d6082")
