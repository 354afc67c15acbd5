import copy
import hashlib
import json
import random
import sys
from collections import Counter
from functools import lru_cache

import networkx as nx
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
    complement,
    complete_graph,
    complete_multipartite_graph,
    compose,
    cycle_graph,
    edgeless_graph,
    from_graph6,
    induced,
    path_graph,
    petersen_graph,
    simplify,
    to_graph6,
)
from raagcert.certify import FIELDS, RULES, RULES_BY_NAME, Reduction, Rule
from raagcert import isomorphism
from raagcert.isomorphism import (
    CANONICAL_MAX_N,
    automorphisms,
    canonical_form,
    shared_searches,
)

import graph_oracle
from conftest import classes, counted_searches, random_graph
from families import large_families, small_degree_regular, split_family, srg_without_twins

# the citations of the two leaves every disconnected graph satisfies
CITATION = {name: next(RULES_BY_NAME[name].reductions(edgeless_graph(2))).citation
            for name in ("DISCONNECTED", "FALLBACK")}


def k1_plus_k2():
    return compose(complete_graph(1), complete_graph(2), "disjoint_union")


def test_max_join_decomposition_examples():
    # JOIN_FACTOR's children are the factors of the maximal join decomposition
    rule = RULES_BY_NAME["JOIN_FACTOR"]
    (reduction,) = rule.reductions(cycle_graph(4))
    assert reduction.children == (edgeless_graph(2), edgeless_graph(2))
    (reduction,) = rule.reductions(path_graph(3))  # and a centre of one vertex
    assert reduction.children == (edgeless_graph(2),)
    # all centre and no factor, or one factor and no centre
    assert list(rule.reductions(complete_graph(5))) == []
    assert list(rule.reductions(edgeless_graph(2))) == []


def test_max_join_decomposition_reassembles():
    # the centre, the vertices adjacent to every other one, joined with the
    # factors rebuilds the graph, and no factor is itself a join
    rule = RULES_BY_NAME["JOIN_FACTOR"]
    rng = random.Random(31)
    count = 0
    while count < 12:
        g = random_graph(rng, rng.randint(2, 7))
        if not g.is_connected():
            continue
        count += 1
        centre = sum(1 for v in range(g.n) if g.degree(v) == g.n - 1)
        reduction = next(rule.reductions(g), None)
        if reduction is not None:
            factors = reduction.children
        else:
            factors = () if g.is_complete() else (g,)
        rebuilt = complete_graph(centre) if centre else None
        for f in factors:
            rebuilt = f if rebuilt is None else compose(rebuilt, f, "simplicial_join")
        assert rebuilt is not None and canonical_form(rebuilt) == canonical_form(g)
        assert all(complement(f).is_connected() for f in factors)


def _join_factor_by_oracle(g):
    """JOIN_FACTOR's reductions from networkx: when the complement has two or
    more components, the subgraphs induced on those of two or more vertices,
    in order of least vertex, if there are any."""
    co = nx.complement(graph_oracle.to_networkx(g))
    comps = sorted(nx.connected_components(co), key=min)
    factors = tuple(graph_oracle.induced(g, c) for c in comps if len(c) > 1)
    return [factors] if len(comps) > 1 and factors else []


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
    assert cert.verdict == RINF and cert.rule == "JOIN_FACTOR"
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
    assert all(canonical_form(c.graph) == canonical_form(k1_plus_k2()) for c in cert.children)


def test_certify_simplification_path():
    # the paper's simplification, deleting the maximal-degree vertices, is
    # CHAR_QUOTIENT's first set
    cert = certify(path_graph(4))
    assert cert.rule == "CHAR_QUOTIENT" and cert.verdict == RINF
    assert cert.children[0].graph == induced(path_graph(4), VertexSet.of([0, 3], 4))
    assert cert.children[0].rule == "DISCONNECTED"
    assert cert.children[0].graph == edgeless_graph(2)


def test_certify_mba_rules(split_mba_8):
    # max-by-abelian graphs with one low vertex, (6, 5, 3), with two, (6, 4,
    # 3), and with two whose links partition the vertices: each reduces by
    # one deletion to a smaller graph with R-infinity
    expected = {"EEv_": "DISCONNECTED", "ETpo": "JOIN_FACTOR"}
    for g, child_rule in [(from_graph6(text), rule) for text, rule in expected.items()] + [
            (split_mba_8, "DISCONNECTED")]:
        cert = certify(g)
        assert (cert.rule, cert.verdict) == ("CHAR_QUOTIENT", RINF)
        (child,) = cert.children
        assert child.rule == child_rule and child.graph.n < g.n
        assert audit_certificate(cert.to_dict()) == []


def test_orbit_closure_certificate_audits_clean():
    # GUZdqw is regular and colour refinement leaves it one cell, so only a
    # characteristic closure reduces it, and the auditor re-tests that set
    # against the orbits
    cert = certify(from_graph6("GUZdqw"))
    assert (cert.rule, cert.verdict) == ("CHAR_QUOTIENT", RINF)
    assert audit_certificate(cert.to_dict()) == []
    assert cert.children[0].rule == "JOIN_FACTOR"


def test_split_family_is_rinf_through_char_quotient():
    # the split family once needed a rule that adds edges; a separator now
    # cuts one side off, and the certificate audits clean
    for g in split_family():
        cert = certify(g)
        assert (cert.rule, cert.verdict) == ("CHAR_QUOTIENT", RINF), g.n
        assert audit_certificate(cert.to_dict()) == [], g.n


def _structured_graphs():
    return ([g for seed in range(6) for _, g in large_families(seed)]
            + small_degree_regular() + srg_without_twins())


def test_structured_verdicts_are_pinned():
    # the verdict of each structured graph, in order, as before the deletion
    # rules became one: 224 RINF and 24 UNDECIDED
    verdicts = [certify(g).verdict for g in _structured_graphs()]
    assert Counter(verdicts) == {RINF: 224, UNDECIDED: 24}
    assert hashlib.sha256("\n".join(verdicts).encode()).hexdigest() == (
        "65feb72f0910c4efa61320f29f5324e1d9cfd77256f4e49b58fcef3775db3aa4")


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
            assert cert.rule in ("DISCONNECTED", "TRANSVECTION_FREE", "JOIN_FACTOR")
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


@pytest.mark.slow
def test_audit_tests_deleted_sets_above_the_orbit_budget(monkeypatch):
    # real certificates above 10 vertices audit clean with every deleted set
    # re-tested: refinement settles each one without the orbit search
    module = sys.modules["raagcert.certify"]
    real = module.is_characteristic_vertex_set
    sizes = []

    def counted(g, s):
        sizes.append(g.n)
        return real(g, s)

    monkeypatch.setattr(module, "is_characteristic_vertex_set", counted)
    for seed in range(10):
        for _, g in large_families(seed):
            assert audit_certificate(certify(g).to_dict()) == [], seed
    assert sum(n > CANONICAL_MAX_N for n in sizes) > 0


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


def test_audit_rejects_circular_reduction(monkeypatch):
    # a node claiming that the join of two copies of K1+K2 reduces to itself:
    # every CHAR_QUOTIENT reduction deletes a vertex, so none matches
    g = compose(k1_plus_k2(), k1_plus_k2(), "simplicial_join")
    joined = certify(g).to_dict()
    circular = {**joined, "rule": "CHAR_QUOTIENT", "children": [joined]}
    problems = audit_certificate(circular)
    assert problems == ["root: children match no reduction of rule CHAR_QUOTIENT"]
    # a faulty rule that does reduce the graph to itself meets the measure check
    faulty = Rule("CHAR_QUOTIENT", RINF, lambda h: iter([Reduction("", (h,))]))
    monkeypatch.setitem(RULES_BY_NAME, "CHAR_QUOTIENT", faulty)
    problems = audit_certificate(circular)
    assert problems == ["root: a child does not decrease the (n, non-edges) measure"]


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_every_reduction_decreases_the_measure(rule):
    # each rule terminates on its own, whatever the order of RULES: no
    # reduction on any class with n <= 7 has a child of measure at least its
    # graph's, (vertex count, non-edge count) in lexicographic order
    for n in range(1, 8):
        for g in classes(n):
            measure = (g.n, g.non_edge_count)
            for reduction in rule.reductions(g):
                for h in reduction.children:
                    assert (h.n, h.non_edge_count) < measure, to_graph6(g)


def test_every_single_rule_removal_ends(monkeypatch):
    # certify every class with n <= 7 with one rule at a time taken out of
    # RULES; each sweep ends, with no RecursionError, and every rule changes
    # some verdict there.  monkeypatch puts RULES back whatever happens; the
    # module comes from sys.modules, since raagcert binds the function
    # certify over its name
    module = sys.modules["raagcert.certify"]
    graphs = [g for n in range(1, 8) for g in classes(n)]
    verdicts = {}
    with shared_searches():
        for rule in RULES:
            if rule.name != "FALLBACK":
                monkeypatch.setattr(module, "RULES", tuple(r for r in RULES if r is not rule))
                verdicts[rule.name] = Counter(certify(g).verdict for g in graphs)
    assert verdicts == {
        "ABELIAN": {RINF: 1245, UNDECIDED: 7},
        "DISCONNECTED": {RINF: 53, NOT_RINF_ABELIAN: 7, UNDECIDED: 1192},
        "TRANSVECTION_FREE": {RINF: 1236, NOT_RINF_ABELIAN: 7, UNDECIDED: 9},
        "JOIN_FACTOR": {RINF: 1235, NOT_RINF_ABELIAN: 7, UNDECIDED: 10},
        "CHAR_QUOTIENT": {RINF: 434, NOT_RINF_ABELIAN: 7, UNDECIDED: 811},
    }


def test_stored_certificates_are_the_certificates_outside_a_scope():
    # every class with n <= 6 and a seeded relabelled copy of each, certified
    # twice in one scope: the second pass reads the certificate store
    rng = random.Random(11)
    graphs = []
    for n in range(1, 7):
        for g in classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            graphs += [g, g.relabel(perm)]
    alone = [json.dumps(certify(g).to_dict()) for g in graphs]
    with shared_searches():
        for _ in range(2):
            assert [json.dumps(certify(g).to_dict()) for g in graphs] == alone
        stored = isomorphism._stores["certificates"]
        assert {g.rows for g in graphs} <= set(stored)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_mutation_corpus_audits_alike_from_the_audit_store(data):
    # a corpus of mutated small certificates, audited twice in one scope: the
    # second pass re-derives only the nodes the store does not take (a value
    # that is not an exact str), and both give the unscoped problems
    trees = []
    for _ in range(data.draw(st.integers(1, 6))):
        tree = json.loads(data.draw(st.sampled_from(_small_certificates())))
        for _ in range(data.draw(st.integers(1, 2))):
            node = data.draw(st.sampled_from(_nodes(tree)))
            _mutate(node, data.draw(st.sampled_from(MUTATIONS)), data)
        trees.append(tree)
    alone = [audit_certificate(copy.deepcopy(tree)) for tree in trees]
    module = sys.modules["raagcert.certify"]
    real = module._rule_problem
    calls = []

    def counted(node):
        calls.append(node)
        return real(node)

    # hypothesis runs the examples in one call of the test, so the patch is
    # undone by hand rather than by monkeypatch
    module._rule_problem = counted
    try:
        with shared_searches():
            assert [audit_certificate(tree) for tree in trees] == alone
            first = len(calls)
            assert [audit_certificate(tree) for tree in trees] == alone
    finally:
        module._rule_problem = real
    unkeyed = [node for node in calls[:first]
               if not all(type(node[k]) is str for k in ("rule", "verdict", "citation"))
               or not all(type(child["verdict"]) is str for child in node["children"])]
    assert len(calls) - first == len(unkeyed)


def test_audit_store_keys_each_child_verdict():
    # two nodes that differ only in one child's verdict, audited in either
    # order within one scope, each get their own problems
    sound = certify(path_graph(4)).to_dict()
    child = sound["children"][0]
    undecided_child = {**child, "verdict": UNDECIDED, "rule": "FALLBACK",
                       "citation": CITATION["FALLBACK"], "children": []}
    unsound = {**sound, "children": [undecided_child]}
    expected = ([], ["root: no child has R-infinity"])
    for pair in ((sound, unsound), (unsound, sound)):
        with shared_searches():
            problems = tuple(audit_certificate(tree) for tree in pair)
        assert problems == (expected if pair[0] is sound else expected[::-1])


def _audit_forged_deletion(monkeypatch, g, deleted):
    """The audit of a CHAR_QUOTIENT node on ``g`` whose rule, made faulty on
    ``g`` alone, deletes ``deleted``, over the quotient's real certificate."""
    quotient = induced(g, deleted.complement())
    real = RULES_BY_NAME["CHAR_QUOTIENT"].reductions

    def reductions(h):
        if h != g:
            yield from real(h)
            return
        yield Reduction("", (quotient,), deleted)

    faulty = Rule("CHAR_QUOTIENT", RINF, reductions)
    monkeypatch.setitem(RULES_BY_NAME, "CHAR_QUOTIENT", faulty)
    node = {"verdict": RINF, "rule": "CHAR_QUOTIENT", "citation": "",
            "graph6": to_graph6(g), "children": [certify(quotient).to_dict()]}
    return audit_certificate(node)


def test_audit_rechecks_deleted_sets(monkeypatch):
    # a faulty rule deleting one end of a path, a set that the path's
    # reflection moves, so the quotient is not characteristic
    problems = _audit_forged_deletion(monkeypatch, path_graph(4), VertexSet.of([0], 4))
    assert problems == ["root: deleted vertex set fails the characteristic-set test"]


def test_audit_rechecks_deleted_sets_on_64_vertices(monkeypatch):
    # above the orbit search's budget: vertex 2 dominates the end vertex 0, so
    # {0} fails the closure check; {0, 1, 2} passes it, but no refined cell
    # {i, 63 - i} lies inside it, so only the search could decide, and the
    # node fails closed
    g = path_graph(64)
    problems = _audit_forged_deletion(monkeypatch, g, VertexSet.of([0], 64))
    assert problems == ["root: deleted vertex set fails the characteristic-set test"]
    problems = _audit_forged_deletion(monkeypatch, g, VertexSet.of([0, 1, 2], 64))
    assert problems == [
        "root: cannot re-derive the node: the orbit search capped at 10 vertices"]


def test_complete_multipartite_graphs_reduce_to_their_join_factors():
    # the strongly regular graphs with mu = k are exactly the complete
    # multipartite graphs K_{m,...,m} with at least two parts of size m >= 2
    cases = [g for n in range(1, 8) for g in classes(n)
             if (params := graph_oracle.srg_parameters(g)) is not None
             and params.mu == params.k]
    assert len(cases) == 3  # C4, K_{3,3} and K_{2,2,2}
    cases += [complete_multipartite_graph(parts)
              for parts in ([2, 2], [3, 3], [5, 5], [2, 2, 2], [2, 2, 2, 2, 2])]
    for g in cases:
        cert = certify(g)
        assert cert.rule == "JOIN_FACTOR" and cert.verdict == RINF
        (factors,) = _join_factor_by_oracle(g)
        tree = cert.to_dict()
        assert ([child["graph6"].encode("ascii") for child in tree["children"]]
                == [canonical_form(f) for f in factors])
        assert audit_certificate(tree) == []


def _certificate_digest(top: int) -> str:
    digest = hashlib.sha256()
    for n in range(1, top + 1):
        for g in classes(n):
            digest.update((json.dumps(certify(g).to_dict()) + "\n").encode("ascii"))
    return digest.hexdigest()


def test_certificates_byte_identical_up_to_six_vertices():
    # every certificate of the 208 classes on at most 6 vertices, in
    # enumeration order, one JSON line each
    assert _certificate_digest(6) == (
        "3ca174585d6423d56b754508b7e8b843c9eff72efb697983a1c94edaebd8cd44")


def test_certificates_byte_identical_up_to_seven_vertices():
    assert _certificate_digest(7) == (
        "7f3b8ec3273079d7ef698f4e8832fe1ce4feb926114db319cc4b429826b7137d")


def _char_closure_forgery(g):
    return {"verdict": RINF, "rule": "CHAR_QUOTIENT", "citation": "",
            "graph6": to_graph6(g), "children": [certify(cycle_graph(4)).to_dict()]}


@pytest.mark.parametrize("n", [10, 11], ids=["K10", "K11"])
def test_audit_rejects_char_closure_forgery_on_complete_graph(n):
    # the group of a complete graph is free abelian, not R-infinity
    problems = audit_certificate(_char_closure_forgery(complete_graph(n)))
    assert problems and problems[0].startswith("root: ")


@pytest.mark.parametrize("n", [9, 10])
def test_audit_rejects_char_closure_forgery_without_listing_automorphisms(n, monkeypatch):
    # the edgeless graph's 9! or 10! automorphisms are never listed: its
    # characteristic closures are unions of vertex orbits
    forgery = _char_closure_forgery(edgeless_graph(n))

    def refuse(g):
        raise AssertionError("automorphisms listed")

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "raagcert"
                and getattr(module, "automorphisms", None) is automorphisms):
            monkeypatch.setattr(module, "automorphisms", refuse)
    assert audit_certificate(forgery) == [
        "root: children match no reduction of rule CHAR_QUOTIENT"]


def test_audit_rejects_nodes_it_cannot_rederive():
    # C11 does have R-infinity, but no separator reduces it, and its
    # characteristic closures cannot be re-derived beyond the symmetry
    # budget, so the auditor fails closed
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


def test_audit_rejects_a_retired_srg_node():
    # C4's certificate as it was written while a separate SRG rule proved
    # K_{m,...,m}; JOIN_FACTOR now covers those graphs, and the auditor fails
    # closed on a rule it no longer has
    cert = {**certify(cycle_graph(4)).to_dict(), "rule": "SRG", "citation": (
        "strongly regular with mu = k: complete multipartite, a join of edgeless "
        "blocks, hence a direct product of non-abelian free groups")}
    assert audit_certificate(cert) == ["root: unknown rule 'SRG'"]


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
    return tuple(json.dumps(certify(g).to_dict()) for g in _small_graphs())


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
    roots: Counter = Counter()
    rules = set()
    for n in range(1, 9):
        for g in classes(n):
            tree = certify(g).to_dict()
            digest.update((json.dumps(tree) + "\n").encode("ascii"))
            assert audit_certificate(tree) == []
            rules.update(node["rule"] for node in _nodes(tree))
            roots[tree["rule"]] += 1
            if n == 8:
                verdicts[tree["verdict"]] += 1
    assert verdicts == {RINF: 12345, NOT_RINF_ABELIAN: 1}
    assert rules == {rule.name for rule in RULES} - {"FALLBACK"}
    # the root rule of each of the 13,598 classes on at most 8 vertices
    assert roots == {"ABELIAN": 8, "DISCONNECTED": 1485, "JOIN_FACTOR": 1478,
                     "CHAR_QUOTIENT": 10548, "TRANSVECTION_FREE": 79}
    # every certificate on at most 8 vertices, as _certificate_digest writes them
    assert digest.hexdigest() == (
        "012698e71be439d7e75a7257d1f250bfba24e59e5085495da263223534dd4def")
