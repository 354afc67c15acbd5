"""Rule engine that certifies the R-infinity property of the right-angled
Artin group of a graph, and an independent auditor for its certificates.

A certificate is a tree of rule applications.  Leaves invoke base facts
(disconnectedness, transvection-freeness); internal nodes reduce to strictly
smaller instances through characteristic quotients or join decompositions,
strong regularity with mu = k among them, so every recursion strictly
decreases the pair (vertex count, non-edge count) lexicographically.
Complete graphs are the definite negative case, and UNDECIDED is an honest
first-class verdict rather than an error.

Each rule is defined once, as an entry of ``RULES``: its name, the verdict it
proves, and the reductions it allows on a graph.  ``certify`` searches the
table and ``audit_certificate`` checks a serialized tree against the same
table, re-deriving every node from its graph6 string alone.  The auditor fails
closed: a node it cannot re-derive within the search budgets is a problem, and
so are malformed JSON values, which it reports instead of raising.  In
particular ``CHAR_CLOSURE_GENERIC`` needs the vertex orbits, so ``certify``
never emits it above ``CANONICAL_MAX_N`` (10) vertices and the auditor rejects
it there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from .closures import (
    characteristic_closures,
    is_characteristic_vertex_set,
    is_transvection_free_graph,
    mba_characteristic_sets,
    transvection_free_vertices,
)
from .errors import InputError, ResourceError
from .graphs import (
    Graph,
    VertexSet,
    _trusted_graph,
    complement,
    from_graph6,
    induced,
    mba_parameters,
    srg_parameters,
    to_graph6,
)
from .isomorphism import CANONICAL_MAX_N, canonical_relabelled
# unused: benchmarks/tests/test_bench_trace.py reads raagcert.certify.automorphisms
from .isomorphism import automorphisms  # noqa: F401


def _serial6(g: Graph) -> str:
    """graph6 for certificates: canonical below the labelling budget, so
    isomorphic graphs serialize identically; verbatim labelling above it."""
    if g.n <= CANONICAL_MAX_N:
        return to_graph6(canonical_relabelled(g))
    return to_graph6(g)


RINF = "RINF"
NOT_RINF_ABELIAN = "NOT_RINF_ABELIAN"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class Certificate:
    verdict: str
    rule: str
    citation: str
    graph: Graph
    children: tuple["Certificate", ...] = ()

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rule": self.rule,
            "citation": self.citation,
            "graph6": _serial6(self.graph),
            "children": [child.to_dict() for child in self.children],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class JoinDecomposition(NamedTuple):
    centre_size: int
    factors: tuple[Graph, ...]


def max_join_decomposition(g: Graph) -> JoinDecomposition:
    """Unique maximal join decomposition of a connected graph.

    The singleton components of the complement form the centre (the vertices
    adjacent to everything else); the others induce the factors, each with a
    connected complement on at least two vertices, so never complete.
    """
    if g.n < 1:
        raise InputError("decomposition needs at least one vertex")
    if not g.is_connected():
        raise InputError("decomposition is defined for connected graphs")
    comps = complement(g).components()
    factors = _join_factors(g, comps)
    return JoinDecomposition(len(comps) - len(factors), factors)


def _join_factors(g: Graph, co_components: tuple[VertexSet, ...]) -> tuple[Graph, ...]:
    """The join factors of ``g``, given the components of its complement."""
    return tuple(induced(g, comp) for comp in co_components if len(comp) > 1)


class SimplificationResult(NamedTuple):
    terminal: Graph
    chain: tuple[Graph, ...]
    category: str


def simplify(g: Graph) -> SimplificationResult:
    """Iterated deletion of the maximal-degree vertices.

    The chain of characteristic quotients ends at the first regular graph it
    produces.  The terminal is that graph when it is non-complete (category
    ``disconnected`` or ``regular``), and otherwise the graph one step earlier,
    which is then disconnected or max-by-abelian.
    """
    if g.n < 1:
        raise InputError("simplification needs at least one vertex")
    if g.is_complete():
        raise InputError("simplification is defined for non-complete graphs")
    chain = [g]
    while not chain[-1].is_regular():
        chain.append(induced(chain[-1], chain[-1].max_degree_vertices().complement()))
    last = chain[-1]
    terminal = last if not last.is_complete() else chain[-2]
    if not terminal.is_connected():
        category = "disconnected"
    elif terminal.is_regular():
        category = "regular"
    else:
        category = "max_by_abelian"
    return SimplificationResult(terminal, tuple(chain), category)


# -- the rule table -------------------------------------------------------------


class Reduction(NamedTuple):
    """One way a rule applies: its citation, the child graphs it reduces to
    (none for a leaf), and the vertex set a quotient deletes, which must be
    characteristic."""

    citation: str
    children: tuple[Graph, ...]
    deleted: Optional[VertexSet] = None


Reductions = Callable[[Graph], Iterator[Reduction]]


class Rule(NamedTuple):
    """A rule's name, the verdict it proves, and ``reductions(g)``, which lazily
    yields each way the rule applies to ``g`` in the order ``certify`` tries
    them, and nothing when its hypothesis fails.  A budget it would exceed
    raises ``ResourceError``."""

    name: str
    verdict: str
    reductions: Reductions


def _leaf_if(holds: Callable[[Graph], bool], citation: str) -> Reductions:
    def reductions(g: Graph) -> Iterator[Reduction]:
        if holds(g):
            yield Reduction(citation, ())

    return reductions


def _deletion(g: Graph, deleted: VertexSet, citation: str) -> Iterator[Reduction]:
    """The quotient deleting ``deleted``, when something is deleted and what is
    left is a non-complete graph on at least two vertices."""
    if 0 < len(deleted) <= g.n - 2:
        quotient = induced(g, deleted.complement())
        if not quotient.is_complete():
            yield Reduction(citation, (quotient,), deleted)


def _srg(g: Graph) -> Iterator[Reduction]:
    params = srg_parameters(g)
    if params is not None and params.mu == params.k:
        yield Reduction(
            "strongly regular with mu = k: complete multipartite, a join of edgeless "
            "blocks, hence a direct product of non-abelian free groups",
            max_join_decomposition(g).factors,
        )


def _join_factor(g: Graph) -> Iterator[Reduction]:
    # A connected complement is one factor and no centre, so no reduction;
    # that is also the case of every disconnected g.  Two or more complement
    # components leave a centre or a second factor beside any factor.
    comps = complement(g).components()
    if len(comps) == 1:
        return
    factors = _join_factors(g, comps)
    if factors:
        yield Reduction(
            "maximal join decomposition: if one join factor has R-infinity, the whole "
            "direct product does",
            factors,
        )


def _simplification(g: Graph) -> Iterator[Reduction]:
    if not g.is_regular():
        yield from _deletion(
            g, g.max_degree_vertices(),
            "deleting all maximal-degree vertices is a characteristic quotient onto a "
            "smaller defining graph",
        )


def _mba_links(g: Graph, low: int) -> Optional[list[int]]:
    """Links of the vertices of non-maximal degree of a max-by-abelian graph
    with exactly ``low`` of them, else None; counting them first keeps
    ``mba_parameters`` to the rules whose count matches."""
    nonmax = g.max_degree_vertices().complement()
    if len(nonmax) != low or mba_parameters(g) is None:
        return None
    return [g.rows[v] for v in nonmax]


def _links_partition(g: Graph, lk1: int, lk2: int) -> bool:
    return lk1 ^ lk2 == (1 << g.n) - 1


def _add_cross_edges(g: Graph, side1: int, side2: int) -> Graph:
    """``g`` with every edge between the disjoint vertex masks ``side1`` and ``side2``."""
    rows = list(g.rows)
    for v in range(g.n):
        if side1 >> v & 1:
            rows[v] |= side2
        elif side2 >> v & 1:
            rows[v] |= side1
    return _trusted_graph(g.n, tuple(rows))


def _mba_k_n1(g: Graph) -> Iterator[Reduction]:
    if _mba_links(g, 1) is not None:
        yield from _deletion(
            g, mba_characteristic_sets(g).link_intersection,
            "one vertex of non-maximal degree: quotient by the normal closure of its "
            "link is characteristic and leaves a disconnected graph",
        )


def _mba_k_n2_split(g: Graph) -> Iterator[Reduction]:
    links = _mba_links(g, 2)
    if links is not None and _links_partition(g, *links):
        yield Reduction(
            "the links of the two non-maximal vertices partition the vertices: adding "
            "all cross edges is a characteristic quotient onto a join of two "
            "disconnected graphs",
            (_add_cross_edges(g, *links),),
        )


def _mba_k_n2_quotient(g: Graph) -> Iterator[Reduction]:
    links = _mba_links(g, 2)
    if links is None or _links_partition(g, *links):
        return
    sets = mba_characteristic_sets(g)
    yield from _deletion(
        g, sets.link_intersection or sets.max_degree_linked,
        "two non-maximal vertices: quotient by the intersection of their links, or by "
        "the maximal-degree vertices their links cover, leaves a smaller non-complete "
        "graph",
    )


def _char_closure(g: Graph) -> Iterator[Reduction]:
    masks = {closure.mask: None for closure in characteristic_closures(g)}
    masks.setdefault(transvection_free_vertices(g).mask)
    for mask in masks:
        yield from _deletion(
            g, VertexSet(mask, g.n),
            "quotient by a characteristic closure, or by the set of transvection-free "
            "vertices, is a characteristic quotient",
        )


RULES: tuple[Rule, ...] = (
    Rule("ABELIAN", NOT_RINF_ABELIAN, _leaf_if(
        Graph.is_complete,
        "complete graph: the group is free abelian and admits automorphisms with "
        "finite Reidemeister number")),
    Rule("DISCONNECTED", RINF, _leaf_if(
        lambda g: not g.is_connected(),
        "disconnected graph: free product of freely indecomposable factors with "
        "finite-index characteristic subgroups has R-infinity")),
    Rule("TRANSVECTION_FREE", RINF, _leaf_if(
        is_transvection_free_graph,
        "transvection-free graph: every automorphism acts through signed graph "
        "symmetries and partial conjugations, and some graded piece of the lower "
        "central series carries eigenvalue 1")),
    Rule("SRG", RINF, _srg),
    Rule("JOIN_FACTOR", RINF, _join_factor),
    Rule("SIMPLIFICATION", RINF, _simplification),
    Rule("MBA_K_N1", RINF, _mba_k_n1),
    Rule("MBA_K_N2_SPLIT", RINF, _mba_k_n2_split),
    Rule("MBA_K_N2_QUOTIENT", RINF, _mba_k_n2_quotient),
    Rule("CHAR_CLOSURE_GENERIC", RINF, _char_closure),
    Rule("FALLBACK", UNDECIDED, _leaf_if(
        lambda g: True, "no rule applies; conjecturally the group still has R-infinity")),
)
RULES_BY_NAME = {rule.name: rule for rule in RULES}


def certify(g: Graph) -> Certificate:
    """Deterministic certificate for the graph's group: the first reduction, in
    table order, that is a leaf or has a child with R-infinity.  A rule that
    would exceed a search budget does not apply."""
    if g.n < 1:
        raise InputError("certification needs at least one vertex")
    for rule in RULES:
        try:
            for citation, graphs, _ in rule.reductions(g):
                children = tuple(certify(h) for h in graphs)
                if not children or any(child.verdict == RINF for child in children):
                    return Certificate(rule.verdict, rule.name, citation, g, children)
        except ResourceError:
            continue
    raise AssertionError("the FALLBACK leaf applies to every graph")


# -- independent soundness audit ---------------------------------------------

FIELDS = ("verdict", "rule", "citation", "graph6", "children")


def _shape_problem(node: object, check_children: bool = True) -> Optional[str]:
    """First malformed field of a node, or of one of its children, or None."""
    if not isinstance(node, dict):
        return "node is not an object"
    for key in FIELDS:
        if key not in node:
            return f"missing field {key}"
    if not isinstance(node["graph6"], str):
        return "graph6 is not a string"
    if not isinstance(node["children"], list):
        return "children is not a list"
    for idx, child in enumerate(node["children"] if check_children else ()):
        problem = _shape_problem(child, check_children=False)
        if problem is not None:
            return f"child {idx}: {problem}"
    return None


def _rule_problem(node: dict) -> Optional[str]:
    """First failed check of a well-formed node against its rule, or None;
    raises ``ResourceError`` when re-deriving the node exceeds a budget."""
    try:
        g = from_graph6(node["graph6"])
    except InputError as exc:
        return f"bad graph6: {exc}"
    name = node["rule"]
    rule = RULES_BY_NAME.get(name) if isinstance(name, str) else None
    if rule is None:
        return f"unknown rule {name!r}"
    if node["verdict"] != rule.verdict:
        return f"rule {rule.name} proves {rule.verdict}, not {node['verdict']!r}"
    children = node["children"]
    recorded = sorted(child["graph6"] for child in children)
    for citation, graphs, deleted in rule.reductions(g):
        if len(graphs) == len(recorded) and sorted(_serial6(h) for h in graphs) == recorded:
            break
    else:
        return f"children match no reduction of rule {rule.name}"
    if graphs and not any(child["verdict"] == RINF for child in children):
        return "no child has R-infinity"
    if any((h.n, h.non_edge_count) >= (g.n, g.non_edge_count) for h in graphs):
        return "a child does not decrease the (n, non-edges) measure"
    if (deleted is not None and g.n <= CANONICAL_MAX_N
            and not is_characteristic_vertex_set(g, deleted)):
        return "deleted vertex set fails the characteristic-set test"
    if node["citation"] != citation:
        return f"citation is not rule {rule.name}'s"
    return None


def audit_certificate(node: object) -> list[str]:
    """Re-validate every rule application in a serialized certificate.

    Walks the tree in preorder, re-deriving each node's hypotheses from its
    graph6 string alone.  A node passes when its rule is in ``RULES``, its
    verdict is the rule's, its children match one reduction of the rule, some
    child has R-infinity, every child strictly decreases (vertex count,
    non-edge count), within the symmetry budget a deleted vertex set is
    characteristic, and its citation is that reduction's.  Returns the problems,
    each prefixed by the node's path; an empty list means the certificate is
    sound.  Any JSON value is accepted; a node it cannot re-derive fails.
    """
    problems: list[str] = []
    stack: list[tuple[str, object]] = [("root", node)]
    while stack:
        path, current = stack.pop()
        problem = _shape_problem(current)
        if problem is None:
            children = current["children"]
            stack.extend((f"{path}/{i}", children[i]) for i in reversed(range(len(children))))
            try:
                problem = _rule_problem(current)
            except ResourceError as exc:
                problem = f"cannot re-derive the node: {exc}"
        if problem is not None:
            problems.append(f"{path}: {problem}")
    return problems
