"""Rule engine that certifies the R-infinity property of the right-angled
Artin group of a graph, and an independent auditor for its certificates.

A certificate is a tree of rule applications.  Leaves invoke base facts
(disconnectedness, transvection-freeness); internal nodes reduce to strictly
smaller instances through characteristic quotients or join decompositions,
so every recursion strictly decreases the pair (vertex count, non-edge count)
lexicographically.
Complete graphs are the definite negative case, and UNDECIDED is an honest
first-class verdict rather than an error.

Each rule is defined once, as an entry of ``RULES``: its name, the verdict it
proves, and the reductions it allows on a graph.  ``certify`` searches the
table and ``audit_certificate`` checks a serialized tree against the same
table, re-deriving every node from its graph6 string alone.  The auditor fails
closed: a node it cannot re-derive within the search budgets is a problem, and
so are malformed JSON values, which it reports instead of raising.  Every
quotient deletes a vertex set, so the auditor re-tests each one as
characteristic, at every size; above 10 vertices a set that colour
refinement leaves undecided fails closed the same way.  ``CHAR_QUOTIENT``
tries characteristic closures, which need the vertex orbits, last and only
up to ``CANONICAL_MAX_N`` (10) vertices, so none of its nodes above that
needs an orbit search to audit.

Within a ``shared_searches()`` scope, which the CLI opens around each
command, both halves do each piece of work once.  A certificate is a
function of the labelled graph and of ``RULES``, so ``certify`` stores it per
labelled graph (its rows) together with the rule table that made it.  The
auditor's re-derivation of a node, ``_rule_problem``, reads nothing of the
node but its graph6, rule, verdict and citation and each child's graph6 and
verdict, and nothing outside it but the rule that ``RULES_BY_NAME`` gives
for its name (the rule's reductions are functions of the parsed graph).  So
``_audited`` keys its answer on exactly those values, when each is an exact
``str``, and uses it again only under the very same rule.  A node holding
any other value, or whose re-derivation exceeds a budget, is audited
afresh.  Outside a scope nothing is stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional

from .closures import (
    _cell_of,
    _closure,
    _refined_partitions,
    characteristic_closures,
    is_characteristic_vertex_set,
    is_transvection_free_graph,
)
from .errors import InputError, ResourceError
from .graphs import (
    Graph,
    VertexSet,
    complement,
    from_graph6,
    induced,
    to_graph6,
)
from .isomorphism import CANONICAL_MAX_N, _store, canonical_form
# unused: benchmarks/tests/test_bench_trace.py reads raagcert.certify.automorphisms
from .isomorphism import automorphisms  # noqa: F401


def _serial6(g: Graph) -> str:
    """graph6 for certificates: canonical below the labelling budget, so
    isomorphic graphs serialize identically; verbatim labelling above it."""
    if g.n <= CANONICAL_MAX_N:
        return canonical_form(g).decode("ascii")
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


def _join_factor(g: Graph) -> Iterator[Reduction]:
    # A connected complement is one factor and no centre, so no reduction;
    # that is also the case of every disconnected g.  Two or more complement
    # components leave a centre or a second factor beside any factor.
    comps = complement(g).components()
    if len(comps) == 1:
        return
    factors = tuple(induced(g, comp) for comp in comps if len(comp) > 1)
    if factors:
        yield Reduction(
            "maximal join decomposition: if one join factor has R-infinity, the whole "
            "direct product does",
            factors,
        )


def _characteristic_sets(g: Graph) -> Iterator[int]:
    """The masks that CHAR_QUOTIENT deletes, in order: the maximal-degree
    vertices; for each cell C of the degree partition and of the partition
    after one refinement round, the separator T = cl(N(C) - C) on the latter
    partition when T misses C, so that the quotient cuts C off; then each
    vertex's characteristic closure, whose orbit search raises
    ``ResourceError`` above ``CANONICAL_MAX_N`` vertices and so ends the rule
    there.  Each is characteristic at every size (see the closures module)."""
    if not g.is_regular():
        yield g.max_degree_vertices().mask
    partitions = list(islice(_refined_partitions(g), 2))
    cell_of = _cell_of(g.n, partitions[-1])
    for cell in dict.fromkeys(cell for cells in partitions for cell in cells):
        outside = 0
        for v in VertexSet(cell, g.n):
            outside |= g.rows[v]
        separator = _closure(g, cell_of, outside & ~cell, avoid=cell)
        if not separator & cell:
            yield separator
    for closure in characteristic_closures(g):
        yield closure.mask


def _char_quotient(g: Graph) -> Iterator[Reduction]:
    tried: set[int] = set()
    for mask in _characteristic_sets(g):
        if mask not in tried:
            tried.add(mask)
            yield from _deletion(
                g, VertexSet(mask, g.n),
                "deleting a characteristic vertex set is a characteristic quotient onto a "
                "smaller defining graph")


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
    Rule("JOIN_FACTOR", RINF, _join_factor),
    Rule("CHAR_QUOTIENT", RINF, _char_quotient),
    Rule("FALLBACK", UNDECIDED, _leaf_if(
        lambda g: True, "no rule applies; conjecturally the group still has R-infinity")),
)
RULES_BY_NAME = {rule.name: rule for rule in RULES}


def certify(g: Graph) -> Certificate:
    """Deterministic certificate for the graph's group: the first reduction, in
    table order, that is a leaf or has a child with R-infinity.  A reduction
    that would exceed a search budget ends its rule's turn.  Within a
    ``shared_searches()`` scope a later call on the same rows, under the very
    same ``RULES``, returns the stored certificate."""
    if g.n < 1:
        raise InputError("certification needs at least one vertex")
    rules = RULES
    store = _store("certificates")
    stored = None if store is None else store.get(g.rows)
    if stored is not None and stored[0] is rules:
        return stored[1]
    for rule in rules:
        try:
            for citation, graphs, _ in rule.reductions(g):
                children = tuple(certify(h) for h in graphs)
                if not children or any(child.verdict == RINF for child in children):
                    cert = Certificate(rule.verdict, rule.name, citation, g, children)
                    if store is not None:
                        store[g.rows] = rules, cert
                    return cert
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


def _audited(node: dict) -> Optional[str]:
    """``_rule_problem(node)``, stored within a ``shared_searches()`` scope
    under the values it reads (see the module docstring)."""
    store = _store("audits")
    if store is None:
        return _rule_problem(node)
    key = (node["graph6"], node["rule"], node["verdict"], node["citation"],
           *[value for child in node["children"] for value in (child["graph6"], child["verdict"])])
    if any(type(value) is not str for value in key):
        return _rule_problem(node)
    rule = RULES_BY_NAME.get(key[1])
    stored = store.get(key)
    if stored is not None and stored[0] is rule:
        return stored[1]
    problem = _rule_problem(node)
    store[key] = rule, problem
    return problem


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
    if graphs:
        measure = (g.n, g.non_edge_count)
        if any((h.n, h.non_edge_count) >= measure for h in graphs):
            return "a child does not decrease the (n, non-edges) measure"
    if deleted is not None and not is_characteristic_vertex_set(g, deleted):
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
    non-edge count), a deleted vertex set is characteristic, and its citation
    is that reduction's.  Returns the problems, each prefixed by the node's
    path; an empty list means the certificate is sound.  Any JSON value is
    accepted; a node it cannot re-derive fails.
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
                problem = _audited(current)
            except ResourceError as exc:
                problem = f"cannot re-derive the node: {exc}"
        if problem is not None:
            problems.append(f"{path}: {problem}")
    return problems
