"""Hand-made breaks of ``src/raagcert``, kept as data so that any later change
can run them again (``test_mutants.py``, marked ``slow``).

Each entry names a file of the package, the exact text the mutant replaces
(it must occur exactly once in that file), the replacement, and either the
test files that must fail with the mutant applied or, for a mutant that
changes no behaviour, the reason no test can catch it.  A change that runs a
mutation check adds the mutants it ran here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...] = ()
    equivalent: Optional[str] = None


MUTANTS = (
    # -- the characteristic-set test: closures then refined cells then orbits --
    Mutant(
        name="refinement-miss-returns-false",
        file="closures.py",
        old="""    orbits = vertex_orbits(g)
    return not any(orbits[v] & ~s.mask for v in s)
""",
        new="""    return False
""",
        tests=("test_closures.py",),
    ),
    Mutant(
        name="unit-partition-accepted",
        file="closures.py",
        old="""    cells = list(by_degree.values())
    while True:
""",
        new="""    yield [(1 << g.n) - 1]
    cells = list(by_degree.values())
    while True:
""",
        equivalent="the unit partition's only unions are the empty set and every vertex, "
                   "and both are characteristic once the domination closures are",
    ),
    Mutant(
        name="discrete-partition-accepted",
        file="closures.py",
        old="""    cells = list(by_degree.values())
    while True:
""",
        new="""    yield [1 << v for v in range(g.n)]
    cells = list(by_degree.values())
    while True:
""",
        tests=("test_closures.py",),
    ),
    Mutant(
        name="domination-closure-check-dropped",
        file="closures.py",
        old="""    if any(_closure_mask(g, v) & ~s.mask for v in s):
        return False
""",
        new="",
        tests=("test_closures.py",),
    ),
    Mutant(
        name="size-guard-dropped",
        file="closures.py",
        old="""    if not 1 <= g.n <= CANONICAL_MAX_N:
        vertex_orbits(g)""",
        new="""    if False:
        vertex_orbits(g)""",
        tests=("test_closures.py",),
    ),
    # -- exact shortcuts: isolated vertices first, and stops once the answer is known --
    Mutant(
        name="isolated-vertices-descending",
        file="isomorphism.py",
        old="""    order = [v for v, row in enumerate(rows) if not row]
""",
        new="""    order = [v for v, row in enumerate(rows) if not row][::-1]
""",
        tests=("test_isomorphism.py",),
    ),
    Mutant(
        name="closure-stops-after-first-star",
        file="closures.py",
        old="""        if closure == alone:
            break""",
        new="""        if True:
            break""",
        tests=("test_closures.py",),
    ),
    Mutant(
        name="closure-stops-when-empty",
        file="closures.py",
        old="""        if closure == alone:
            break""",
        new="""        if closure == 0:
            break""",
        equivalent="v lies in every neighbour's star, so the closure is never empty and "
                   "the loop runs to the end, as it did before the stop was added",
    ),
    Mutant(
        name="connected-on-layer-alone",
        file="graphs.py",
        old="""            if comp | grow == full:""",
        new="""            if grow == full:""",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="join-bail-inverted",
        file="certify.py",
        old="""    if len(comps) == 1:""",
        new="""    if len(comps) != 1:""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="vertex-type-check-dropped",
        file="graphs.py",
        old="""        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an exact integer")""",
        new="""        if False:
            raise InputError(f"vertex {v!r} is not an exact integer")""",
        tests=("test_graphs.py",),
    ),
    # -- the auditor: each check of _rule_problem and _shape_problem --
    Mutant(
        name="auditor-skips-characteristic-check",
        file="certify.py",
        old="""            and not is_characteristic_vertex_set(g, deleted)):""",
        new="""            and False):""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="auditor-raises-on-bad-graph6",
        file="certify.py",
        old='        return f"bad graph6: {exc}"',
        new="""        raise""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="auditor-reads-unknown-rule-as-fallback",
        file="certify.py",
        old='        return f"unknown rule {name!r}"',
        new="""        rule = RULES_BY_NAME["FALLBACK"]""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="auditor-skips-verdict-check",
        file="certify.py",
        old="""    if node["verdict"] != rule.verdict:""",
        new="""    if False:""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="auditor-accepts-unmatched-children",
        file="certify.py",
        old='        return f"children match no reduction of rule {rule.name}"',
        new="""        graphs, deleted = (), None""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="auditor-skips-rinf-child-check",
        file="certify.py",
        old="""    if graphs and not any(child["verdict"] == RINF for child in children):""",
        new="""    if False:""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="auditor-skips-measure-check",
        file="certify.py",
        old="""    if any((h.n, h.non_edge_count) >= (g.n, g.non_edge_count) for h in graphs):""",
        new="""    if False:""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="auditor-skips-citation-check",
        file="certify.py",
        old="""    if node["citation"] != citation:""",
        new="""    if False:""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="shape-skips-graph6-type",
        file="certify.py",
        old="""    if not isinstance(node["graph6"], str):""",
        new="""    if False:""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="shape-skips-children-type",
        file="certify.py",
        old="""    if not isinstance(node["children"], list):""",
        new="""    if False:""",
        tests=("test_certify.py",),
    ),
    # -- graph6 input checks --
    Mutant(
        name="graph6-accepts-the-empty-graph",
        file="graphs.py",
        old="""    if n == 0:
        raise InputError("the empty graph is not accepted at offset 0")""",
        new="",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="graph6-skips-vertex-cap",
        file="graphs.py",
        old="""    if n > MAX_VERTICES:
        raise InputError(f"graph6 header declares""",
        new="""    if False:
        raise InputError(f"graph6 header declares""",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="graph6-skips-body-length",
        file="graphs.py",
        old="""    if len(body) != need:""",
        new="""    if len(body) < need:""",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="graph6-skips-padding",
        file="graphs.py",
        old="""    if "1" in bits[npairs:6 * need]:""",
        new="""    if False:""",
        tests=("test_graphs.py",),
    ),
    # -- one parser per process, dispatch through the current bindings --
    Mutant(
        name="dispatch-stores-func-in-parser",
        file="cli.py",
        old="""            return globals()[f"cmd_{args.command}"](args, out)""",
        new="""            return _parser.__dict__.setdefault(
                f"cmd_{args.command}", globals()[f"cmd_{args.command}"])(args, out)""",
        tests=("test_cli.py",),
    ),
    Mutant(
        name="parser-rebuilt-per-call",
        file="cli.py",
        old="""    if _parser is None:
        _parser = build_parser()""",
        new="""    if True:
        _parser = build_parser()""",
        tests=("test_cli.py",),
    ),
)
