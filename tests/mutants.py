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
        name="join-factors-drop-pairs",
        file="certify.py",
        old="""if len(comp) > 1)""",
        new="""if len(comp) > 2)""",
        tests=("test_certify.py",),
    ),
    Mutant(
        name="vertex-type-check-dropped",
        file="graphs.py",
        old="""        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an exact integer")
        if not 0 <= v < self.n:""",
        new="""        if False:
            raise InputError(f"vertex {v!r} is not an exact integer")
        if not 0 <= v < self.n:""",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="vertex-set-of-type-check-dropped",
        file="graphs.py",
        old="""            if type(v) is not int:
                raise InputError(f"vertex {v!r} is not an exact integer")""",
        new="",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="vertex-set-type-check-dropped",
        file="graphs.py",
        old="""        if type(self.mask) is not int or type(self.n) is not int:""",
        new="""        if False:""",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="graph-type-check-dropped",
        file="graphs.py",
        old="""        if type(self.n) is not int or any(type(row) is not int for row in self.rows):""",
        new="""        if False:""",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="vertex-count-type-check-dropped",
        file="graphs.py",
        old="""    if type(n) is not int:
        raise InputError(f"vertex count""",
        new="""    if False:
        raise InputError(f"vertex count""",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="edge-endpoint-type-check-dropped",
        file="graphs.py",
        old="""        if type(u) is not int or type(v) is not int:""",
        new="""        if False:""",
        tests=("test_graphs.py",),
    ),
    Mutant(
        name="vertex-set-membership-type-check-dropped",
        file="graphs.py",
        old="""        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an exact integer")
        return 0 <= v < self.n""",
        new="""        return 0 <= v < self.n""",
        tests=("test_graphs.py",),
    ),
    # -- the Lyndon test: Duval's scan of the standard word --
    Mutant(
        name="lyndon-scan-accepts-every-word",
        file="lyndon.py",
        old="""    return j == 0
""",
        new="""    return True
""",
        tests=("test_lyndon.py",),
    ),
    Mutant(
        name="lyndon-scan-equal-letter-resets",
        file="lyndon.py",
        old="""        elif w[j] == w[i]:
            j += 1""",
        new="""        elif w[j] == w[i]:
            j = 0""",
        tests=("test_lyndon.py",),
    ),
    Mutant(
        name="lyndon-accepts-the-trivial-trace",
        file="lyndon.py",
        old="""    if not w:
        raise InputError("the trivial trace is not eligible")
""",
        new="",
        tests=("test_lyndon.py",),
    ),
    # -- standard factorization: the least proper suffix of the standard word --
    Mutant(
        name="standard-factor-takes-the-largest-suffix",
        file="lyndon.py",
        old="""    return min(range(1, len(w)), key=lambda i: w[i:])""",
        new="""    return max(range(1, len(w)), key=lambda i: w[i:])""",
        tests=("test_lyndon.py",),
    ),
    Mutant(
        name="bracketing-skips-the-lyndon-check",
        file="lyndon.py",
        old="""    if not is_lyndon(m):
        raise InputError("bracketing is defined for Lyndon traces")
""",
        new="",
        tests=("test_lyndon.py",),
    ),
    # -- the Lyndon enumeration: standard words pruned by Duval's scan --
    Mutant(
        name="lyndon-prune-drops-the-equal-letter",
        file="lyndon.py",
        old="""for a in range(w[j], n)""",
        new="""for a in range(w[j] + 1, n)""",
        tests=("test_lyndon.py",),
    ),
    Mutant(
        name="lyndon-prune-never-resets",
        file="lyndon.py",
        old="""j + 1 if a == w[j] else 0)""",
        new="""j + 1)""",
        tests=("test_lyndon.py",),
    ),
    Mutant(
        name="lyndon-enumeration-drops-the-filter",
        file="lyndon.py",
        old="""        if is_lyndon(m):
            found.append(m)""",
        new="""        if True:
            found.append(m)""",
        tests=("test_lyndon.py",),
    ),
    # -- the automorphism check: a permutation check, then one lookup per edge --
    Mutant(
        name="is-automorphism-skips-permutation-check",
        file="isomorphism.py",
        old="""    if list(map(type, perm)).count(int) != len(perm) or sorted(perm) != list(range(g.n)):
        return False
""",
        new="",
        tests=("test_isomorphism.py",),
    ),
    Mutant(
        name="is-automorphism-reads-unpermuted-row",
        file="isomorphism.py",
        old="""        if not rows[perm[u]] >> perm[v] & 1:""",
        new="""        if not rows[u] >> perm[v] & 1:""",
        tests=("test_isomorphism.py",),
    ),
    Mutant(
        name="edge-list-cached-by-vertex-count",
        file="isomorphism.py",
        old="""@functools.lru_cache(maxsize=1)
def _edge_list(g: Graph) -> tuple[tuple[int, int], ...]:
""",
        new="""def _edge_list(g: Graph) -> tuple[tuple[int, int], ...]:
    return _edge_lists.setdefault(g.n, _edges(g))


_edge_lists: dict[int, tuple[tuple[int, int], ...]] = {}


def _edges(g: Graph) -> tuple[tuple[int, int], ...]:
""",
        tests=("test_isomorphism.py",),
    ),
    Mutant(
        name="graph-keeps-list-rows",
        file="graphs.py",
        old="""        object.__setattr__(self, "rows", tuple(self.rows))
""",
        new="",
        tests=("test_graphs.py", "test_liering.py"),
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
        old="""        if any((h.n, h.non_edge_count) >= measure for h in graphs):""",
        new="""        if False:""",
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
