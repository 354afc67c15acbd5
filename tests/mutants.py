"""Hand-made breaks of ``src/raagcert``, kept as data so that any later change
can run them again (``test_mutants.py``, marked ``slow``).

Each entry names a file of the package, the exact text the mutant replaces
(it must occur exactly once in that file), the replacement, and either the
test files or test ids (``file::test``) that must fail with the mutant
applied or, for a mutant that changes no behaviour, the reason no test can
catch it.  A change that runs a mutation check adds the mutants it ran here.
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
        name="audit-skips-char-sets-above-10",
        file="certify.py",
        old="""    if deleted is not None and not is_characteristic_vertex_set(g, deleted):""",
        new="""    if deleted is not None and g.n <= 10 and not is_characteristic_vertex_set(g, deleted):""",
        tests=("test_certify.py::test_audit_rechecks_deleted_sets_on_64_vertices",),
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
        old="""            if reached | grow == full:""",
        new="""            if grow == full:""",
        equivalent="the walk returns the set it reached, so a stop test that reads the "
                   "last layer alone only stops later, at the layer that adds nothing",
    ),
    Mutant(
        name="components-forget-earlier-ones",
        file="graphs.py",
        old="""                seen |= comp""",
        new="""                seen = comp""",
        tests=("test_graphs.py::test_components_match_networkx",),
    ),
    # -- graphs built and relabelled in whole rows, validated once --
    Mutant(
        name="relabel-moves-rows-not-columns",
        file="graphs.py",
        old="""        for v, col in zip(perm, _transpose(self.n, rows)):
            rows[v] = col
""",
        new="",
        tests=("test_graphs.py::test_relabel_matches_oracle",),
    ),
    Mutant(
        name="from-edges-sets-one-row",
        file="graphs.py",
        old="""        rows[v] |= 1 << u
""",
        new="",
        tests=("test_graphs.py::test_from_edges_matches_the_validating_constructor",),
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
    # -- canonical augmentation: one orbit test per extension, no dedup --
    # the counting oracle alone (Burnside's count, networkx pairwise) must see
    # a duplicated or a missing class, with no digest pinned
    Mutant(
        name="augmentation-accepts-without-orbit-test",
        file="isomorphism.py",
        old="""                if roots[last] != roots[m - 1]:""",
        new="""                if False:""",
        tests=("test_isomorphism.py::test_enumeration_is_complete_by_counting",),
    ),
    Mutant(
        name="augmentation-skips-last-orbit-least-mask",
        file="isomorphism.py",
        old="""        for mask in _orbit_least_masks(h.n, generators):""",
        new="""        for mask in _orbit_least_masks(h.n, generators)[:-1]:""",
        tests=("test_isomorphism.py::test_enumeration_is_complete_by_counting",),
    ),
    # the smallest pair also gives a canonical vertex, so every class is still
    # kept once; only the representatives move, which the oracle sees
    Mutant(
        name="augmentation-picks-the-smallest-pair",
        file="isomorphism.py",
        old="""            if degree < h_top or degree == h_top and mask & at_top:
                continue
            cand = _extension(h, mask)
            degrees = [deg + (mask >> u & 1) for u, deg in enumerate(h_degrees)]
            degrees.append(degree)
            # the neighbours' degree sum of each vertex of v's (largest) degree
            sums = {u: sum(degrees[w] for w in range(m) if row >> w & 1)
                    for u, row in enumerate(cand.rows) if degrees[u] == degree}
            top = max(sums.values())""",
        new="""            cand = _extension(h, mask)
            degrees = [deg + (mask >> u & 1) for u, deg in enumerate(h_degrees)]
            degrees.append(degree)
            if min(degrees) < degree:
                continue
            sums = {u: sum(degrees[w] for w in range(m) if row >> w & 1)
                    for u, row in enumerate(cand.rows) if degrees[u] == degree}
            top = min(sums.values())""",
        tests=("test_isomorphism.py::test_enumerate_matches_oracle",),
    ),
    # -- canonical graph6: the search's columns packed, never a relabelled graph --
    Mutant(
        name="canonical-form-packs-reversed-columns",
        file="isomorphism.py",
        old="""    return _graph6_from_columns(g.n, columns).encode("ascii")""",
        new="""    return _graph6_from_columns(g.n, columns[::-1]).encode("ascii")""",
        tests=("test_isomorphism.py::test_canonical_graph6_packs_the_relabelled_graph",),
    ),
    Mutant(
        name="serial6-encodes-the-given-labelling",
        file="certify.py",
        old="""        return canonical_form(g).decode("ascii")""",
        new="""        return to_graph6(g)""",
        tests=("test_certify.py",),
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
        name="automorphism-memo-ignores-graph",
        file="isomorphism.py",
        old="""    if perm is last_perm and g is last_g:""",
        new="""    if perm is last_perm:""",
        tests=("test_isomorphism.py::test_accepted_pair_memo_compares_identities",),
    ),
    Mutant(
        name="automorphism-memo-keeps-lists",
        file="isomorphism.py",
        old="""    if type(perm) is tuple:
        _accepted = g, perm""",
        new="""    _accepted = g, perm""",
        tests=("test_isomorphism.py::test_accepted_pair_memo_compares_identities",),
    ),
    # -- the witness scan: levels 2 and 3 once per permutation, by the lemma --
    Mutant(
        name="witness-level-kept-across-permutations",
        file="liering.py",
        old="""        if a.perm != perm:""",
        new="""        if perm is None:""",
        tests=("test_liering.py::test_witness_scan_matches_brute_oracle",),
    ),
    Mutant(
        name="witness-report-drops-a-failure",
        file="liering.py",
        old="""counts, tuple(failures))""",
        new="""counts, tuple(failures[1:]))""",
        tests=("test_liering.py::test_witness_scan_reports_failures_in_scan_order",),
    ),
    Mutant(
        name="induced-matrix-takes-inexact-levels",
        file="liering.py",
        old="""    if type(level) is not int:
        raise InputError(f"level {level!r} is not an exact integer")
""",
        new="",
        tests=("test_liering.py::test_induced_matrix_level2_signs",),
    ),
    Mutant(
        name="enumeration-takes-inexact-sizes",
        file="isomorphism.py",
        old="""    if type(n) is not int:
        raise InputError(f"vertex count {n!r} is not an exact integer")
""",
        new="",
        tests=("test_graphs.py::test_vertices_must_be_exact_integers",),
    ),
    Mutant(
        name="graph-keeps-list-rows",
        file="graphs.py",
        old="""        object.__setattr__(self, "rows", tuple(self.rows))
""",
        new="",
        tests=("test_graphs.py", "test_liering.py"),
    ),
    # -- CHAR_QUOTIENT's sets: cl() holds each member's cell, and a separator misses its cell --
    Mutant(
        name="closure-skips-the-cell-union",
        file="closures.py",
        old="""        mask = (mask | cell_of[v] | _closure_mask(g, v)) & ~closed""",
        new="""        mask = (mask | _closure_mask(g, v)) & ~closed""",
        tests=("test_certify.py::test_orbit_closure_certificate_audits_clean",),
    ),
    Mutant(
        name="separator-may-meet-its-cell",
        file="certify.py",
        old="""        if not separator & cell:""",
        new="""        if True:""",
        tests=("test_closures.py::test_char_quotient_sets_are_characteristic_on_small_classes",),
    ),
    # -- the auditor: each check of _rule_problem and _shape_problem --
    Mutant(
        name="auditor-skips-characteristic-check",
        file="certify.py",
        old="""and not is_characteristic_vertex_set(g, deleted):""",
        new="""and False:""",
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
        name="graph-cap-dropped",
        file="graphs.py",
        old="""        if self.n > MAX_VERTICES:
            raise InputError""",
        new="""        if False:
            raise InputError""",
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
    # -- stdin decoded as a file is, unless it cannot be reconfigured --
    Mutant(
        name="stdin-keeps-the-locale-decoding",
        file="cli.py",
        old="""                sys.stdin.reconfigure(encoding="ascii", errors="replace")""",
        new="""                pass""",
        tests=("test_cli.py::test_a_non_ascii_byte_on_stdin_names_its_line_whatever_the_locale",),
    ),
    Mutant(
        name="stdin-begun-is-an-error",
        file="cli.py",
        old="""            except (AttributeError, io.UnsupportedOperation):""",
        new="""            except AttributeError:""",
        tests=("test_cli.py::test_a_stdin_its_caller_began_to_read_is_read_on",),
    ),
    # -- builtin arguments and integer options: ASCII decimal digits only --
    Mutant(
        name="builtin-args-through-int",
        file="cli.py",
        old="""    values = [decimal(x) for x in argtext.split(",")]""",
        new="""    values = [int(x) for x in argtext.split(",")]""",
        tests=("test_cli.py",),
    ),
    Mutant(
        name="long-numeral-escapes-as-value-error",
        file="graphs.py",
        old="""    try:
        return int(number)
    except ValueError:
        # past sys.get_int_max_str_digits(); the text itself is not repeated
        raise InputError(f"a decimal integer of {len(digits)} digits is too long") from None
""",
        new="""    return int(number)
""",
        tests=("test_cli.py::test_a_numeral_past_the_digit_limit_exits_one",),
    ),
    Mutant(
        name="max-n-option-through-int",
        file="cli.py",
        old="""    sub.add_argument("--max-n", type=_integer_option, required=True)""",
        new="""    sub.add_argument("--max-n", type=int, required=True)""",
        tests=("test_cli.py",),
    ),
    # -- input errors quote a bounded prefix of the text --
    Mutant(
        name="error-repeats-the-whole-input",
        file="graphs.py",
        old="""    if len(text) <= 20:
        return repr(text)""",
        new="""    if True:
        return repr(text)""",
        tests=("test_cli.py::test_errors_quote_a_bounded_prefix_of_a_long_input",),
    ),
    # -- usage errors and the edge range error quote a bounded prefix too --
    Mutant(
        name="usage-error-repeats-the-whole-token",
        file="cli.py",
        old="""        for token in sorted(self._tokens, key=len, reverse=True):
            quoted = _quoted(token)
            if quoted != repr(token):
                message = message.replace(repr(token), quoted).replace(token, quoted)
        # 250 characters and the "prog: error: " prefix stay under 300 bytes;
        # ascii() spells a character in at least as many bytes as stderr does
        if len(self.format_usage()) + len(ascii(message)) > 250:
            message = _quoted(message)
""",
        new="",
        tests=("test_cli.py::test_errors_quote_a_bounded_prefix_of_a_long_input",
               "test_cli_fuzz.py::test_cli_grammar_fuzz"),
    ),
    Mutant(
        name="usage-error-keeps-a-long-message",
        file="cli.py",
        old="""            message = _quoted(message)""",
        new="""            pass""",
        tests=("test_cli.py::test_errors_quote_a_bounded_prefix_of_a_long_input",
               "test_cli_fuzz.py::test_cli_grammar_fuzz"),
    ),
    Mutant(
        name="edge-range-error-repeats-the-endpoints",
        file="graphs.py",
        old="""            raise InputError(f"edge {_quoted(f'{_numeral(u)}-{_numeral(v)}')} out of range")""",
        new="""            raise InputError(f"edge ({u}, {v}) out of range")""",
        tests=("test_cli.py::test_errors_quote_a_bounded_prefix_of_a_long_input",
               "test_cli_fuzz.py::test_cli_grammar_fuzz"),
    ),
    Mutant(
        name="edge-range-error-formats-an-endpoint-past-the-digit-limit",
        file="graphs.py",
        old="""        return f"<{x.bit_length()} bits>\"""",
        new="""        raise""",
        tests=("test_cli.py::test_errors_quote_a_bounded_prefix_of_a_long_input",),
    ),
    # -- one graph certified, audited and written before the next --
    Mutant(
        name="enumerate-certifies-a-whole-level-first",
        file="cli.py",
        old="""        for g in enumerate_graphs(n):
            key = to_graph6(g)
            total += 1
            if not args.certify:
                _emit(out, {"schema": SCHEMA, "n": n, "graph6": key},
                      args.format == "json", key)
                continue
            cert = _certify_one(g)
""",
        new="""        graphs = enumerate_graphs(n)
        certs = [_certify_one(g) for g in graphs] if args.certify else []
        for i, g in enumerate(graphs):
            key = to_graph6(g)
            total += 1
            if not args.certify:
                _emit(out, {"schema": SCHEMA, "n": n, "graph6": key},
                      args.format == "json", key)
                continue
            cert = certs[i]
""",
        tests=("test_cli.py::test_a_closed_pipe_stops_the_run_at_the_next_record",),
    ),
    Mutant(
        name="certify-certifies-every-input-first",
        file="cli.py",
        old="""    for name, g in read_graphs(args):
        cert = _certify_one(g)
""",
        new="""    for name, cert in [(name, _certify_one(g)) for name, g in read_graphs(args)]:
""",
        tests=("test_cli.py::test_a_closed_pipe_stops_the_run_at_the_next_record",),
    ),
    Mutant(
        name="autcheck-lists-every-class-first",
        file="cli.py",
        old="""        graphs = (
            (to_graph6(g), g)
            for n in range(1, args.max_n + 1)
            for g in enumerate_graphs(n)
            if not g.is_complete()
        )
""",
        new="""        graphs = [
            (to_graph6(g), g)
            for n in range(1, args.max_n + 1)
            for g in enumerate_graphs(n)
            if not g.is_complete()
        ]
""",
        tests=("test_cli.py::test_a_closed_pipe_stops_the_run_at_the_next_record",),
    ),
    # -- the stores of a shared_searches() scope --
    Mutant(
        name="audit-memo-key-drops-child-verdicts",
        file="certify.py",
        old="""           *[value for child in node["children"] for value in (child["graph6"], child["verdict"])])""",
        new="""           *[child["graph6"] for child in node["children"]])""",
        tests=("test_certify.py::test_audit_store_keys_each_child_verdict",),
    ),
    Mutant(
        name="memo-outlives-scope",
        file="isomorphism.py",
        old="""        _stores = None""",
        new="""        pass""",
        tests=("test_isomorphism.py::test_shared_searches_end_with_the_command",),
    ),
    Mutant(
        name="certify-memo-ignores-rule-table",
        file="certify.py",
        old="""_shared("certificates", (RULES, g.rows), _derived, g)""",
        new="""_shared("certificates", g.rows, _derived, g)""",
        tests=("test_certify.py::test_every_single_rule_removal_ends",),
    ),
    Mutant(
        name="audit-memo-ignores-rule",
        file="certify.py",
        old="""_shared("audits", (RULES_BY_NAME.get(key[1]), *key), _rule_problem, node)""",
        new="""_shared("audits", key, _rule_problem, node)""",
        tests=("test_certify.py::test_audit_store_answers_afresh_under_another_rule",),
    ),
)
