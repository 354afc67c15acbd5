"""Command-line surface: certification, enumeration sweeps, Lyndon tables,
rank tables, eigenvalue-witness scans and simplification traces.

Input graphs come from ``--builtin`` descriptors (``cycle:5``, ``complete:4``,
``edgeless:3``, ``complete_multipartite:2,2,2``, ``petersen``) or from
``--input`` files holding one graph per line, either graph6 or the
``"n; u-v, u-v"`` edge-list form (lines containing a semicolon).  Reports are
JSON lines by default and plain text with ``--format text``; every JSON object
carries a ``schema`` version field.  Exit status: 0 for a clean run, 2 when
any verdict is UNDECIDED (or a witness scan reports a failure), 1 for
malformed input, a command-line usage error or an internal failure.

Every input line is parsed before any work, so malformed input writes
nothing.  ``certify`` and ``enumerate`` then certify, audit and write one
graph before they start the next, and ``autcheck --max-n`` scans one class
at a time, building each level only when it reaches it.  So a reader that
closes the pipe stops the run at the next record, and an internal failure
(the auditor rejecting a certificate of this program's own) comes after the
records before it are written.

``main`` builds its argument parser on its first call and keeps it for the
rest of the process, so a caller that runs many commands in one process
(a test, a benchmark) builds it once, as a CLI process does.  It dispatches
through the module's ``cmd_*`` function named after the subcommand, looked up
at call time, so rebinding one of them takes effect on the next call.
``build_parser()`` returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import nullcontext
from typing import NoReturn, Optional, Sequence, TextIO

from .certify import UNDECIDED, audit_certificate, certify, simplify
from .errors import InputError, ResourceError
from .graphs import (
    Graph,
    _quoted,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    decimal,
    edgeless_graph,
    from_edge_list,
    from_graph6,
    petersen_graph,
    to_graph6,
)
from .isomorphism import ENUMERATE_MAX_N, enumerate_graphs, shared_searches
from .liering import SIGNED_AUT_MAX_N, eigenvalue_witness_report
from .lyndon import LYNDON_MAX_LENGTH, enumerate_lyndon

SCHEMA = 1

BUILTINS = {
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "edgeless": (edgeless_graph, 1),
    "complete_multipartite": (complete_multipartite_graph, "list"),
    "petersen": (petersen_graph, 0),
}


def parse_builtin(text: str) -> Graph:
    name, sep, argtext = text.partition(":")
    if name not in BUILTINS:
        raise InputError(f"unknown builtin {_quoted(name)}; choose from {sorted(BUILTINS)}")
    builder, arity = BUILTINS[name]
    if arity == 0:
        if sep:
            raise InputError(f"builtin {name!r} takes no arguments")
        return builder()
    if not sep or not argtext:
        raise InputError(f"builtin {name!r} needs arguments, e.g. {name}:5")
    values = [decimal(x) for x in argtext.split(",")]
    if arity == "list":
        return builder(values)
    if len(values) != arity:
        raise InputError(f"builtin {name!r} takes {arity} argument(s)")
    return builder(*values)


def parse_graph_line(line: str) -> Graph:
    return from_edge_list(line) if ";" in line else from_graph6(line)


def read_graphs(args: argparse.Namespace) -> list[tuple[str, Graph]]:
    graphs: list[tuple[str, Graph]] = []
    for entry in args.builtin or []:
        graphs.append((entry, parse_builtin(entry)))
    if args.input:
        if args.input == "-":
            # stdin's bytes are decoded as a file's, whatever the locale; an
            # io.StringIO, or a stream its caller has begun to read, cannot
            # be reconfigured and is read as it is
            try:
                sys.stdin.reconfigure(encoding="ascii", errors="replace")
            except (AttributeError, io.UnsupportedOperation):
                pass
            stream = nullcontext(sys.stdin)
        else:
            # a byte outside ASCII becomes U+FFFD, which the line check
            # below rejects with its line number, as on stdin
            stream = open(args.input, encoding="ascii", errors="replace")
        with stream as handle:
            for lineno, raw in enumerate(handle, start=1):
                if not raw.isascii():
                    raise InputError(f"line {lineno}: input is not ASCII")
                line = raw.strip(" \t\r\n")
                if not line or line.startswith("#"):
                    continue
                try:
                    graphs.append((line, parse_graph_line(line)))
                except InputError as exc:
                    raise InputError(f"line {lineno}: {exc}") from exc
    if not graphs:
        raise InputError("no input graphs; pass --builtin and/or --input")
    return graphs


def _emit(out: TextIO, payload: dict, as_json: bool, text: str) -> None:
    out.write(json.dumps(payload) + "\n" if as_json else text + "\n")


def _certify_one(g: Graph) -> dict:
    """The certificate of one graph as a dict, after the auditor has passed it."""
    cert = certify(g).to_dict()
    problems = audit_certificate(cert)
    if problems:
        raise RuntimeError(f"certificate failed audit: {problems[0]}")
    return cert


def cmd_certify(args: argparse.Namespace, out: TextIO) -> int:
    status = 0
    for name, g in read_graphs(args):
        cert = _certify_one(g)
        if cert["verdict"] == UNDECIDED:
            status = 2
        payload = {"schema": SCHEMA, "input": name, "certificate": cert}
        _emit(out, payload, args.format == "json",
              f"{name}\t{cert['verdict']}\t{cert['rule']}")
    return status


def cmd_enumerate(args: argparse.Namespace, out: TextIO) -> int:
    if not 1 <= args.max_n <= ENUMERATE_MAX_N:
        raise InputError(f"--max-n must be between 1 and {ENUMERATE_MAX_N}")
    status = 0
    tally: dict[str, int] = {}
    total = 0
    for n in range(1, args.max_n + 1):
        for g in enumerate_graphs(n):
            key = to_graph6(g)
            total += 1
            if not args.certify:
                _emit(out, {"schema": SCHEMA, "n": n, "graph6": key},
                      args.format == "json", key)
                continue
            cert = _certify_one(g)
            tally[cert["verdict"]] = tally.get(cert["verdict"], 0) + 1
            if cert["verdict"] == UNDECIDED:
                status = 2
            _emit(out, {"schema": SCHEMA, "n": n, "graph6": key,
                        "verdict": cert["verdict"], "rule": cert["rule"]},
                  args.format == "json",
                  f"{key}\t{cert['verdict']}\t{cert['rule']}")
    summary = {"schema": SCHEMA, "summary": {"classes": total, **tally}}
    _emit(out, summary, args.format == "json",
          "total {} {}".format(total, " ".join(f"{k}={v}" for k, v in sorted(tally.items()))))
    return status


def cmd_lyndon(args: argparse.Namespace, out: TextIO) -> int:
    graphs = read_graphs(args)
    for name, g in graphs:
        classes = enumerate_lyndon(g, args.length)
        words = [list(m.std) for m in classes]
        rendered = [".".join(f"v{v}" for v in m.std) for m in classes]
        _emit(out, {"schema": SCHEMA, "input": name, "length": args.length,
                    "count": len(classes), "standard_words": words},
              args.format == "json",
              f"{name}\tlength {args.length}\tcount {len(classes)}\t" + " ".join(rendered))
    return 0


def cmd_ranks(args: argparse.Namespace, out: TextIO) -> int:
    if not 1 <= args.upto <= LYNDON_MAX_LENGTH:
        raise InputError(f"--upto must be between 1 and {LYNDON_MAX_LENGTH}")
    graphs = read_graphs(args)
    for name, g in graphs:
        # longest first, so a length over the word budget fails before any work
        ranks = [len(enumerate_lyndon(g, length)) for length in range(args.upto, 0, -1)][::-1]
        _emit(out, {"schema": SCHEMA, "input": name, "ranks": ranks},
              args.format == "json",
              f"{name}\tranks " + " ".join(str(r) for r in ranks))
    return 0


def cmd_autcheck(args: argparse.Namespace, out: TextIO) -> int:
    if args.max_n is not None:
        if args.builtin or args.input:
            raise InputError("--max-n scans every class; it takes no --builtin or --input")
        if not 1 <= args.max_n <= SIGNED_AUT_MAX_N:
            raise InputError(
                f"--max-n must be between 1 and {SIGNED_AUT_MAX_N} for witness scans")
        graphs = (
            (to_graph6(g), g)
            for n in range(1, args.max_n + 1)
            for g in enumerate_graphs(n)
            if not g.is_complete()
        )
    else:
        graphs = read_graphs(args)
    status = 0
    for name, g in graphs:
        report = eigenvalue_witness_report(g)
        counts = {str(k): v for k, v in sorted(report.level_counts.items())}
        failures = [
            {"permutation": list(a.perm), "signs": list(a.signs)}
            for a in report.failures
        ]
        if failures:
            status = 2
        _emit(out, {"schema": SCHEMA, "input": name, "total": report.total,
                    "witness_levels": counts, "failures": failures},
              args.format == "json",
              f"{name}\ttotal {report.total}\t"
              + " ".join(f"level{k}={v}" for k, v in counts.items())
              + (f"\tFAILURES {len(failures)}" if failures else ""))
    return status


def cmd_simplify(args: argparse.Namespace, out: TextIO) -> int:
    graphs = read_graphs(args)
    for name, g in graphs:
        result = simplify(g)
        chain = [to_graph6(step) for step in result.chain]
        _emit(out, {"schema": SCHEMA, "input": name, "category": result.category,
                    "terminal": to_graph6(result.terminal), "chain": chain},
              args.format == "json",
              f"{name}\t{result.category}\t{to_graph6(result.terminal)}\t" + " ".join(chain))
    return 0


def _integer_option(text: str) -> int:
    """``decimal`` as an argparse type: a bad value gets ``decimal``'s own
    message, which quotes a bounded prefix of it, where argparse would
    repeat all of it."""
    try:
        return decimal(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_io_arguments(sub: argparse.ArgumentParser, with_inputs: bool = True) -> None:
    if with_inputs:
        sub.add_argument("--input", help="file of graph6 or edge-list lines, '-' for stdin")
        sub.add_argument("--builtin", action="append",
                         help="named graph, e.g. cycle:5 (repeatable)")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument("--out", help="write the report here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on malformed input: 2 means UNDECIDED.
    Subcommand parsers are made of the same class.

    argparse repeats a bad token whole, bare or as its repr, so ``error``
    quotes each long token of the command line through ``_quoted``, as the
    input errors do.  A message that would still not fit in 300 bytes with
    the usage line, such as one naming the value after an ``=`` or many
    unrecognized arguments, is quoted whole the same way."""

    _tokens: Sequence[str] = ()

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str) -> NoReturn:
        for token in sorted(self._tokens, key=len, reverse=True):
            quoted = _quoted(token)
            if quoted != repr(token):
                message = message.replace(repr(token), quoted).replace(token, quoted)
        # 250 characters and the "prog: error: " prefix stay under 300 bytes;
        # ascii() spells a character in at least as many bytes as stderr does
        if len(self.format_usage()) + len(ascii(message)) > 250:
            message = _quoted(message)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="raagcert",
        description="R-infinity certificates for right-angled Artin groups of finite graphs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("certify", help="emit one certificate per input graph")
    _add_io_arguments(sub)

    sub = commands.add_parser("enumerate", help="sweep isomorphism classes up to --max-n")
    sub.add_argument("--max-n", type=_integer_option, required=True)
    sub.add_argument("--certify", action="store_true", help="certify every class")
    _add_io_arguments(sub, with_inputs=False)

    sub = commands.add_parser("lyndon", help="list Lyndon traces of a given length")
    sub.add_argument("--length", type=_integer_option, required=True)
    _add_io_arguments(sub)

    sub = commands.add_parser("ranks", help="ranks of the graded lower-central pieces")
    sub.add_argument("--upto", type=_integer_option, required=True)
    _add_io_arguments(sub)

    sub = commands.add_parser("autcheck", help="eigenvalue-witness scan of signed automorphisms")
    sub.add_argument("--max-n", type=_integer_option, help="scan all non-complete classes up to this size")
    _add_io_arguments(sub)

    sub = commands.add_parser("simplify", help="iterated maximal-degree deletion trace")
    _add_io_arguments(sub)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    out = sys.stdout
    opened: Optional[TextIO] = None
    try:
        if args.out:
            opened = open(args.out, "w", encoding="ascii")
            out = opened
        # one canonical search per labelled graph for the whole command
        with shared_searches():
            return globals()[f"cmd_{args.command}"](args, out)
    except BrokenPipeError:
        return 1
    except (InputError, ResourceError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if opened is not None:
            opened.close()


if __name__ == "__main__":
    sys.exit(main())
