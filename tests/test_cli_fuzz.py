"""A seeded grammar fuzzer for the command line.

Each case runs ``main`` in-process on a drawn command line and stdin: every
subcommand, and unknown ones; argv built from builtins, numerals, long tokens
and unknown options such as the removed ``--jobs``; stdin of edge lists,
graph6 and junk, weighted toward in-range vertex counts with long endpoints.
Whatever is drawn, ``main`` exits 0, 1 or 2 (a usage error as argparse's
``SystemExit``), raises nothing else, writes under 300 bytes to stderr and
returns within a time bound.

Sizes keep each case small: ``--max-n`` at most 4, ``--upto`` and
``--length`` at most 3, graphs of at most 8 vertices, and of at most 6 for
``autcheck``, whose scan of an 8-vertex edgeless graph alone takes seconds.
Two kinds of input sit at the 64-vertex cap instead: edge lists on 63 to 65
vertices with a few edges, some repeated, reversed, self-loops or out of
range, and ``complete_multipartite:`` builtins of 64 or 65 vertices.  These
cases still take milliseconds: a graph of a few edges is disconnected, a
multipartite graph is a join, ``autcheck`` refuses more than 8 vertices, and
the Lyndon tables refuse more than 100,000 words before any work.
``--input`` reads stdin only and ``--out`` is never drawn: an OS error names
the path it was given, and the fuzzer writes no file.
"""

import contextlib
import io
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from raagcert.cli import main
from raagcert.graphs import Graph, to_graph6

SUBCOMMANDS = ("certify", "enumerate", "lyndon", "ranks", "autcheck", "simplify")
CASE_SECONDS = 10.0


def _settings(examples):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None)


def _long(body=st.sampled_from("x9-=,:;' \x1c€")):
    """A token of 21 to 4,000 characters, some of them escaped by repr;
    drawn lengths lean small, so the long end is drawn by name too."""
    return st.builds(lambda c, k: c * k, body,
                     st.one_of(st.integers(21, 4000), st.sampled_from([300, 4000])))


def _numeral(top):
    """A number for an option or a builtin: in range, malformed or long."""
    return st.one_of(*[st.integers(0, top).map(str)] * 3,
                     st.sampled_from(["-1", "1_0", "+2", " 03 ", "٣", "2.0", ""]),
                     _long(st.just("9")))


def _split(total):
    """``total`` cut into one to eight positive blocks, or into ones."""
    cuts = st.lists(st.integers(1, total - 1), max_size=7, unique=True).map(sorted)
    blocks = cuts.map(lambda c: [b - a for a, b in zip([0, *c], [*c, total])])
    return st.one_of(blocks, st.just([1] * total))


def _builtin(top):
    small = _numeral(top)
    return st.one_of(
        st.builds(lambda name, k: f"{name}:{k}",
                  st.sampled_from(["cycle", "complete", "edgeless", "wheel"]), small),
        st.builds(lambda parts: "complete_multipartite:" + ",".join(parts),
                  st.lists(_numeral(top // 2), min_size=1, max_size=2)),
        # at the vertex cap and one past it
        *[st.sampled_from([64, 65]).flatmap(_split).map(
            lambda parts: "complete_multipartite:" + ",".join(map(str, parts)))] * 2,
        st.sampled_from(["cycle", "petersen:3", "cycle:", "complete_multipartite"]),
        _long(),
    )


def _wide_edge_list():
    """An edge list on 63 to 65 vertices whose edges may repeat, reverse,
    loop or leave the range."""
    def edge_list(n):
        vertex = st.integers(0, n - 1)
        edge = st.one_of(*[st.tuples(vertex, vertex)] * 3, vertex.map(lambda u: (u, u)),
                         st.tuples(vertex, st.integers(n, 66)))

        def spell(edges, repeats, reverses):
            edges = edges + edges[:repeats] + [(v, u) for u, v in edges[:reverses]]
            return f"{n}; " + ", ".join(f"{u}-{v}" for u, v in edges)

        return st.builds(spell, st.lists(edge, min_size=1, max_size=4),
                         st.integers(0, 2), st.integers(0, 2))

    return st.integers(63, 65).flatmap(edge_list)


def _stdin_line(top):
    """An edge list, mostly of an in-range vertex count and decimal
    endpoints, some long; a graph6 string; or junk."""
    endpoint = st.one_of(st.integers(0, top + 1).map(str), _long(st.just("9")))

    def edge_list(count, endpoints):
        return st.builds(lambda n, edges: f"{n}; " + ", ".join(f"{u}-{v}" for u, v in edges),
                         count, st.lists(st.tuples(endpoints, endpoints), min_size=1, max_size=3))

    graph6 = st.integers(1, top).flatmap(lambda n: st.builds(
        lambda bits: to_graph6(Graph(n, tuple(
            sum(1 << v for v in range(n) if v != u and bits >> (min(u, v) * n + max(u, v)) & 1)
            for u in range(n)))),
        st.integers(0, (1 << (n * n)) - 1)))
    malformed = st.sampled_from(["x", "-1", "1_0", ""])
    return st.one_of(edge_list(st.integers(1, top), endpoint),
                     edge_list(_numeral(top), st.one_of(endpoint, malformed)),
                     *[_wide_edge_list()] * 2, graph6, st.text(max_size=40), _long())


# the options each subcommand reads: those it needs (the required one, or
# stdin as its input), each drawn in most cases, then the others
OPTIONS = {
    "certify": (("--input",), ("--builtin", "--input", "--format")),
    "enumerate": (("--max-n",), ("--certify", "--format")),
    "lyndon": (("--length", "--input"), ("--builtin", "--input", "--format")),
    "ranks": (("--upto", "--input"), ("--builtin", "--input", "--format")),
    "autcheck": (("--input",), ("--max-n", "--builtin", "--input", "--format")),
    "simplify": (("--input",), ("--builtin", "--input", "--format")),
}


def _option(name, top):
    values = {
        "--builtin": _builtin(top),
        "--input": st.just("-"),
        "--format": st.one_of(st.sampled_from(["json", "text"]), _long()),
        "--max-n": _numeral(4),
        "--length": _numeral(3),
        "--upto": _numeral(3),
    }
    if name == "--certify":
        return st.just((name,))
    return values[name].map(lambda value: (name, value))


# tokens that no subcommand reads as they stand
_STRAY = st.one_of(
    st.sampled_from([("--jobs",), ("--bogus",), ("--certify",), ("-h",)]),
    st.tuples(st.sampled_from(["--jobs", "--max-n", "--upto"]), _numeral(4)),
    st.tuples(st.sampled_from(["", "--", "-h", "--=", "--format=", "--certify=",
                               "--builtin=", "--max-n="]), _long()).map(
        lambda pair: (pair[0] + pair[1],)),
    st.tuples(st.one_of(_numeral(8), _long())),
)


@st.composite
def _cases(draw):
    """(argv, stdin): a subcommand with options it reads, and at most one
    stray token, which before the subcommand stands in for an unknown one."""
    sub = draw(st.sampled_from(SUBCOMMANDS))
    top = 6 if sub == "autcheck" else 8
    required, optional = OPTIONS[sub]
    units = [draw(_option(name, top)) for name in required if draw(st.integers(0, 5))]
    units += draw(st.lists(st.sampled_from(optional).flatmap(lambda name: _option(name, top)),
                           max_size=3))
    argv = [sub, *(token for unit in units for token in unit)]
    for stray in draw(st.lists(_STRAY, max_size=1)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = stray
    stdin = "".join(line + "\n" for line in draw(st.lists(_stdin_line(top), min_size=1, max_size=3)))
    return argv, stdin


def _run(argv, stdin):
    """``main``'s exit status and stderr, for ``stdin`` as its standard input."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error, or -h
                code = exc.code
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def _check(argv, stdin):
    start = time.perf_counter()
    code, err = _run(argv, stdin)
    elapsed = time.perf_counter() - start
    report = f"{[a[:40] for a in argv]} {stdin[:80]!r}: {err[:400]!r}"
    assert code in (0, 1, 2), report
    assert len(err.encode()) < 300, report
    assert elapsed < CASE_SECONDS, report


_ONES = ",".join(["1"] * 64)


@pytest.mark.parametrize("argv, stdin, code, message", [
    (["certify", "--input", "-"], "64; 0-1, 1-0, 0-1, 62-63", 0, ""),
    (["certify", "--input", "-"], "63; 0-62, 62-0", 0, ""),
    (["certify", "--input", "-"], "63; 5-5", 1, "error: line 1: self-loop at vertex 5\n"),
    (["certify", "--input", "-"], "63; 0-1, 7-7, 0-63", 1,
     "error: line 1: self-loop at vertex 7\n"),
    (["certify", "--input", "-"], "64; 0-64", 1, "error: line 1: edge '0-64' out of range\n"),
    (["simplify", "--input", "-"], "64; 3-2, 63-65", 1,
     "error: line 1: edge '63-65' out of range\n"),
    (["certify", "--input", "-"], "65; 0-0", 1,
     "error: line 1: at most 64 vertices are supported\n"),
    (["certify", "--builtin", "complete_multipartite:32,32"], "", 0, ""),
    (["certify", "--builtin", f"complete_multipartite:{_ONES}"], "", 0, ""),
    (["simplify", "--builtin", "complete_multipartite:1,63"], "", 0, ""),
    (["certify", "--builtin", "complete_multipartite:32,33"], "", 1,
     "error: at most 64 vertices are supported\n"),
    (["lyndon", "--length", "2", "--builtin", f"complete_multipartite:{_ONES},1"], "", 1,
     "error: at most 64 vertices are supported\n"),
], ids=["repeated-reversed", "reversed", "self-loop", "self-loop-first", "out-of-range",
        "out-of-range-simplify", "past-the-cap", "multipartite-halves", "multipartite-ones",
        "star", "multipartite-past-the-cap", "ones-past-the-cap"])
def test_inputs_at_the_vertex_cap(argv, stdin, code, message):
    # the grammar's two kinds of input at the cap, each exit code and message
    # pinned; an edge list meets from_edges's per-edge checks and no others
    assert _run(argv, stdin + "\n") == (code, message)


@_settings(150)
@given(_cases())
def test_cli_grammar_fuzz(case):
    _check(*case)


@pytest.mark.slow
@_settings(2000)
@given(_cases())
def test_cli_grammar_fuzz_at_length(case):
    _check(*case)
