import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from raagcert import InputError, from_graph6, to_graph6, cycle_graph, graphs, isomorphism
from raagcert import cli
from raagcert.cli import build_parser, main, parse_builtin
from raagcert.lyndon import enumerate_lyndon

from conftest import classes, counted_searches
from matrix_oracle import witness_report_oracle, withhold_higher_witnesses

# the source tree of the raagcert imported here, so that a subprocess runs it too
SRC = str(Path(cli.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def counted_calls(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name`` from now on, one entry per call."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_parse_builtin():
    assert parse_builtin("cycle:5").n == 5
    assert parse_builtin("petersen").n == 10
    assert parse_builtin("complete_multipartite:2,2,2").edge_count == 12
    for bad in ("cycle", "petersen:3", "cycle:x", "wheel:4"):
        with pytest.raises(Exception):
            parse_builtin(bad)
    # arguments are ASCII decimal digits between blanks, as in an edge list
    assert parse_builtin("complete_multipartite: 2, 02 ").edge_count == 4
    for bad, arg in (("cycle:1_0", "1_0"), ("edgeless:\u0663", "\u0663"),
                     ("complete_multipartite: 2,+2", "+2"), ("cycle:\u00a05", "\u00a05"),
                     ("cycle:\x1e5", "\x1e5"), ("edgeless:3\x0b", "3\x0b")):
        with pytest.raises(InputError, match=re.escape(f"{arg!r} is not a decimal integer")):
            parse_builtin(bad)


def test_certify_builtin(capsys):
    code, out, _ = run_cli(capsys, "certify", "--builtin", "cycle:5")
    assert code == 0
    (payload,) = json_lines(out)
    assert payload["schema"] == 1
    assert payload["certificate"]["verdict"] == "RINF"
    assert payload["certificate"]["rule"] == "TRANSVECTION_FREE"



def test_oversized_builtins_fail_before_building(monkeypatch, capsys):
    # each builder checks the 64-vertex cap before it makes any edge list:
    # reaching from_edges with more vertices means the list was built
    real = graphs.from_edges

    def capped(n, edges):
        assert n <= graphs.MAX_VERTICES, f"built {n} vertices before the cap check"
        return real(n, edges)

    monkeypatch.setattr(graphs, "from_edges", capped)
    message = "at most 64 vertices are supported"
    for build, arg in ((graphs.cycle_graph, 65), (graphs.cycle_graph, 2_000_000),
                       (graphs.path_graph, 2_000_000),
                       (graphs.complete_multipartite_graph, [1000, 1000])):
        with pytest.raises(InputError, match=message):
            build(arg)
    for builtin in ("cycle:2000000", "complete_multipartite:1000,1000"):
        code, out, err = run_cli(capsys, "certify", "--builtin", builtin)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
    assert graphs.cycle_graph(64).n == graphs.path_graph(64).n == 64
    assert graphs.complete_multipartite_graph([32, 32]).edge_count == 1024

def test_certify_text_format(capsys):
    code, out, _ = run_cli(capsys, "certify", "--builtin", "complete:3", "--format", "text")
    assert code == 0
    assert out.strip() == "complete:3\tNOT_RINF_ABELIAN\tABELIAN"


def test_certify_input_file(tmp_path, capsys):
    path = tmp_path / "graphs.txt"
    path.write_text("# two inputs\nDLo\n3; 0-1, 1-2\n")
    code, out, _ = run_cli(capsys, "certify", "--input", str(path), "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("DLo\tRINF")
    assert lines[1].startswith("3; 0-1, 1-2\tRINF")


def test_certify_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("A\x01\n")
    code, _, err = run_cli(capsys, "certify", "--input", str(path))
    assert code == 1
    assert "line 1" in err and "offset" in err


def test_control_characters_in_an_input_line_exit_one(tmp_path, capsys):
    # a line is stripped of blanks and line ends only, so the separator
    # reaches the edge-list parser, which rejects it
    path = tmp_path / "controls.txt"
    path.write_text("3; 0-1\n\x1c3; 0-2\n")
    code, out, err = run_cli(capsys, "certify", "--input", str(path))
    assert code == 1 and out == ""
    assert "line 2" in err and "'\\x1c3' is not a decimal integer" in err


def test_a_numeral_past_the_digit_limit_exits_one(tmp_path, capsys):
    # int() refuses a numeral longer than sys.get_int_max_str_digits(); the
    # message names the digit count instead of repeating the numeral
    digits = sys.get_int_max_str_digits() + 1
    path = tmp_path / "long.txt"
    path.write_text("9" * digits + "; 0-1\n")
    for argv, where in ((("--builtin", "cycle:" + "9" * digits), ""),
                        (("--input", str(path)), "line 1: ")):
        code, out, err = run_cli(capsys, "certify", *argv)
        assert code == 1 and out == ""
        assert err == f"error: {where}a decimal integer of {digits} digits is too long\n"


def test_errors_quote_a_bounded_prefix_of_a_long_input(monkeypatch, capsys):
    # a builtin argument, two integer options, edge endpoints on stdin and
    # argparse's own usage errors, each thousands of characters long, exit 1
    # with a short message that names the text's length or its digit count
    nines, long = "9" * 5000, "x" * 3000
    cases = ((("certify", "--builtin", f"cycle:{nines}x"), None, "(5001 characters)"),
             (("enumerate", "--max-n", nines), None, "of 5000 digits is too long"),
             (("ranks", "--builtin", "cycle:5", "--upto", "1_" * 2000), None,
              "(4000 characters)"),
             (("certify", "--input", "-"), "3; 0-" + "x" * 3000 + "\n", "(3000 characters)"),
             # a decimal endpoint, under the digit limit but out of range
             (("certify", "--input", "-"), "3; 0-" + "9" * 4000 + "\n", "(4002 characters)"),
             # an unknown option, a stray argument, a bad choice, an unknown
             # subcommand and an old --jobs, each echoed by argparse
             (("certify", "--bogus", long), None, "--bogus '" + "x" * 20 + "'..."),
             (("certify", long), None, "(3000 characters)"),
             (("certify", "--builtin", "cycle:5", "--format", long), None, "(3000 characters)"),
             ((long,), None, "(3000 characters)"),
             (("enumerate", "--max-n", "3", "--jobs", long), None, "--jobs '"),
             # a value after "=" is not a token of its own, so the message is
             # quoted whole
             (("certify", "--builtin", "cycle:5", "--format=" + long), None,
              "'argument --format: i'"))
    for argv, stdin, needle in cases:
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 1 and out == "", argv
        assert len(err.encode()) < 300 and needle in err, err[:400]
    # decimal refuses a numeral past Python's digit limit, but a library
    # caller can pass such an endpoint, which str() would refuse to format
    for edge in ((0, 10 ** 5000), (-10 ** 5000, 1)):
        with pytest.raises(InputError, match="16610 bits>") as caught:
            graphs.from_edges(3, [edge])
        assert len(str(caught.value).encode()) < 300


def test_a_non_ascii_byte_names_its_line_in_a_file_and_on_stdin(tmp_path, monkeypatch, capsys):
    message = "error: line 2: input is not ASCII\n"
    non_ascii = "3; 0-1\n3; \u0660-1\n".encode("utf-8")
    path = tmp_path / "non_ascii.txt"
    for data in (non_ascii, b"3; 0-1\n\xd9\n"):
        path.write_bytes(data)
        assert run_cli(capsys, "certify", "--input", str(path)) == (1, "", message)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(non_ascii), encoding="utf-8"))
    assert run_cli(capsys, "certify", "--input", "-") == (1, "", message)


def test_a_non_ascii_byte_on_stdin_names_its_line_whatever_the_locale():
    # stdin's bytes are decoded as a file's are, also where Python itself
    # would decode them as strict UTF-8
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8:strict")
    proc = subprocess.run([sys.executable, "-m", "raagcert.cli", "certify", "--input", "-"],
                          input=b"3; 0-1\n\xff\n", env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, b"", b"error: line 2: input is not ASCII\n")


def test_a_stdin_its_caller_began_to_read_is_read_on(monkeypatch, capsys):
    # such a stream cannot be reconfigured, so it keeps its own decoding
    stdin = io.TextIOWrapper(io.BytesIO(b"not a graph\n3; 0-1\n"), encoding="utf-8")
    stdin.readline()
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run_cli(capsys, "certify", "--input", "-", "--format", "text") == (
        0, "3; 0-1\tRINF\tDISCONNECTED\n", "")


def test_certify_no_input(capsys):
    code, _, err = run_cli(capsys, "certify")
    assert code == 1 and "no input graphs" in err


def test_enumerate_sweep(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-n", "4", "--certify")
    assert code == 0
    lines = json_lines(out)
    summary = lines[-1]["summary"]
    assert summary["classes"] == 18
    assert summary["NOT_RINF_ABELIAN"] == 4
    assert summary["RINF"] == 14
    g6s = [line["graph6"] for line in lines[:-1]]
    assert len(set(g6s)) == 18
    assert all(from_graph6(s).n <= 4 for s in g6s)


def test_sweep_output_is_pinned(monkeypatch, capsys):
    # the exact stdout the sweep7 benchmark workload checks, with the
    # representatives that canonical augmentation keeps
    searches = counted_searches(monkeypatch)
    # the module, not the function the package binds under its name
    certify_module = sys.modules["raagcert.certify"]
    certifies = counted_calls(monkeypatch, certify_module, "certify")
    monkeypatch.setattr(cli, "certify", certify_module.certify)
    derived = counted_calls(monkeypatch, certify_module, "Certificate")
    rederived = counted_calls(monkeypatch, certify_module, "_rule_problem")
    extensions = counted_calls(monkeypatch, isomorphism, "_extension")
    code, out, _ = run_cli(capsys, "enumerate", "--max-n", "7", "--certify")
    assert code == 0
    assert json_lines(out)[-1]["summary"] == {
        "classes": 1252, "RINF": 1245, "NOT_RINF_ABELIAN": 7}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b6b50b43b51d061952d07293be8e0383c36ae4670196e40a73aecbfe758ebb21")
    # one search per distinct labelled graph of the command: the levels
    # enumerate_graphs rebuilds, the serializer and the auditor share them,
    # and the auditor's characteristic-set test searches only where colour
    # refinement leaves it undecided; the enumeration also searches the 55
    # extensions it drops after their search (test_isomorphism.py)
    assert len(searches) == 1497
    # the other work of the command's stores: 1,252 root calls of certify and
    # 1,054 of children, a certificate derived once per labelled graph, one
    # audit re-derivation per distinct node, and the extensions that
    # canonical augmentation builds
    assert (len(certifies), len(derived), len(rederived), len(extensions)) == (
        2306, 1279, 1252, 1639)


def test_a_closed_pipe_stops_the_run_at_the_next_record(monkeypatch):
    # each graph is certified, audited and written before the next one is
    # certified, so a reader gone after 19 records costs 20 certificates,
    # not the 52 of every level up to the 20th record's (1 + 2 + 4 + 11 + 34);
    # autcheck --max-n builds no level past the record that fails
    class ClosingStdout(io.StringIO):
        def __init__(self, closes_at):
            super().__init__()
            self.closes_at, self.writes = closes_at, 0

        def write(self, text):
            self.writes += 1
            if self.writes == self.closes_at:
                raise BrokenPipeError
            return super().write(text)

    certified = counted_calls(monkeypatch, cli, "_certify_one")
    levels = counted_calls(monkeypatch, cli, "enumerate_graphs")
    cycles = [arg for n in (5, 6, 7) for arg in ("--builtin", f"cycle:{n}")]
    for argv, closes_at, counts in ((("enumerate", "--max-n", "7", "--certify"), 20, (20, 5)),
                                    (("certify", *cycles), 2, (2, 0)),
                                    (("autcheck", "--max-n", "6"), 1, (0, 2))):
        monkeypatch.setattr(sys, "stdout", ClosingStdout(closes_at))
        del certified[:], levels[:]
        assert main(list(argv)) == 1, argv
        assert (sys.stdout.writes, len(certified), len(levels)) == (closes_at, *counts), argv


@pytest.mark.slow
def test_sweep8_peak_rss_is_bounded():
    # the searches, certificates, audit answers and levels shared within one
    # command are held until it ends, while each record is written once its
    # certificate passes the audit; a child sweep's peak RSS was 36.3 MiB
    # (46.1 MiB when each level's audited certificates were all held before
    # its first line), on Python 3.11.7 under Linux
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = (
        "import resource, subprocess, sys\n"
        "subprocess.run([sys.executable, '-m', 'raagcert.cli', 'enumerate', '--max-n', '8',"
        " '--certify'], stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    # the probe's own children are the sweep alone, unlike this process's
    peak = int(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True).stdout)
    peak_mib = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert peak_mib < 50, peak_mib


def test_enumerate_without_certify(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-n", "3", "--format", "text")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2 + 4 + 1  # classes plus summary
    code, _, err = run_cli(capsys, "enumerate", "--max-n", "9")
    assert code == 1 and "--max-n" in err


def test_lyndon_and_ranks(capsys):
    code, out, _ = run_cli(capsys, "ranks", "--upto", "3", "--builtin", "edgeless:2")
    assert code == 0
    assert json_lines(out)[0]["ranks"] == [2, 1, 2]

    code, out, _ = run_cli(capsys, "lyndon", "--length", "2", "--builtin", "cycle:4")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["count"] == 2 and payload["standard_words"] == [[0, 2], [1, 3]]

    code, _, err = run_cli(capsys, "ranks", "--upto", "9", "--builtin", "edgeless:2")
    assert code == 1 and "--upto" in err

    # 64**6 words exceed the Lyndon word budget, so this exits before enumerating
    code, out, err = run_cli(capsys, "lyndon", "--length", "6", "--builtin", "cycle:64")
    assert code == 1 and out == "" and "words" in err


def test_ranks_refuses_an_over_budget_length_first(monkeypatch, capsys):
    calls = []

    def counting(g, length):
        calls.append(length)
        return enumerate_lyndon(g, length)

    monkeypatch.setattr("raagcert.cli.enumerate_lyndon", counting)
    # 8**6 words exceed the Lyndon word budget, 8**5 do not
    code, out, err = run_cli(capsys, "ranks", "--upto", "6", "--builtin", "cycle:8")
    assert code == 1 and out == "" and "words" in err
    assert calls == [6]

    calls.clear()
    code, out, _ = run_cli(capsys, "ranks", "--upto", "3", "--builtin", "edgeless:2")
    assert code == 0 and json_lines(out)[0]["ranks"] == [2, 1, 2]
    assert calls == [3, 2, 1]


# sha256 of the exact stdout, recorded before Lyndon traces were enumerated
# from their standard words and tested on the dependence heap
PINNED_OUTPUTS = [
    (("ranks", "--upto", "5", "--builtin", "cycle:5"),
     "7760eada7d2196ab3611793683b9f57710288b3c993f20b412f63ac52872119a"),
    (("ranks", "--upto", "5", "--builtin", "cycle:6"),
     "4458c30a5fd327857a8532621adb3a24332231a5bf7874fe103b90bcd760e4ba"),
    (("ranks", "--upto", "5", "--builtin", "edgeless:4"),
     "d308f50df550928f56e39e3232527fc3dcda3a5c2720205bae7d1f60a8e30dde"),
    (("ranks", "--upto", "5", "--builtin", "complete_multipartite:2,2,2"),
     "bce39a938b5c544ecbbcad80d8dda922534c9497772c689f8cdbb4558497883c"),
    (("ranks", "--upto", "4", "--builtin", "petersen"),
     "e23bf4575510d6502bce449022503c9071fe5f953efbbd4d6df1ad1f3c7a48ac"),
    (("lyndon", "--length", "4", "--format", "json", "--builtin", "cycle:5"),
     "c5d455338abd7b134f1d51508676006cdeb622128372bc255dafc3f39c0b82c6"),
    (("lyndon", "--length", "4", "--format", "json", "--builtin", "cycle:6"),
     "54cb24d908651c59352373b1bdbc6f7d7218d25ae32c0d1d670add9a0ecf17e4"),
    (("lyndon", "--length", "4", "--format", "text", "--builtin", "cycle:5"),
     "cef3e9bfc5969fdd6a4c22b1975640595ebc42507cae4df50d296dc4fb0d1d00"),
    (("lyndon", "--length", "4", "--format", "text", "--builtin", "cycle:6"),
     "c215d4d4b3a0aa57c7424792290e41d3704fbc442082fcba20e676fbc7de3376"),
]


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS,
                         ids=["_".join(argv) for argv, _ in PINNED_OUTPUTS])
def test_ranks_and_lyndon_outputs_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("ranks", "--upto", "5"),
     "0ba214c3cece3d6dd576d9b008dc1481d5209e3ced2c1b30f48b8eadfb125ea1"),
    (("lyndon", "--length", "5"),
     "89402e5319b8275ced6e713ac0c1ad0eaa6c82c9cf79745cff560507882c47fa"),
], ids=["ranks", "lyndon"])
def test_ranks_and_lyndon_on_every_class_are_pinned(tmp_path, capsys, argv, digest):
    # the JSON stdout over the representatives of all 208 classes with n <= 6,
    # as canonical augmentation labels them; the Lyndon enumeration's pruning
    # by Duval's scan left it unchanged
    path = tmp_path / "classes.txt"
    path.write_text("".join(to_graph6(g) + "\n" for n in range(1, 7) for g in classes(n)))
    code, out, _ = run_cli(capsys, *argv, "--input", str(path))
    assert code == 0 and len(out.splitlines()) == 208
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_autcheck(capsys):
    code, out, _ = run_cli(capsys, "autcheck", "--builtin", "cycle:5")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["total"] == 320 and payload["failures"] == []

    code, out, _ = run_cli(capsys, "autcheck", "--max-n", "3", "--format", "text")
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # non-complete classes up to 3 vertices

    code, _, err = run_cli(capsys, "autcheck", "--builtin", "complete:3")
    assert code == 1 and "non-complete" in err

    code, _, err = run_cli(capsys, "autcheck", "--max-n", "9")
    assert code == 1 and "--max-n" in err


def test_autcheck_exits_two_on_a_failure(monkeypatch, capsys):
    # with levels 2 and 3 giving no witness, the sign vectors of C5 without a
    # level-1 witness fail: 1 for the identity, 16 for each of the 4
    # rotations and 4 for each of the 5 reflections
    withhold_higher_witnesses(monkeypatch)
    report = witness_report_oracle(cycle_graph(5))
    code, out, _ = run_cli(capsys, "autcheck", "--builtin", "cycle:5")
    assert code == 2
    (payload,) = json_lines(out)
    assert payload["total"] == 320
    assert payload["witness_levels"] == {"1": 235, "2": 0, "3": 0}
    assert payload["failures"] == [
        {"permutation": list(a.perm), "signs": list(a.signs)} for a in report.failures]
    code, out, _ = run_cli(capsys, "autcheck", "--builtin", "cycle:5", "--format", "text")
    assert (code, out) == (2, "cycle:5\ttotal 320\tlevel1=235 level2=0 level3=0\tFAILURES 85\n")


def test_autcheck_scan_is_pinned(monkeypatch, capsys):
    # the stdout of the witness6 benchmark workload's scan
    searches = counted_searches(monkeypatch)
    code, out, _ = run_cli(capsys, "autcheck", "--max-n", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e7aa666b053556a453be40aeb59135047def9b59a77441976702d0d44afea68d")
    # one per class with n <= 6, and 3 extensions dropped after their search
    assert len(searches) == 210


@pytest.mark.slow
def test_autcheck_scan_is_pinned_at_eight_vertices(capsys):
    # the largest scan --max-n allows, every non-complete class with n <= 8,
    # whose first 1245 rows are the n <= 7 scan
    code, out, _ = run_cli(capsys, "autcheck", "--max-n", "8")
    assert code == 0
    rows = json_lines(out)
    assert len(rows) == 13_590
    assert sum(row["total"] for row in rows) == 35_462_904
    assert not any(row["failures"] for row in rows)
    assert {level: sum(row["witness_levels"][level] for row in rows) for level in "123"} == {
        "1": 32_050_042, "2": 3_370_582, "3": 42_280}
    seven = "".join(out.splitlines(keepends=True)[:1245])
    assert hashlib.sha256(seven.encode()).hexdigest() == (
        "9712c2f531d7e7b684885fdb6d4a3d338a346f7ed1aba39aa596de57943398c5")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0d998dc05e0e2d53180f8b58a75ce5bb821e9425d809003214647ebf1c61f3ef")


def test_autcheck_max_n_takes_no_inputs(tmp_path, capsys):
    # --max-n scans every class, so an input beside it would go unread
    for extra in (("--builtin", "petersen"), ("--input", str(tmp_path / "missing"))):
        code, out, err = run_cli(capsys, "autcheck", "--max-n", "2", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--max-n" in err


def test_simplify(capsys):
    code, out, _ = run_cli(capsys, "simplify", "--builtin", "cycle:4")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["category"] == "regular"
    assert payload["terminal"] == to_graph6(cycle_graph(4))


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out, _ = run_cli(capsys, "certify", "--builtin", "cycle:5", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text().strip())
    assert payload["certificate"]["verdict"] == "RINF"


def test_unreadable_paths_are_reported_without_a_traceback(tmp_path, capsys):
    missing = tmp_path / "missing"
    code, out, err = run_cli(capsys, "certify", "--input", str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err

    binary = tmp_path / "binary.g6"
    binary.write_bytes(b"\xc3\n")
    code, out, err = run_cli(capsys, "certify", "--input", str(binary))
    assert code == 1 and out == ""
    assert err == "error: line 1: input is not ASCII\n"

    target = missing / "report.jsonl"
    code, out, err = run_cli(capsys, "certify", "--builtin", "cycle:5", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(target) in err


def test_jobs_only_where_read(capsys):
    # every subcommand runs in-process, so none takes --jobs: an old --jobs N
    # is an unrecognized argument, a usage error
    for argv in (("certify", "--builtin", "cycle:5"), ("enumerate", "--max-n", "3"),
                 ("ranks", "--upto", "2", "--builtin", "cycle:5"),
                 ("lyndon", "--length", "2", "--builtin", "cycle:5"),
                 ("autcheck", "--builtin", "cycle:5"), ("simplify", "--builtin", "cycle:5")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "2"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--jobs" in err and len(err.encode()) < 300, err


def test_usage_errors_exit_one(capsys):
    # exit status 2 is kept for UNDECIDED verdicts
    for argv, needle in ((("ranks", "--builtin", "cycle:5", "--upto", "x"), "--upto"),
                         (("enumerate",), "--max-n"),
                         # the integer options read ASCII decimal digits only
                         (("enumerate", "--max-n", "1_0"), "--max-n"),
                         (("enumerate", "--max-n", "+3"), "--max-n"),
                         (("lyndon", "--length", "\u0663", "--builtin", "cycle:5"), "--length"),
                         (("ranks", "--upto", "2.0", "--builtin", "cycle:5"), "--upto"),
                         (("autcheck", "--max-n", "\uff13"), "--max-n"),
                         (("wheel",), "invalid choice"),
                         ((), "command")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: raagcert") and needle in err


def test_undecided_verdict_exits_two(monkeypatch, capsys):
    # C5 with every vertex doubled into a non-adjacent twin pair
    monkeypatch.setattr("sys.stdin", io.StringIO("I]KoWZBoo\n"))
    code, out, _ = run_cli(capsys, "certify", "--input", "-", "--format", "text")
    assert code == 2
    assert out == "I]KoWZBoo\tUNDECIDED\tFALLBACK\n"


# -- one parser per process -------------------------------------------------------


def _outcome(capsys, argv):
    """(exit status, stdout, stderr) of one ``main`` call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calls_sharing_one_parser_match_fresh_calls(monkeypatch, capsys):
    builds = []

    def counting_build_parser():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(cli, "_parser", None)
    sequence = [
        ("certify", "--builtin", "cycle:5"),
        ("certify", "--builtin", "petersen"),  # the appended list starts empty again
        ("ranks", "--builtin", "cycle:5", "--upto", "x"),
        ("certify", "--builtin", "complete:3", "--format", "text"),
        ("wheel",),
        ("enumerate", "--max-n", "3", "--format", "text"),
        ("certify", "--builtin", "cycle:5", "--builtin", "cycle:6", "--format", "text"),
        ("autcheck", "--builtin", "cycle:5"),
    ]
    shared = [_outcome(capsys, argv) for argv in sequence]
    assert len(builds) == 1
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 1, 0, 0, 0]
    assert len(shared[1][1].splitlines()) == 1
    for argv, outcome in zip(sequence, shared):
        monkeypatch.setattr(cli, "_parser", None)
        assert _outcome(capsys, argv) == outcome, argv
    assert len(builds) == 1 + len(sequence)


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_rebound_commands_take_effect_after_the_first_call(monkeypatch, capsys):
    # the dispatch reads the module's cmd_* bindings on every call, as a
    # tracer that wraps them needs
    assert run_cli(capsys, "certify", "--builtin", "cycle:5")[0] == 0

    def patched(args, out):
        out.write(f"patched {args.builtin}\n")
        return 2

    monkeypatch.setattr("raagcert.cli.cmd_certify", patched)
    assert run_cli(capsys, "certify", "--builtin", "cycle:5") == (2, "patched ['cycle:5']\n", "")


@pytest.mark.parametrize("argv, stdin, code", [
    (("certify", "--builtin", "petersen"), "", 0),
    (("certify", "--input", "-"), "I?\n", 1),
    (("wheel",), "", 1),
    # C5[K2] stays UNDECIDED, unlike C5 with non-adjacent twin pairs
    (("certify", "--input", "-"), "IJ]C{~cxG\n", 2),
    (("certify", "--input", "-"), "3; 0-1\n", 0),
    # int() would read these as 10 vertices and as 3; 0-1
    (("certify", "--input", "-"), "1_0;\n", 1),
    (("certify", "--input", "-"), "\u0663; \u0660-\u0661\n", 1),
    # stdin is held to ASCII as a file is, comments included
    (("certify", "--input", "-"), "# \u2603\nA_\n", 1),
    # builtin arguments and integer options: int() would read each of these
    (("certify", "--builtin", "cycle:1_0"), "", 1),
    (("certify", "--builtin", "edgeless:\u0663"), "", 1),
    (("certify", "--builtin", "complete_multipartite: 2,+2"), "", 1),
    (("enumerate", "--max-n", "1_0"), "", 1),
    (("ranks", "--upto", "+2", "--builtin", "cycle:5"), "", 1),
    (("enumerate", "--max-n", " 03 "), "", 0),
    # a control character is not a blank on the graph6 path either
    (("certify", "--input", "-"), "\x1cBW\n", 1),
    # a file is held to ASCII line by line, as stdin is
    (("certify", "--input", "/dev/stdin"), "3; 0-1\n3; \u0660-1\n", 1),
])
def test_exit_status_of_a_cli_process(argv, stdin, code):
    # a fresh interpreter builds the parser on its first and only call
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "raagcert.cli", *argv],
                          input=stdin.encode("utf-8"), env=env, capture_output=True,
                          timeout=60)
    assert proc.returncode == code, proc.stderr


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # each line of the sh block under "Command line", its comment dropped,
    # run in process; graphs.g6 is a file of builtin graph6 lines
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [words for line in block.splitlines()
                if (words := shlex.split(line, comments=True))]
    assert len(commands) == 8
    builtins = ("cycle:5", "petersen", "complete:4", "complete_multipartite:2,3")
    (tmp_path / "graphs.g6").write_text(
        "".join(to_graph6(parse_builtin(b)) + "\n" for b in builtins), encoding="ascii")
    monkeypatch.chdir(tmp_path)
    for words in commands:
        assert words[0] == "raagcert", words
        code, out, err = run_cli(capsys, *words[1:])
        assert code == 0 and out, (words, err)
