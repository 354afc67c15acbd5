import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from raagcert import InputError, from_graph6, to_graph6, cycle_graph, graphs
from raagcert import cli
from raagcert.cli import build_parser, main, parse_builtin
from raagcert.lyndon import enumerate_lyndon

from conftest import counted_searches

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_parse_builtin():
    assert parse_builtin("cycle:5").n == 5
    assert parse_builtin("petersen").n == 10
    assert parse_builtin("complete_multipartite:2,2,2").edge_count == 12
    for bad in ("cycle", "petersen:3", "cycle:x", "wheel:4"):
        with pytest.raises(Exception):
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
    # the exact stdout the sweep7 benchmark workload checks, recorded before
    # the canonical search kept its unused vertices in cells
    searches = counted_searches(monkeypatch)
    code, out, _ = run_cli(capsys, "enumerate", "--max-n", "7", "--certify")
    assert code == 0
    assert json_lines(out)[-1]["summary"] == {
        "classes": 1252, "RINF": 1245, "NOT_RINF_ABELIAN": 7}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "85fed4998bb8126469ff28fa88b3d43665515a11998d68ef2e4a491fa8780b3e")
    # one search per distinct labelled graph of the command: the levels
    # enumerate_graphs rebuilds, the serializer and the auditor share them,
    # and the auditor's characteristic-set test searches only where colour
    # refinement leaves it undecided
    assert len(searches) == 1463


@pytest.mark.slow
def test_sweep8_peak_rss_is_bounded():
    # the searches shared within one command are held until it ends; a
    # child sweep's peak RSS was 49.7 MiB with them (38.1 MiB without), on
    # Python 3.11.7 under Linux
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
    assert peak_mib < 75, peak_mib


def test_enumerate_without_certify(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-n", "3", "--format", "text")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2 + 4 + 1  # classes plus summary
    code, _, err = run_cli(capsys, "enumerate", "--max-n", "9")
    assert code == 1 and "--max-n" in err


def test_enumerate_jobs_deterministic(capsys):
    # forked workers inherit a snapshot of the command's stored searches
    code, seq, _ = run_cli(capsys, "enumerate", "--max-n", "6", "--certify")
    assert code == 0
    code, par, _ = run_cli(capsys, "enumerate", "--max-n", "6", "--certify", "--jobs", "2")
    assert code == 0
    assert seq == par


def test_certify_jobs_deterministic(capsys):
    argv = ["certify", "--builtin", "petersen", "--builtin", "cycle:7",
            "--builtin", "complete_multipartite:2,2,3", "--builtin", "edgeless:4",
            "--builtin", "complete:5", "--builtin", "cycle:5"]
    code, seq, _ = run_cli(capsys, *argv)
    assert code == 0
    code, par, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert seq == par


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

    code, _, err = run_cli(capsys, "autcheck", "--max-n", "8")
    assert code == 1 and "--max-n" in err


def test_autcheck_scan_is_pinned(monkeypatch, capsys):
    # the stdout of the witness6 benchmark workload's scan
    searches = counted_searches(monkeypatch)
    code, out, _ = run_cli(capsys, "autcheck", "--max-n", "6")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "88c7146de9cee3b1d00f48911c9e0da986415674c34f12c64fad57ac48ca0160")
    assert len(searches) == 207


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
    assert err.startswith("error: ") and "0xc3" in err

    target = missing / "report.jsonl"
    code, out, err = run_cli(capsys, "certify", "--builtin", "cycle:5", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(target) in err


class _RecordingPool:
    """Stands in for ``multiprocessing.Pool``: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return [func(item) for item in items]


def test_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr("raagcert.cli.Pool", _RecordingPool)
    monkeypatch.setattr("raagcert.cli.os.cpu_count", lambda: 3)
    argv = ["certify", "--builtin", "cycle:5", "--builtin", "petersen"]
    code, seq, _ = run_cli(capsys, *argv)
    assert code == 0 and _RecordingPool.sizes == []
    code, par, _ = run_cli(capsys, *argv, "--jobs", "1000")
    assert code == 0 and par == seq
    assert _RecordingPool.sizes == [3]
    monkeypatch.setattr("raagcert.cli.os.cpu_count", lambda: None)
    code, par, _ = run_cli(capsys, *argv, "--jobs", "8")
    assert code == 0 and par == seq
    assert _RecordingPool.sizes == [3]  # an unknown core count runs in-process


def test_jobs_below_one_rejected(monkeypatch, capsys):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr("raagcert.cli.Pool", _RecordingPool)
    for argv in (("certify", "--builtin", "cycle:5"), ("enumerate", "--max-n", "3")):
        for jobs in ("0", "-2"):
            code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
            assert code == 1 and out == "" and "--jobs" in err
    assert _RecordingPool.sizes == []


def test_jobs_only_where_read(capsys):
    # ranks, lyndon, autcheck and simplify run in-process and take no --jobs
    for argv in (("ranks", "--upto", "2"), ("lyndon", "--length", "2"),
                 ("autcheck",), ("simplify",)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--builtin", "cycle:5", "--jobs", "2"])
        assert exc.value.code == 1
        assert "--jobs" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    # exit status 2 is kept for UNDECIDED verdicts
    for argv, needle in ((("certify", "--builtin", "cycle:5", "--jobs", "x"), "--jobs"),
                         (("enumerate",), "--max-n"),
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
        ("certify", "--builtin", "cycle:5", "--jobs", "x"),
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
])
def test_exit_status_of_a_cli_process(argv, stdin, code):
    # a fresh interpreter builds the parser on its first and only call
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "raagcert.cli", *argv], input=stdin,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr

