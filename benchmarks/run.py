#!/usr/bin/env python3
"""Benchmark for raagcert: four workloads driven through the CLI entry point.

    python3 benchmarks/run.py --workload sweep7 --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15

Each workload calls ``raagcert.cli.main`` in this process, one client in a
closed loop with the CLI's default single worker, on inputs generated from
``--seed``.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it first runs the same work untraced in a child process (for
the tracing overhead), then traced, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own child process and prints each metric by name and unit.
The package is imported from ``src/`` beside this directory, never from an
installed copy.  Traces and per-run records go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("sweep7", "certify_batch", "witness6", "ranks")
SETUP_REPEATS = 9

# Host-speed correction.  Other tenants' load slows this shared host by up to
# 2x for minutes at a time, and no estimator inside a 15 s run removes that.
# A fixed pure-Python loop slows down with it.  Raw seconds times the
# reference below (the loop's time on an unloaded 2-core Xeon virtual
# machine) over the loop's time now are reference seconds.  The loop never
# touches raagcert, so a change to the program moves reference times as it
# moves raw ones.
CALIBRATION_STEPS = 50_000
REFERENCE_CALIBRATION_S = 0.0125
CALIBRATE_EVERY_S = 0.5
# A stretch between two samples is scaled by the median of the samples from
# CALIBRATE_WINDOW before it to CALIBRATE_WINDOW after it.  One 12 ms sample
# is slowed by a single preemption that the 0.5 s beside it may not share.
CALIBRATE_WINDOW = 2
CHILD_TIMEOUT_S = 170
# Set-up is mostly process start and imports, which load slows differently
# from the loop above: on a 2-core Xeon virtual machine the quartile spread of
# 20 probes was 31 % raw, 35 % as a ratio to the loop and 10 % as a ratio to a
# bare interpreter start.  So each set-up probe is scaled by the bare starts
# timed just before and just after it: the reference below (a bare start on
# that machine, unloaded) over their mean.
BARE_START = (sys.executable, "-c", "pass")
REFERENCE_BARE_START_S = 0.050

# Work per run scales with --seconds.  The constants size it so that a run
# lasts about --seconds on a 2-core Xeon virtual machine; the work is fixed by
# (workload, seed, seconds), never by the clock, so every run of one seed does
# identical work on any machine.  Request lists are sent in at least two
# rounds and each request's time is its median over them.  witness6 is one
# 12 s scan, sent once per 12 s of --seconds and at least once, so that a
# 15 s run does one scan rather than two.
ROUNDS = 2
SWEEP7_ROUND_S = 5.0
WITNESS6_ROUND_S = 12.0
FAMILY_GRAPHS_PER_S = 30
RANK_GRAPHS_PER_S = 3

SWEEP7_SUMMARY = {"classes": 1252, "RINF": 1245, "NOT_RINF_ABELIAN": 7}
WITNESS6_TOTAL = 162040
WITNESS6_GRAPHS = 202

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
    ("decided_ratio", "ratio"),
)

TIMED_FUNCTIONS = (
    "isomorphism.enumerate_graphs",
    "isomorphism.canonical_relabelled",
    "isomorphism.automorphisms",
    "isomorphism.is_automorphism",
    "graphs.Graph.__post_init__",
    "graphs.induced",
    "graphs.structure_flags",
    "graphs.from_graph6",
    "graphs.to_graph6",
    "closures.characteristic_closure",
    "closures.is_characteristic_vertex_set",
    "closures.is_transvection_free_graph",
    "certify.certify",
    "certify.audit_certificate",
    "certify.Certificate.to_dict",
    "liering.induced_matrix",
    "liering.has_eigenvalue_one",
    "liering.det_exact",
    "lyndon.enumerate_lyndon",
    "lyndon.is_lyndon",
    "cli.main",
)
RULES = (
    "ABELIAN", "DISCONNECTED", "TRANSVECTION_FREE", "SRG", "JOIN_FACTOR", "REGULAR_SMALL",
    "SIMPLIFICATION", "MBA_K_N1", "MBA_K_N2_SPLIT", "MBA_K_N2_QUOTIENT",
    "CHAR_CLOSURE_GENERIC", "FALLBACK",
)


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in TIMED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units["isomorphism.automorphisms.perms"] = "count"
    for rule in RULES:
        units[f"certify.rule.{rule}.hits"] = "count"
    units["certify.max_depth"] = "count"
    units["liering.signed_automorphisms.yielded"] = "count"
    units["liering.levels_per_aut"] = "ratio"
    units["lyndon.words_scanned"] = "count"
    units["lyndon.hit_ratio"] = "ratio"
    units["lyndon.class_cache.size"] = "count"
    for module in spans.MODULES:
        units[f"module.{module}.self_s"] = "s"
    units["process.cpu_s"] = "s"
    units["process.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "raagcert", "cli.py")):
        sys.exit(f"error: raagcert sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import raagcert

    if not os.path.abspath(raagcert.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported raagcert from {raagcert.__file__}, not from {SRC}")


# -- one CLI invocation ---------------------------------------------------------


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that never touches raagcert."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(CALIBRATION_STEPS):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
        acc ^= len(table)
    return time.perf_counter() - start


class HostSpeed:
    """Host speed through a run.  While the context is open, a timer
    interrupts the run every ``CALIBRATE_EVERY_S`` to time ``calibrate()``.
    ``now`` is a work clock: the wall clock minus the time spent calibrating.
    ``reference`` converts a span of it into reference seconds, stretch by
    stretch between samples, each at the median of the samples around it."""

    def __init__(self) -> None:
        self.positions: list[float] = []
        self.samples: list[float] = []
        self.speeds: list[float] = []
        self.paused = 0.0
        self._handler = None

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self, *_: object) -> None:
        position = self.now()
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.positions.append(position)
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()
        w = CALIBRATE_WINDOW
        self.speeds = [
            REFERENCE_CALIBRATION_S / statistics.median(self.samples[max(k - w, 0):k + 2 + w])
            for k in range(len(self.samples) - 1)]

    def reference(self, a: float, b: float) -> float:
        """Reference seconds for the work-clock span from a to b."""
        total = 0.0
        k = max(bisect.bisect_right(self.positions, a) - 1, 0)
        while k + 1 < len(self.positions) and self.positions[k] < b:
            stretch = min(b, self.positions[k + 1]) - max(a, self.positions[k])
            if stretch > 0:
                total += stretch * self.speeds[k]
            k += 1
        return total


@dataclass
class Outcome:
    """One invocation, with the work-clock times of its start, of the end of
    each output line, and of its end."""

    rc: Optional[int]
    stdout: str
    marks: list[float]
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.marks[-1] - self.marks[0]

    def reference_seconds(self, host: HostSpeed) -> float:
        return host.reference(self.marks[0], self.marks[-1])

    def reference_lines(self, host: HostSpeed) -> list[float]:
        return [host.reference(a, b) for a, b in zip(self.marks[:-2], self.marks[1:-1])]


class _LineClock(io.StringIO):
    """Captured stdout that notes the work-clock time each line is completed."""

    def __init__(self, host: HostSpeed) -> None:
        super().__init__()
        self.host = host
        self.marks = [host.now()]

    def write(self, text: str) -> int:
        written = super().write(text)
        if "\n" in text:
            self.marks.append(self.host.now())
        return written


def invoke(main: Callable, argv: tuple[str, ...], stdin: Optional[str],
           host: HostSpeed) -> Outcome:
    """Run ``main(argv)`` with captured stdout and the given stdin text; an
    exception is recorded as a failed outcome, not raised."""
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO("" if stdin is None else stdin + "\n")
    error = None
    rc: Optional[int] = None
    sink = _LineClock(host)
    try:
        with contextlib.redirect_stdout(sink):
            rc = main(list(argv))
    except Exception:  # the benchmark keeps going and counts the failure
        error = traceback.format_exc()
    sink.marks.append(host.now())
    sys.stdin = saved_stdin
    if error:
        print(error, file=sys.stderr)
    return Outcome(rc, sink.getvalue(), sink.marks, error)


def json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# -- workloads ----------------------------------------------------------------------


@dataclass
class Tally:
    """What one run did: items, failures and verdicts over all rounds; each
    request's time over the rounds, in reference and in raw seconds; and the
    latency samples."""

    attempted: int = 0
    failed: int = 0
    certified: int = 0
    undecided: int = 0
    items: int = 0
    seconds: list[float] = field(default_factory=list)
    raw_seconds: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


@dataclass
class Plan:
    """Inputs of one run: the distinct requests, how many rounds send the
    whole list, the check applied to each outcome, and a final check over the
    first round.  With ``line_latency`` each output line is a latency sample
    (the time since the previous line), otherwise each invocation is."""

    requests: list
    check: Callable[[object, Outcome, Tally], None]
    repeats: int = 1
    finish: Callable[[list, list, Tally], None] = lambda requests, outcomes, tally: None
    line_latency: bool = False
    between_rounds: Callable[[], None] = lambda: None


def plan_for(workload: str, seed: int, seconds: int) -> Plan:
    import inputs

    if workload == "sweep7":
        req = inputs.Request("sweep7", ("enumerate", "--max-n", "7", "--certify"))
        return Plan([req], _check_sweep7, max(ROUNDS, round(seconds / SWEEP7_ROUND_S)))
    if workload == "witness6":
        req = inputs.Request("witness6", ("autcheck", "--max-n", "6"))
        return Plan([req], _check_witness6, max(1, round(seconds / WITNESS6_ROUND_S)),
                    line_latency=True)
    if workload == "certify_batch":
        return Plan(inputs.certify_requests(seed, FAMILY_GRAPHS_PER_S * seconds),
                    _check_certify, ROUNDS, _audit_certify)
    if workload == "ranks":
        from raagcert.lyndon import _class_words

        # a repeat would hit the Lyndon word cache, so each round starts it
        # empty, as a fresh process would
        count = max(1, round(RANK_GRAPHS_PER_S * seconds))
        return Plan(inputs.ranks_requests(seed, count), _check_ranks,
                    ROUNDS, between_rounds=_class_words.cache_clear)
    raise SystemExit(f"error: unknown workload {workload!r}")


def _check_sweep7(req, out: Outcome, tally: Tally) -> None:
    expected = SWEEP7_SUMMARY["classes"]
    tally.attempted += expected
    if out.error or out.rc != 0:
        tally.fail(expected, f"sweep7 exit {out.rc}")
        return
    lines = json_lines(out.stdout)
    summary = lines[-1].get("summary", {}) if lines else {}
    tally.items += summary.get("classes", 0)
    tally.certified += summary.get("classes", 0)
    tally.undecided += summary.get("UNDECIDED", 0)
    if summary != SWEEP7_SUMMARY or len(lines) != expected + 1:
        tally.fail(expected, f"sweep7 summary {summary}")


def _check_witness6(req, out: Outcome, tally: Tally) -> None:
    if out.error or out.rc != 0:
        tally.attempted += WITNESS6_TOTAL
        tally.fail(WITNESS6_TOTAL, f"witness6 exit {out.rc}")
        return
    rows = json_lines(out.stdout)
    total = sum(row["total"] for row in rows)
    failures = sum(len(row["failures"]) for row in rows)
    tally.attempted += total
    tally.items += total
    tally.certified += total
    tally.undecided += failures
    if failures:
        tally.fail(failures, f"witness6 has {failures} signed automorphisms without a witness")
    if total != WITNESS6_TOTAL or len(rows) != WITNESS6_GRAPHS:
        tally.fail(max(WITNESS6_TOTAL - total, 1),
                   f"witness6 total {total} over {len(rows)} graphs")


def _check_certify(req, out: Outcome, tally: Tally) -> None:
    from raagcert.certify import NOT_RINF_ABELIAN, UNDECIDED

    tally.attempted += 1
    rows = [] if out.error else json_lines(out.stdout)
    if out.error or out.rc not in (0, 2) or len(rows) != 1:
        tally.fail(1, f"{req.label}: exit {out.rc}")
        return
    cert = rows[0]["certificate"]
    verdict = cert["verdict"]
    tally.items += 1
    tally.certified += 1
    tally.undecided += verdict == UNDECIDED
    if (out.rc == 2) != (verdict == UNDECIDED):
        tally.fail(1, f"{req.label}: exit {out.rc} with verdict {verdict}")
    elif (verdict == NOT_RINF_ABELIAN) != req.complete:
        tally.fail(1, f"{req.label}: verdict {verdict} on a graph with complete={req.complete}")
    elif verdict == UNDECIDED and req.n <= 7:
        tally.fail(1, f"{req.label}: UNDECIDED on {req.n} vertices")


def _audit_certify(requests: list, outcomes: list[Outcome], tally: Tally) -> None:
    """Re-audit every emitted certificate, outside the timed region."""
    from raagcert.certify import audit_certificate

    for req, out in zip(requests, outcomes):
        if out.error or out.rc not in (0, 2):
            continue
        for row in json_lines(out.stdout):
            problems = audit_certificate(row["certificate"])
            if problems:
                tally.fail(1, f"{req.label}: audit {problems[0]}")


def _check_ranks(req, out: Outcome, tally: Tally) -> None:
    import inputs
    from checks import clique_polynomial_ranks
    from raagcert.graphs import from_graph6

    tally.attempted += 1
    rows = [] if out.error else json_lines(out.stdout)
    if out.error or out.rc != 0 or len(rows) != 1:
        tally.fail(1, f"ranks {req.label}: exit {out.rc}")
        return
    tally.items += 1
    g = from_graph6(req.stdin)
    ranks = rows[0]["ranks"]
    if ranks != clique_polynomial_ranks(g, inputs.RANKS_UPTO):
        tally.fail(1, f"ranks {req.label}: {ranks} disagrees with the clique polynomial")
    elif ranks[1] != g.non_edge_count:
        tally.fail(1, f"ranks {req.label}: length-2 rank {ranks[1]} != non-edges")


def execute(plan: Plan, on_request: Callable[[int], None] = lambda i: None
            ) -> tuple[list[list[Outcome]], float, HostSpeed]:
    """Closed loop sending the request list ``plan.repeats`` times; returns the
    outcomes of each round, the wall time of the whole loop (calibrations
    included) and the calibration samples."""
    from raagcert.cli import main

    rounds = []
    request_id = 0
    start = time.perf_counter()
    with HostSpeed() as host:
        for round_no in range(plan.repeats):
            if round_no:
                plan.between_rounds()
            outcomes = []
            for req in plan.requests:
                on_request(request_id)
                request_id += 1
                outcomes.append(invoke(main, req.argv, req.stdin, host))
            rounds.append(outcomes)
    return rounds, time.perf_counter() - start, host


def check(plan: Plan, rounds: list[list[Outcome]], host: HostSpeed) -> Tally:
    """Check every outcome and require later rounds to repeat the first
    round's output exactly.  A request's time, and each latency sample, is
    the median over the rounds of its time in reference seconds."""
    tally = Tally()
    first = rounds[0]
    for outcomes in rounds:
        for req, out, ref in zip(plan.requests, outcomes, first):
            plan.check(req, out, tally)
            if (out.rc, out.stdout) != (ref.rc, ref.stdout):
                tally.fail(1, f"{req.label}: output differs between rounds")
    plan.finish(plan.requests, first, tally)
    for i in range(len(plan.requests)):
        runs = [outcomes[i] for outcomes in rounds]
        tally.seconds.append(statistics.median(out.reference_seconds(host) for out in runs))
        tally.raw_seconds.append(statistics.median(out.seconds for out in runs))
        if plan.line_latency:
            lines = zip(*(out.reference_lines(host) for out in runs))
            tally.latencies.extend(statistics.median(samples) for samples in lines)
        else:
            tally.latencies.append(tally.seconds[-1])
    return tally


# -- measurement ------------------------------------------------------------------


def timed_run(cmd: list[str]) -> float:
    """Wall time of one child process run to its end."""
    start = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the package and build this
    run's inputs, then exit; and of the bare interpreter starts around them,
    one before the first probe and one after each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    bare = [timed_run(list(BARE_START))]
    probes = []
    for _ in range(SETUP_REPEATS):
        probes.append(timed_run(cmd))
        bare.append(timed_run(list(BARE_START)))
    return probes, bare


def reference_setup(probes: list[float], bare: list[float]) -> float:
    """Median probe in reference seconds, each scaled by the bare starts around it."""
    return statistics.median(
        probe * REFERENCE_BARE_START_S * 2 / (before + after)
        for probe, before, after in zip(probes, bare, bare[1:]))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args: argparse.Namespace) -> tuple[Tally, dict, dict]:
    plan = plan_for(args.workload, args.seed, args.seconds)
    rounds, loop_wall, host = execute(plan)
    tally = check(plan, rounds, host)
    wall = sum(tally.seconds)
    setup, bare = measure_setup(args)
    lat = tally.latencies
    values = {
        "setup_s": reference_setup(setup, bare),
        "wall_s": wall,
        "items_per_s": tally.items / plan.repeats / wall,
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_p90_ms": percentile(lat, 90) * 1000.0,
        "peak_rss_mib": peak_rss_mib(),
        "success_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
        "decided_ratio": 1.0 - tally.undecided / max(tally.certified, 1),
    }
    samples = {
        "setup_s": len(setup), "latency": len(lat), "rounds": plan.repeats,
        "calibrations": len(host.samples),
        # the same run in raw seconds, before the host-speed correction
        "raw": {"setup_s": statistics.median(setup),
                "bare_start_median_s": statistics.median(bare),
                "wall_s": sum(tally.raw_seconds),
                "loop_wall_s": loop_wall,
                "calibration_median_s": statistics.median(host.samples)},
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return tally, metrics, samples


def trace_plan(plan: Plan):
    """Run the plan under the span recorder; returns the tally, every per-layer
    value except ``trace.overhead_ratio``, and the recorder."""
    from checks import certificate_shape
    from raagcert.lyndon import _class_words

    recorder = spans.SpanRecorder()
    counts = {"perms": 0, "words": 0, "found": 0, "depth": 0}
    rule_hits = {rule: 0 for rule in RULES}

    def on_automorphisms(call_args, result, nested):
        counts["perms"] += len(result)

    def on_enumerate_lyndon(call_args, result, nested):
        g, length = call_args
        counts["words"] += g.n ** length
        counts["found"] += len(result)

    def on_audit(call_args, result, nested):
        if not nested:
            rules, depth = certificate_shape(call_args[0])
            for rule, hits in rules.items():
                rule_hits[rule] = rule_hits.get(rule, 0) + hits
            counts["depth"] = max(counts["depth"], depth)

    recorder.observe("isomorphism.automorphisms", on_automorphisms)
    recorder.observe("lyndon.enumerate_lyndon", on_enumerate_lyndon)
    recorder.observe("certify.audit_certificate", on_audit)

    def on_request(request_id: int) -> None:
        recorder.request_id = request_id

    recorder.install()
    cpu = time.process_time()
    try:
        rounds, wall, host = execute(plan, on_request)
    finally:
        recorder.uninstall()
    cpu = time.process_time() - cpu
    tally = check(plan, rounds, host)

    stats = recorder.function_stats()
    values: dict[str, float] = {}
    for name in TIMED_FUNCTIONS:
        entry = stats.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key in ("calls", "self_s", "total_s"):
            values[f"{name}.{key}"] = entry[key]
    yielded = recorder.yields["liering.signed_automorphisms"]
    values["isomorphism.automorphisms.perms"] = counts["perms"]
    for rule in RULES:
        values[f"certify.rule.{rule}.hits"] = rule_hits.get(rule, 0)
    values["certify.max_depth"] = counts["depth"]
    values["liering.signed_automorphisms.yielded"] = yielded
    values["liering.levels_per_aut"] = (
        stats["liering.induced_matrix"]["calls"] / yielded if yielded else 0.0)
    lyndon_tested = stats["lyndon.is_lyndon"]["calls"]
    values["lyndon.words_scanned"] = counts["words"]
    values["lyndon.hit_ratio"] = counts["found"] / lyndon_tested if lyndon_tested else 0.0
    values["lyndon.class_cache.size"] = _class_words.cache_info().currsize
    module_self = spans.module_self_times(stats)
    for module in spans.MODULES:
        values[f"module.{module}.self_s"] = module_self.get(module, 0.0)
    values["process.cpu_s"] = cpu
    values["process.wall_s"] = wall
    return tally, values, recorder


def traced(args: argparse.Namespace) -> tuple[Tally, dict, dict]:
    reference = child_result(args.workload, args.seed, args.seconds, 0)
    tally, values, recorder = trace_plan(plan_for(args.workload, args.seed, args.seconds))
    untraced = reference["metrics"]["wall_s"]["value"]
    values["trace.overhead_ratio"] = sum(tally.seconds) / untraced
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.bin"))
    units = per_layer_units()
    samples = {"spans": len(recorder), "latency": len(tally.latencies)}
    return tally, {name: {"value": values[name], "unit": units[name]} for name in units}, samples


# -- children, metadata and the command line ----------------------------------------


def child_result(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh interpreter and return its result object."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} exited {done.returncode}")
    return json.loads(lines[-1])


def commit_id() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args: argparse.Namespace, samples: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "samples": samples,
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child; a table of metrics, then one JSON line."""
    attempted = failed = 0
    correct = True
    metrics: dict[str, dict] = {}
    for workload in WORKLOADS:
        result = child_result(workload, args.seed, args.seconds, args.trace)
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={result['failed'] / result['attempted']:.6g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
            metrics[f"{workload}.{name}"] = metric
        if args.trace == 0:
            undecided = 1.0 - result["metrics"]["decided_ratio"]["value"]
            print(f"  {'undecided_ratio':<48} {undecided:>14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    import_program()
    if args.setup_probe:
        plan_for(args.workload, args.seed, args.seconds)
        return 0
    if args.workload == "all":
        return run_all(args)
    tally, metrics, samples = traced(args) if args.trace else end_to_end(args)
    meta = metadata(args, samples)
    result = {"correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "problems": tally.problems, **result}, handle, indent=1)
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
