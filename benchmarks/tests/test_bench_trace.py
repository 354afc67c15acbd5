"""The span recorder and the traced run's per-layer metrics."""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import run
import spans

# the package re-exports the function certify, which hides the submodule
certify_module = importlib.import_module("raagcert.certify")
isomorphism_module = importlib.import_module("raagcert.isomorphism")

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
COUNT_RATIOS = {"liering.levels_per_aut", "lyndon.hit_ratio"}


def _counts(values, units):
    return {name: values[name] for name, unit in units.items()
            if unit == "count" or name in COUNT_RATIOS}


def _no_check(req, out, tally):
    tally.attempted += 1


def _small_plans():
    certify_requests = [r for r in inputs.certify_requests(4, 21)
                        if r.label not in ("edgeless:9", "complete:9")]
    return {
        "sweep": [inputs.Request("sweep", ("enumerate", "--max-n", "5", "--certify"))],
        "witness": [inputs.Request("witness", ("autcheck", "--max-n", "4"))],
        "certify": certify_requests,
        "ranks": inputs.ranks_requests(4, 3),
    }


@pytest.mark.parametrize("name", ["sweep", "witness", "certify", "ranks"])
def test_count_metrics_repeat_exactly(name):
    requests = _small_plans()[name]
    units = run.per_layer_units()
    first = run.trace_plan(run.Plan(requests, _no_check))[1]
    second = run.trace_plan(run.Plan(requests, _no_check))[1]
    assert _counts(first, units) == _counts(second, units)
    assert set(first) == set(units) - {"trace.overhead_ratio"}


def test_layers_light_up_where_expected():
    plans = _small_plans()
    sweep = run.trace_plan(run.Plan(plans["sweep"], _no_check))[1]
    assert sweep["isomorphism.enumerate_graphs.calls"] == 5
    assert sweep["certify.rule.ABELIAN.hits"] == 5
    assert sweep["certify.max_depth"] >= 2
    assert sweep["liering.signed_automorphisms.yielded"] == 0
    witness = run.trace_plan(run.Plan(plans["witness"], _no_check))[1]
    assert witness["liering.signed_automorphisms.yielded"] > 0
    assert 1.0 <= witness["liering.levels_per_aut"] <= 3.0
    assert witness["isomorphism.is_automorphism.calls"] == witness["liering.induced_matrix.calls"]
    ranks = run.trace_plan(run.Plan(plans["ranks"], _no_check))[1]
    assert ranks["lyndon.enumerate_lyndon.calls"] == 3 * inputs.RANKS_UPTO
    assert ranks["isomorphism.canonical_relabelled.calls"] == 0
    assert 0.0 < ranks["lyndon.hit_ratio"] < 1.0


def test_uninstall_restores_every_binding():
    before = (certify_module.automorphisms, isomorphism_module.automorphisms,
              certify_module.certify, certify_module.Certificate.to_dict)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert certify_module.automorphisms is not before[0]
        assert certify_module.automorphisms is isomorphism_module.automorphisms
        certify_module.certify(isomorphism_module.enumerate_graphs(4)[3])
    finally:
        recorder.uninstall()
    after = (certify_module.automorphisms, isomorphism_module.automorphisms,
             certify_module.certify, certify_module.Certificate.to_dict)
    assert after == before
    assert len(recorder) > 0


def test_self_time_excludes_children():
    graph = isomorphism_module.enumerate_graphs(5)[20]
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        certify_module.certify(graph)
    finally:
        recorder.uninstall()
    stats = recorder.function_stats()
    for entry in stats.values():
        assert entry["self_s"] <= entry["total_s"] + 1e-9
    outer = stats["certify.certify"]
    assert sum(e["self_s"] for e in stats.values()) <= outer["total_s"] + 1e-6


def _last_json(cmd, cwd):
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_runs_follow_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    base = [sys.executable, RUN, "--workload", "ranks", "--seed", "9", "--seconds", "1"]
    plain = _last_json(base + ["--trace", "0"], ROOT)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    first = _last_json(base + ["--trace", "1"], ROOT)
    second = _last_json(base + ["--trace", "1"], ROOT)
    assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert _counts({k: v["value"] for k, v in first["metrics"].items()}, units) == \
        _counts({k: v["value"] for k, v in second["metrics"].items()}, units)
    names, rows = spans.read_spans(os.path.join(ROOT, ".bench_out", "spans-ranks-seed9.bin"))
    plan = run.plan_for("ranks", 9, 1)
    requests = len(plan.requests) * plan.repeats
    assert sum(1 for row in rows if row[0] == "cli.main") == requests
    assert first["metrics"]["cli.main.calls"]["value"] == requests
    assert {row[2] for row in rows} == set(range(requests))
    assert all(row[3] <= row[4] for row in rows)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sweep7",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
