"""The benchmark's own tests: tiny runs, the output checks, the spec.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.serving import Request, ServingStats, make_trace
from repro.sim.rng import RngRegistry

import run
from workloads import CheckFailed, Clock, check_stream, serve_preempt

ROOT = run.ROOT
TINY = ["--scale", "0.05", "--seconds", "0.1"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(run.HERE, "design.json"), encoding="utf-8") as fh:
    DESIGN = json.load(fh)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", trace,
                 *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    table = "\n".join(lines[:-1])
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert f" {metric['name']} " in table
    if trace == "0":
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] != 0


def test_same_seed_same_transcript_other_seed_differs():
    first = run.spawn("serve_preempt", 5, 0.05)
    again = run.spawn("serve_preempt", 5, 0.05)
    other = run.spawn("serve_preempt", 6, 0.05)
    run.check_same("serve_preempt", [first, again])
    assert other["digest"] != first["digest"]


def test_digest_mismatch_fails_the_run():
    first = run.spawn("serve_mps", 5, 0.05)
    corrupted = dict(first, digest="0" * 64)
    with pytest.raises(run.BenchmarkError, match="digest"):
        run.check_same("serve_mps", [first, corrupted])
    traced = dict(run.spawn("serve_mps", 5, 0.05, traced=True),
                  digest="0" * 64)
    with pytest.raises(run.BenchmarkError, match="digest"):
        run.per_layer("serve_mps", traced, [first])


def _stream(n_ms: float = 2_000.0):
    trace = make_trace(RngRegistry(1), "s", "poisson", 30.0, n_ms)
    requests = [Request(rid=i, arrival_ms=t, completed_ms=t + 5.0)
                for i, t in enumerate(trace.times_ms)]
    return ServingStats(job="s", horizon_ms=n_ms,
                        requests=requests), trace.times_ms


def test_stream_accounting_accepts_a_clean_stream():
    stats, times = _stream()
    check_stream(stats, times, 0.0)


def test_request_dropped_from_accounting_fails():
    stats, times = _stream()
    stats.requests[3].completed_ms = None    # neither served nor shed
    with pytest.raises(CheckFailed, match="arrived"):
        check_stream(stats, times, 0.0)


def test_request_missing_from_the_stream_fails():
    stats, times = _stream()
    del stats.requests[-1]
    with pytest.raises(CheckFailed, match="arrivals"):
        check_stream(stats, times, 0.0)


def test_latency_not_from_trace_arrival_fails():
    stats, times = _stream()
    stats.requests[2].arrival_ms += 1.0
    with pytest.raises(CheckFailed, match="request 2"):
        check_stream(stats, times, 0.0)


def test_real_serving_run_passes_its_checks():
    outcome = serve_preempt(2, Clock(time.monotonic()), scale=0.05)
    assert outcome.attempted > 0
    assert outcome.metrics["ok_frac"] > 0


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fig3_solo", "--seed", "1", "--trace", "0",
                 *TINY, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(DESIGN["workloads"]) == set(run.WORKLOADS)
    assert set(DESIGN["end_to_end"]) == set(bounds)


def test_predictions_cite_only_defined_metrics():
    layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    ids = [p["id"] for p in DESIGN["predictions"]]
    assert len(ids) == len(set(ids))
    for prediction in DESIGN["predictions"]:
        assert set(prediction["layer_metrics"]) <= layer
        assert {m.split(" ")[0] for m in prediction["moves"]} <= e2e
        assert set(prediction["on"] + prediction["no_change_on"]) \
            <= set(run.WORKLOADS)
