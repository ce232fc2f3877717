"""The repository benchmark: seeded workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload serve_preempt --seed 1 \\
        --seconds 20 --trace 0

Each repetition runs the workload in a fresh child process
(``child.py``), as a user's CLI run would, so caches start empty and
set-up includes interpreter start. Repetitions go on until ``--seconds``
of host time is used (at least three untraced ones, or one after the
traced run), and host metrics are their medians. Simulated metrics and
the transcript digest must be identical in every repetition.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
traced run (per-layer wrappers, profiler, sanitizer) plus untraced ones,
and prints the per-layer metrics. ``--workload all`` runs every
workload in turn. The metric names and units come from
``BENCHMARK.json``; the last line of output is one JSON object. Any
failed output check exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3_solo", "serve_preempt", "serve_mps")
MIN_UNTRACED = 3
CHILD_TIMEOUT_S = 150
HOST_METRICS = ("run_s", "setup_s", "peak_rss_mb")


class BenchmarkError(RuntimeError):
    """A run or an output check failed."""


def spawn(workload: str, seed: int, scale: float,
          traced: bool = False) -> dict:
    """Run one repetition in a fresh process; returns its result."""
    started = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "child.py"), workload,
               str(seed), repr(started), "--scale", repr(scale)]
    if traced:
        command.append("--traced")
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: child ran past "
                             f"{CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload}: child exited "
                             f"{proc.returncode}\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Wall time from spawn to exit, for scheduling repetitions.
    result["wall_s"] = time.monotonic() - started
    return result


def repeat(workload: str, seed: int, seconds: float, scale: float,
           used: float = 0.0, minimum: int = MIN_UNTRACED) -> List[dict]:
    """Untraced repetitions until ``seconds`` (less ``used``) is spent
    and at least ``minimum`` have run."""
    reps: List[dict] = []
    started = time.monotonic() - used
    while True:
        reps.append(spawn(workload, seed, scale))
        elapsed = time.monotonic() - started
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= minimum and elapsed + typical > seconds:
            return reps


def check_same(workload: str, results: List[dict]) -> None:
    """Every repetition simulated exactly the same transcript."""
    first = results[0]
    for other in results[1:]:
        if other["digest"] != first["digest"]:
            raise BenchmarkError(
                f"{workload}: transcript digest differs between runs of "
                f"one seed ({first['digest'][:16]} vs "
                f"{other['digest'][:16]})")
        if other["metrics"] != first["metrics"]:
            raise BenchmarkError(f"{workload}: simulated metrics differ "
                                 f"between runs of one seed")


def end_to_end(workload: str, reps: List[dict]) -> Dict[str, tuple]:
    """``{metric: (value, samples)}`` from untraced repetitions."""
    check_same(workload, reps)
    out = {name: (statistics.median(r[name] for r in reps), len(reps))
           for name in HOST_METRICS}
    first = reps[0]
    for name, value in first["metrics"].items():
        out[name] = (value, first["samples"].get(name, 1))
    return out


def per_layer(workload: str, traced: dict,
              reps: List[dict]) -> Dict[str, tuple]:
    """``{metric: (value, samples)}`` from the traced run, checked
    against the untraced repetitions."""
    check_same(workload, [traced] + reps)
    if traced["sanitizer_errors"]:
        raise BenchmarkError(f"{workload}: sanitizer ERROR findings\n"
                             + "\n".join(traced["sanitizer_errors"]))
    layers = traced["layers"]
    if workload == "serve_mps" and layers["hw.corun_launch_frac"] <= 0:
        raise BenchmarkError("serve_mps: no launch met another context")
    run_s = statistics.median(r["run_s"] for r in reps)
    out = {name: (value, 1) for name, value in layers.items()}
    out["trace.overhead_x"] = (traced["run_s"] / run_s, len(reps))
    out["hw.kernels_per_host_s"] = (layers["hw.kernels"] / run_s,
                                    len(reps))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float) -> tuple:
    """One workload's ``(metrics, attempted, failed, digest)``."""
    if trace:
        started = time.monotonic()
        traced = spawn(workload, seed, scale, traced=True)
        reps = repeat(workload, seed, seconds, scale,
                      used=time.monotonic() - started, minimum=1)
        metrics = per_layer(workload, traced, reps)
    else:
        reps = repeat(workload, seed, seconds, scale)
        metrics = end_to_end(workload, reps)
    first = reps[0]
    return metrics, first["attempted"], first["failed"], first["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workloads (the benchmark's "
                             "own tests only)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    report: Dict[str, dict] = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            metrics, tried, lost, digest = measure(
                workload, args.seed, args.seconds, bool(args.trace),
                args.scale)
            attempted += tried
            failed += lost
            print(f"== {workload} seed {args.seed} "
                  f"trace {args.trace}: digest {digest}")
            print(f"   {'metric':<28} {'value':>14}  {'unit':<10} samples")
            for entry in wanted:
                name = entry["name"]
                if name not in metrics:
                    raise BenchmarkError(f"{workload}: metric {name} "
                                         f"was not measured")
                value, samples = metrics[name]
                print(f"   {name:<28} {value:>14.6g}  "
                      f"{entry['unit']:<10} {samples}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                report[key] = {"value": value, "unit": entry["unit"]}
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
