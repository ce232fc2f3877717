"""Core micro-benchmarks: the perf trajectory of the simulation stack.

Three families, matching the hot paths the simulator spends its time in:

* ``engine.*`` — raw event-loop throughput (events/sec), measured on
  both the production engine and the plain binary-heap reference
  engine the test suite keeps as its oracle
  (``tests/reference_engine.py``), so every run records its own
  speedup.
* ``executor.dispatch`` — end-to-end node dispatch rate of a real solo
  workload (graph nodes + pool tasks per wall second).
* ``cost_model.lookup`` — memoized vs uncached cost-model lookup rate
  over the model zoo's ops, plus the cache hit rate.

``trace.span_bytes`` (host memory retained per recorded span) rides
along, informational only: the regression gate does not check it.

Run from the repo root (writes ``BENCH_core.json`` there)::

    PYTHONPATH=src python benchmarks/bench_core.py --quick

or under pytest (uses a throwaway output path)::

    pytest benchmarks/bench_core.py -s

The JSON is committed per-PR, so the trajectory of events/sec across
the repo's history is `git log -p BENCH_core.json`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.options import RunOptions, using_options
from repro.experiments.common import run_solo
from repro.graph.cost_model import (
    COST_CACHE_STATS,
    clear_cost_cache,
    cost_cache_disabled,
    cpu_op_cost_ms,
    gpu_kernel_cost,
)
from repro.hw import TESLA_V100, XEON_DUAL_18C, single_gpu_server
from repro.models import get_model
from repro.sim import Engine
from repro.sim.events import Event

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
from tests.reference_engine import ReferenceEngine  # noqa: E402
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"

# Benchmark sizes: (quick, full)
_ENGINE_DISPATCH_EVENTS = (200_000, 600_000)
_ENGINE_TIMEOUT_EVENTS = (100_000, 300_000)
_ENGINE_PROCESS_EVENTS = (30_000, 120_000)
_ENGINE_MIXED_EVENTS = (60_000, 180_000)
_EXECUTOR_ITERATIONS = (3, 8)
_READY_CHURN_TASKS = (20_000, 60_000)
_COST_LOOKUP_ROUNDS = (20, 60)
_HISTOGRAM_SAMPLES = (5_000, 20_000)
_HISTOGRAM_QUERIES = (20_000, 50_000)
_OBS_ITERATIONS = (3, 8)
_ROUTE_LOOKUPS = (100_000, 300_000)
_SERVING_DURATION_MS = (1_500.0, 6_000.0)
# Dispatch spans plus as many kernel spans (one size: a byte count per
# span does not need a longer run to settle).
_TRACE_SPANS = 10_000
# Each engine pair is run this many times per side, keeping the best
# rate. One shot on a shared single-core container carries ±15% noise,
# which is enough to flip a 3x speedup to 2.6x run-to-run; best-of-N
# converges on the machine's actual capability for both sides equally.
_ENGINE_REPEATS = (2, 5)


def _make_engine(optimized: bool) -> Engine:
    # optimized=True is the production engine; the baseline is the
    # reference heap engine from the test tree.
    return Engine() if optimized else ReferenceEngine()


# ---------------------------------------------------------------------------
# Engine family
# ---------------------------------------------------------------------------
def bench_engine_dispatch(optimized: bool, events: int,
                          batch: int = 10_000) -> float:
    """schedule+dispatch rate: pre-created events succeed in batches.

    This isolates the scheduling core — agenda insert, merged pop,
    callback dispatch — which is exactly what the immediate-lane fast
    path targets.
    """
    engine = _make_engine(optimized)
    processed = 0

    def callback(_event) -> None:
        nonlocal processed
        processed += 1

    elapsed = 0.0
    rounds = events // batch
    for _ in range(rounds):
        # Event construction happens outside the timed segment — only
        # the schedule (succeed) + dispatch (run) path is measured.
        group = []
        for _ in range(batch):
            event = Event(engine)
            event.callbacks.append(callback)
            group.append(event)
        started = time.perf_counter()
        for event in group:
            event.succeed()
        engine.run()
        elapsed += time.perf_counter() - started
    assert processed == rounds * batch
    return processed / elapsed


def bench_engine_timeouts(optimized: bool, events: int) -> float:
    """Heap-lane throughput: timeouts with staggered future delays."""
    engine = _make_engine(optimized)
    processed = 0

    def callback(_event) -> None:
        nonlocal processed
        processed += 1

    started = time.perf_counter()
    for index in range(events):
        timeout = engine.timeout((index % 7) * 0.25)
        timeout.callbacks.append(callback)
    engine.run()
    elapsed = time.perf_counter() - started
    assert processed == events
    return processed / elapsed


def bench_engine_processes(optimized: bool, events: int,
                           processes: int = 50) -> float:
    """End-to-end loop rate with generator processes yielding timeouts."""
    engine = _make_engine(optimized)
    steps = events // processes

    def proc(env):
        for _ in range(steps):
            yield env.timeout(1.0)

    started = time.perf_counter()
    for _ in range(processes):
        engine.process(proc(engine))
    engine.run()
    elapsed = time.perf_counter() - started
    return (steps * processes) / elapsed


def bench_engine_mixed(optimized: bool, events: int) -> float:
    """Realistic blend: processes, future timeouts and immediate chains.

    The single-family benches isolate one agenda lane each; real runs
    interleave all three. A third of the events step generator
    processes, a third are staggered future timeouts, and a third are
    re-arming chains that alternate between the immediate lane and
    short future delays — so bucket churn, lane swaps and pooled
    timeout reuse all happen in one loop.
    """
    engine = _make_engine(optimized)
    third = events // 3
    processed = 0

    def callback(_event) -> None:
        nonlocal processed
        processed += 1

    n_procs = 50
    steps = third // n_procs

    def proc(env):
        for _ in range(steps):
            yield env.timeout(1.0)

    chains = 8
    quota = third // chains

    def chain(count):
        def fire(_event) -> None:
            nonlocal processed
            processed += 1
            if count[0] > 0:
                count[0] -= 1
                delay = 0.0 if count[0] % 4 else 0.25
                engine.timeout(delay).callbacks.append(fire)
        return fire

    started = time.perf_counter()
    for _ in range(n_procs):
        engine.process(proc(engine))
    for index in range(third):
        engine.timeout((index % 5) * 0.5).callbacks.append(callback)
    for _ in range(chains):
        engine.timeout(0.0).callbacks.append(chain([quota - 1]))
    engine.run()
    elapsed = time.perf_counter() - started
    total = n_procs * steps + third + chains * quota
    assert processed == third + chains * quota
    return total / elapsed


def _engine_pair(bench, events: int, repeats: int = 1) -> dict:
    # Interleave the two sides so a slow stretch of the host (another
    # container's burst, thermal dip) degrades both equally instead of
    # whichever side's block it happened to land on.
    baseline = optimized = 0.0
    for _ in range(repeats):
        baseline = max(baseline, bench(False, events))
        optimized = max(optimized, bench(True, events))
    return {
        "events": events,
        "repeats": repeats,
        "baseline_events_per_sec": round(baseline),
        "optimized_events_per_sec": round(optimized),
        "speedup": round(optimized / baseline, 3),
    }


# ---------------------------------------------------------------------------
# Executor family
# ---------------------------------------------------------------------------
def bench_executor_dispatch(iterations: int) -> dict:
    """Node dispatch rate of a real solo workload (wall-clock)."""
    model = get_model("MobileNetV2")
    started = time.perf_counter()
    ctx, stats = run_solo(single_gpu_server, (TESLA_V100,), model,
                          batch=32, training=True, iterations=iterations)
    elapsed = time.perf_counter() - started
    tasks = ctx.metrics.value("pool.tasks_total")
    kernels = ctx.metrics.value("gpu.kernels_total")
    return {
        "model": model.name,
        "iterations": iterations,
        "pool_tasks": int(tasks),
        "gpu_kernels": int(kernels),
        "simulated_ms": round(ctx.now, 1),
        "wall_s": round(elapsed, 3),
        "nodes_per_sec": round(tasks / elapsed) if elapsed > 0 else 0,
    }


def bench_executor_ready_churn(total_tasks: int, wave: int = 64,
                               workers: int = 8) -> dict:
    """Ready-set churn: waves of microtasks through one thread pool.

    Isolates the completion-wave dispatch path the executor leans on —
    ``submit_batch`` placement, worker wake, local-queue pop and the
    incremental queue-depth accounting — without the model/device
    machinery of ``executor.dispatch``. A driver releases a wave of
    trivial tasks, waits for the pool to drain it, and repeats.
    """
    from repro.hw.cpu import CpuDevice
    from repro.runtime.threadpool import Task, ThreadPool

    engine = Engine()
    cpu = CpuDevice(engine, XEON_DUAL_18C)
    pool = ThreadPool(engine, cpu, workers, name="bench")

    def driver(env):
        submitted = 0
        while submitted < total_tasks:
            count = min(wave, total_tasks - submitted)
            done = env.event()
            remaining = [count]

            def body(_worker, done=done, remaining=remaining):
                yield env.timeout(0.001)
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed()

            pool.submit_batch(
                [Task(f"churn{submitted + i}", "bench", body)
                 for i in range(count)])
            submitted += count
            yield done

    engine.process(driver(engine))
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    pool.shutdown()
    engine.run()
    return {
        "tasks": total_tasks,
        "wave": wave,
        "workers": workers,
        "wall_s": round(elapsed, 3),
        "tasks_per_sec": round(total_tasks / elapsed)
        if elapsed > 0 else 0,
    }


# ---------------------------------------------------------------------------
# Observability family
# ---------------------------------------------------------------------------
def bench_histogram_quantile(samples: int, queries: int) -> dict:
    """Quantile query rate: sorted-view cache vs observe-churn.

    The cached path answers repeated queries off one sorted view; the
    churn path interleaves an observe before every query, forcing a
    re-sort each time — the worst case the cache is designed to beat.
    """
    from repro.obs.metrics import MetricsRegistry

    def _filled() -> object:
        histogram = MetricsRegistry().histogram("bench.lat_ms", "bench")
        for index in range(samples):
            histogram.observe(float((index * 37) % 997))
        return histogram

    histogram = _filled()
    started = time.perf_counter()
    for index in range(queries):
        histogram.quantile(25 + (index % 3) * 25)
    cached_elapsed = time.perf_counter() - started

    histogram = _filled()
    churn_queries = max(200, queries // 50)
    started = time.perf_counter()
    for index in range(churn_queries):
        histogram.observe(float(index))
        histogram.quantile(95)
    churn_elapsed = time.perf_counter() - started

    cached_rate = queries / cached_elapsed
    churn_rate = churn_queries / churn_elapsed
    return {
        "samples": samples,
        "queries": queries,
        "cached_queries_per_sec": round(cached_rate),
        "churn_queries_per_sec": round(churn_rate),
        "cache_speedup": round(cached_rate / churn_rate, 3),
    }


def bench_concurrency_overhead(iterations: int) -> dict:
    """Dispatch rate with the concurrency tracker off / lockset / hb.

    The untracked run is the hot-path guard: every synchronization
    source and shared-state site now carries an instrumentation hook,
    and with no tracker installed each hook must cost one module-global
    load plus a ``None`` test — so ``untracked_nodes_per_sec`` is gated
    against regression alongside ``executor.dispatch``. The tracked
    rates record what full happens-before and lockset-only analysis
    actually cost on the same workload.
    """
    model = get_model("MobileNetV2")

    def _run(mode) -> tuple:
        started = time.perf_counter()
        with using_options(RunOptions(concurrency=mode)):
            ctx, _stats = run_solo(single_gpu_server, (TESLA_V100,),
                                   model, batch=32, training=True,
                                   iterations=iterations)
        elapsed = time.perf_counter() - started
        tasks = ctx.metrics.value("pool.tasks_total")
        return (round(tasks / elapsed) if elapsed > 0 else 0, ctx)

    untracked, _ = _run(None)
    lockset, _ = _run("lockset")
    hb, ctx = _run("hb")
    tracker = ctx.concurrency
    return {
        "model": model.name,
        "iterations": iterations,
        "untracked_nodes_per_sec": untracked,
        "lockset_nodes_per_sec": lockset,
        "hb_nodes_per_sec": hb,
        "hb_overhead_pct": round(100.0 * (untracked - hb) / untracked, 1)
        if untracked else 0.0,
        "tracked_accesses": tracker.accesses,
        "tracked_sync_ops": tracker.sync_ops,
    }


def bench_obs_overhead(iterations: int) -> dict:
    """Dispatch rate with the full observability stack armed.

    Same solo workload as ``executor.dispatch``, but with windowed
    time-series sampling attached and a critical-path profile computed
    afterwards. Gating this rate (not just the bare-dispatch one)
    catches observability creep on the hot path.
    """
    from repro.obs.profile import profile_run

    model = get_model("MobileNetV2")
    started = time.perf_counter()
    with using_options(RunOptions(timeseries=(50.0, 512))):
        ctx, _stats = run_solo(single_gpu_server, (TESLA_V100,), model,
                               batch=32, training=True,
                               iterations=iterations)
    profile = profile_run(ctx)
    elapsed = time.perf_counter() - started
    tasks = ctx.metrics.value("pool.tasks_total")
    return {
        "model": model.name,
        "iterations": iterations,
        "timeseries_windows": len(ctx.timeseries.windows),
        "profile_overhead_ms": round(profile.overhead_wall_ms, 3),
        "wall_s": round(elapsed, 3),
        "profiled_nodes_per_sec": round(tasks / elapsed)
        if elapsed > 0 else 0,
    }


# ---------------------------------------------------------------------------
# Topology family
# ---------------------------------------------------------------------------
def bench_route_lookup(lookups: int) -> dict:
    """Device/route lookup rate on a 4-node cluster.

    ``device()`` sits on the migration and sanitizer hot paths; it used
    to be a linear scan over ``devices`` and is now a dict hit — the
    scan is re-measured here so the payload records its own speedup.
    ``route()`` adds the per-pair cache on top (a miss walks the
    topology and allocates hop lists; steady-state migrations must not).
    """
    from repro.hw.topology import v100_cluster

    engine = Engine()
    cluster = v100_cluster(engine, 4, 4)
    names = [gpu.name for gpu in cluster.gpus]
    pairs = [(a, b) for a in names for b in names if a != b]

    started = time.perf_counter()
    for index in range(lookups):
        cluster.device(names[index % len(names)])
    device_elapsed = time.perf_counter() - started

    devices = cluster.devices
    started = time.perf_counter()
    for index in range(lookups):
        wanted = names[index % len(names)]
        for device in devices:
            if device.name == wanted:
                break
    scan_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    for index in range(lookups):
        source, destination = pairs[index % len(pairs)]
        cluster.route(source, destination)
    route_elapsed = time.perf_counter() - started

    device_rate = lookups / device_elapsed
    scan_rate = lookups / scan_elapsed
    return {
        "devices": len(devices),
        "routes": len(pairs),
        "lookups": lookups,
        "device_lookups_per_sec": round(device_rate),
        "scan_lookups_per_sec": round(scan_rate),
        "device_speedup": round(device_rate / scan_rate, 3),
        "route_lookups_per_sec": round(lookups / route_elapsed),
    }


# ---------------------------------------------------------------------------
# Serving family
# ---------------------------------------------------------------------------
def bench_serving_throughput(duration_ms: float,
                             rate_rps: float = 80.0) -> dict:
    """Wall-clock request rate of the serving front-end (repro.serving).

    A heavy open-loop stream through the whole admission -> batcher ->
    dispatch path on a solo served model — no trainer, so the number
    gates the serving stack itself (queue events, batch formation,
    per-request accounting) rather than preemption behavior. The rate
    sits just under the solo service capacity: a saturated queue would
    shed a timing-dependent fraction and make the gated rate noisy.
    """
    from repro.baselines import MultiThreadedTF
    from repro.core import PRIORITY_HIGH, JobHandle, make_context
    from repro.hw import v100_server
    from repro.serving import (SLOTarget, ServedModelSpec, make_trace,
                               run_serving)

    model = get_model("MobileNetV2")
    ctx = make_context(v100_server, 1, seed=0)
    trace = make_trace(ctx.rng, "bench-serve", "poisson", rate_rps,
                       duration_ms)
    served = ServedModelSpec(
        job=JobHandle(name="bench-serve", model=model, batch=8,
                      training=False, priority=PRIORITY_HIGH,
                      preferred_device=ctx.machine.gpu(0).name),
        trace=trace, max_batch=8, batch_timeout_ms=5.0,
        queue_capacity=256, shed_policy="drop-newest",
        slo=SLOTarget(p99_ms=10_000.0))
    started = time.perf_counter()
    result = run_serving(ctx, MultiThreadedTF, [served])
    elapsed = time.perf_counter() - started
    stream = result.served("bench-serve")
    return {
        "model": model.name,
        "rate_rps": rate_rps,
        "duration_ms": duration_ms,
        "arrived": stream.arrived,
        "completed": stream.completed,
        "batches": len(stream.batches),
        "wall_s": round(elapsed, 3),
        "requests_per_sec": round(stream.completed / elapsed)
        if elapsed > 0 else 0,
    }


# ---------------------------------------------------------------------------
# Cost-model family
# ---------------------------------------------------------------------------
def _zoo_ops():
    ops = []
    for name in ("ResNet50", "MobileNetV2", "VGG16"):
        graph = get_model(name).build_graph(batch=32, training=True)
        ops.extend(node.op for node in graph)
    return ops


def bench_cost_lookup(rounds: int) -> dict:
    """Memoized vs uncached lookup rate over the model zoo's ops."""
    ops = _zoo_ops()
    gpu_spec, cpu_spec = TESLA_V100, XEON_DUAL_18C

    def sweep() -> int:
        for op in ops:
            gpu_kernel_cost(op, gpu_spec)
            cpu_op_cost_ms(op, cpu_spec)
        return 2 * len(ops)

    with cost_cache_disabled():
        started = time.perf_counter()
        uncached_lookups = sum(sweep() for _ in range(rounds))
        uncached_elapsed = time.perf_counter() - started

    clear_cost_cache(reset_stats=True)
    started = time.perf_counter()
    cached_lookups = sum(sweep() for _ in range(rounds))
    cached_elapsed = time.perf_counter() - started
    stats = COST_CACHE_STATS
    hits = stats.gpu_hits + stats.cpu_hits
    total = hits + stats.gpu_misses + stats.cpu_misses

    uncached_rate = uncached_lookups / uncached_elapsed
    cached_rate = cached_lookups / cached_elapsed
    return {
        "ops": len(ops),
        "rounds": rounds,
        "uncached_lookups_per_sec": round(uncached_rate),
        "cached_lookups_per_sec": round(cached_rate),
        "speedup": round(cached_rate / uncached_rate, 3),
        "cache_hit_rate": round(hits / total, 4) if total else 0.0,
    }


# ---------------------------------------------------------------------------
# Trace family
# ---------------------------------------------------------------------------
def bench_span_bytes(spans: int) -> dict:
    """Host memory a traced run keeps per recorded span (lower is better).

    Replays the two hottest span sites on a bare one-GPU machine:
    ``spans`` host dispatch slices through ``CpuDevice.execute`` and as
    many kernels through ``GpuDevice.launch``, each passing the shared
    metadata mapping the executor passes, over 64 op names. Reports the
    tracemalloc bytes still allocated once the run is over, per span.
    """
    import tracemalloc

    from repro.hw.kernels import KernelLaunch

    engine = Engine()
    machine = single_gpu_server(engine, TESLA_V100)
    cpu, gpu, tracer = machine.cpu, machine.gpus[0], machine.tracer
    labels = [f"bench/op{index}" for index in range(64)]
    host_meta = tracer.shared_meta(context="bench")
    kernel_meta = tracer.shared_meta(context="bench", stream=0,
                                     occupancy=1.0)

    def driver():
        for index in range(spans):
            label = labels[index % len(labels)]
            yield from cpu.execute(0.06, label=label, meta=host_meta)
            yield gpu.launch(KernelLaunch(label, "bench", 0.25, 1.0, 0,
                                          kernel_meta))

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.process(driver())
        engine.run()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    recorded = len(tracer.spans)
    return {
        "spans": recorded,
        "retained_bytes": retained,
        "bytes_per_span": round(retained / recorded, 1),
    }


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------
def run_suite(mode: str = "quick", output: Path = DEFAULT_OUTPUT) -> dict:
    size = 0 if mode == "quick" else 1
    repeats = _ENGINE_REPEATS[size]
    payload = {
        "schema": 1,
        "mode": mode,
        "generated_by": "benchmarks/bench_core.py",
        "benchmarks": {
            "engine.dispatch": _engine_pair(
                bench_engine_dispatch, _ENGINE_DISPATCH_EVENTS[size],
                repeats),
            "engine.timeout": _engine_pair(
                bench_engine_timeouts, _ENGINE_TIMEOUT_EVENTS[size],
                repeats),
            "engine.process": _engine_pair(
                bench_engine_processes, _ENGINE_PROCESS_EVENTS[size],
                repeats),
            "engine.mixed": _engine_pair(
                bench_engine_mixed, _ENGINE_MIXED_EVENTS[size], repeats),
            "executor.dispatch": bench_executor_dispatch(
                _EXECUTOR_ITERATIONS[size]),
            "executor.ready_churn": bench_executor_ready_churn(
                _READY_CHURN_TASKS[size]),
            "cost_model.lookup": bench_cost_lookup(
                _COST_LOOKUP_ROUNDS[size]),
            "histogram.quantile": bench_histogram_quantile(
                _HISTOGRAM_SAMPLES[size], _HISTOGRAM_QUERIES[size]),
            "obs.overhead": bench_obs_overhead(_OBS_ITERATIONS[size]),
            "analysis.concurrency": bench_concurrency_overhead(
                _EXECUTOR_ITERATIONS[size]),
            "topology.route_lookup": bench_route_lookup(
                _ROUTE_LOOKUPS[size]),
            "serving.request_throughput": bench_serving_throughput(
                _SERVING_DURATION_MS[size]),
            "trace.span_bytes": bench_span_bytes(_TRACE_SPANS),
        },
    }
    output = Path(output)
    output.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    return payload


def _print_summary(payload: dict) -> None:
    benches = payload["benchmarks"]
    for name in ("engine.dispatch", "engine.timeout", "engine.process",
                 "engine.mixed"):
        entry = benches[name]
        print(f"{name}: baseline {entry['baseline_events_per_sec']:,} ev/s"
              f" -> optimized {entry['optimized_events_per_sec']:,} ev/s"
              f" ({entry['speedup']}x)")
    executor = benches["executor.dispatch"]
    print(f"executor.dispatch: {executor['nodes_per_sec']:,} nodes/s "
          f"({executor['pool_tasks']} tasks in {executor['wall_s']}s)")
    churn = benches["executor.ready_churn"]
    print(f"executor.ready_churn: {churn['tasks_per_sec']:,} tasks/s "
          f"({churn['tasks']} tasks, waves of {churn['wave']} across "
          f"{churn['workers']} workers)")
    cost = benches["cost_model.lookup"]
    print(f"cost_model.lookup: {cost['uncached_lookups_per_sec']:,}/s "
          f"uncached -> {cost['cached_lookups_per_sec']:,}/s cached "
          f"({cost['speedup']}x, hit rate {cost['cache_hit_rate']:.2%})")
    quantile = benches["histogram.quantile"]
    print(f"histogram.quantile: {quantile['cached_queries_per_sec']:,}/s "
          f"cached vs {quantile['churn_queries_per_sec']:,}/s under "
          f"churn ({quantile['cache_speedup']}x)")
    obs = benches["obs.overhead"]
    print(f"obs.overhead: {obs['profiled_nodes_per_sec']:,} nodes/s with "
          f"timeseries+profiler on ({obs['timeseries_windows']} windows, "
          f"profile {obs['profile_overhead_ms']} ms)")
    concurrency = benches["analysis.concurrency"]
    print(f"analysis.concurrency: {concurrency['untracked_nodes_per_sec']:,} "
          f"nodes/s untracked, {concurrency['lockset_nodes_per_sec']:,} "
          f"lockset, {concurrency['hb_nodes_per_sec']:,} hb "
          f"({concurrency['hb_overhead_pct']}% overhead, "
          f"{concurrency['tracked_accesses']} accesses / "
          f"{concurrency['tracked_sync_ops']} sync ops)")
    topo = benches["topology.route_lookup"]
    print(f"topology.route_lookup: {topo['device_lookups_per_sec']:,}/s "
          f"device (scan {topo['scan_lookups_per_sec']:,}/s, "
          f"{topo['device_speedup']}x), "
          f"{topo['route_lookups_per_sec']:,}/s cached routes over "
          f"{topo['routes']} pairs")
    serving = benches["serving.request_throughput"]
    print(f"serving.request_throughput: "
          f"{serving['requests_per_sec']:,} req/s "
          f"({serving['completed']}/{serving['arrived']} requests in "
          f"{serving['batches']} batches, {serving['wall_s']}s)")
    spans = benches["trace.span_bytes"]
    print(f"trace.span_bytes: {spans['bytes_per_span']:,} bytes retained "
          f"per span ({spans['spans']:,} spans)")


# ---------------------------------------------------------------------------
# pytest entry points (collected via the bench_*.py glob)
# ---------------------------------------------------------------------------
def test_bench_core(once, tmp_path):
    payload = once(run_suite, mode="quick",
                   output=tmp_path / "BENCH_core.json")
    assert (tmp_path / "BENCH_core.json").exists()
    benches = payload["benchmarks"]
    # Loose sanity floors (CI machines are noisy); the committed
    # BENCH_core.json records the real numbers.
    assert benches["engine.dispatch"]["speedup"] > 1.2
    assert benches["engine.mixed"]["speedup"] > 1.0
    assert benches["cost_model.lookup"]["speedup"] > 1.5
    assert benches["cost_model.lookup"]["cache_hit_rate"] > 0.9
    assert benches["executor.dispatch"]["pool_tasks"] > 0
    assert benches["executor.ready_churn"]["tasks_per_sec"] > 0
    assert benches["histogram.quantile"]["cache_speedup"] > 1.0
    assert benches["obs.overhead"]["profiled_nodes_per_sec"] > 0
    assert benches["obs.overhead"]["timeseries_windows"] > 0
    concurrency = benches["analysis.concurrency"]
    assert concurrency["untracked_nodes_per_sec"] > 0
    assert concurrency["hb_nodes_per_sec"] > 0
    assert concurrency["tracked_sync_ops"] > 0
    # The dict lookup must beat the linear scan it replaced (satellite
    # guard): 20 devices on the bench cluster, so anything close to 1x
    # means the lookup regressed back to a scan.
    assert benches["topology.route_lookup"]["device_speedup"] > 1.5
    assert benches["topology.route_lookup"]["route_lookups_per_sec"] > 0
    serving = benches["serving.request_throughput"]
    assert serving["requests_per_sec"] > 0
    # The bench queue is deep and the SLO loose: the solo front-end
    # must complete (not shed) essentially the whole stream.
    assert serving["completed"] > 0.9 * serving["arrived"]
    assert benches["trace.span_bytes"]["spans"] == 2 * _TRACE_SPANS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SwitchFlow-repro core microbenchmarks")
    parser.add_argument("--quick", action="store_true",
                        help="smaller event counts (CI mode)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    payload = run_suite(mode="quick" if args.quick else "full",
                        output=args.output)
    _print_summary(payload)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
