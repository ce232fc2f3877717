"""The benchmark's workloads: seeded inputs, one run, checked outputs.

Each workload is a function ``(seed, clock, scale, on_context) ->
Outcome`` that builds its inputs from ``seed`` alone (the context RNG and
the arrival traces), drives them through the program's public entry
points (``make_context``, ``make_trace``, ``run_colocation``,
``run_serving``), and returns the simulated results. ``clock`` splits
host time into set-up and run; ``on_context`` sees every finished
context with the policy that governed it (the traced run sanitizes it
and adds up its counters).

``scale`` shrinks a workload for the benchmark's own tests; the
benchmark proper always runs at scale 1.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.baselines import MPSPolicy, MultiThreadedTF
from repro.core import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    JobHandle,
    SwitchFlowPolicy,
    make_context,
)
from repro.experiments import fig3_idle
from repro.experiments.common import ExperimentResult, gpu_idle_percent
from repro.hw import v100_server
from repro.metrics.latency import percentile
from repro.models import get_model
from repro.serving import SLOTarget, ServedModelSpec, make_trace, run_serving
from repro.workloads import JobSpec, run_colocation


class CheckFailed(RuntimeError):
    """An output check failed; the run reports no numbers."""


class Clock:
    """Host wall time split into set-up and run (inside run calls).

    ``started`` is a ``time.monotonic()`` reading, which is system-wide,
    so the parent's spawn time counts interpreter start as set-up.
    """

    def __init__(self, started: float) -> None:
        self.setup_s = time.monotonic() - started
        self.run_s = 0.0

    @contextmanager
    def setup(self):
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.setup_s += time.monotonic() - t0

    @contextmanager
    def run(self):
        t0 = time.monotonic()
        try:
            yield
        finally:
            self.run_s += time.monotonic() - t0


@dataclass
class Outcome:
    """What one workload run produced, before the metrics are derived."""

    #: Simulated end-to-end metrics, by name.
    metrics: Dict[str, float]
    #: Sample count behind each simulated metric.
    samples: Dict[str, int]
    #: Operations attempted and failed: requests on the serving
    #: workloads (shed or aborted ones fail), iterations on fig3_solo.
    attempted: int
    failed: int
    #: The transcript the digest is taken over.
    transcript: dict

    @property
    def digest(self) -> str:
        blob = json.dumps(self.transcript, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


OnContext = Callable[[object, object, list], None]


def _capture(factory, sink: list):
    """Wrap a policy factory so the built policy lands in ``sink``."""
    def build(ctx):
        policy = factory(ctx)
        sink.append(policy)
        return policy
    return build


# ---------------------------------------------------------------------------
# fig3_solo: the Figure 3 --quick cell set, run sequentially
# ---------------------------------------------------------------------------
FIG3_MODELS = ("ResNet50", "MobileNetV2", "NASNetMobile")
FIG3_ITERATIONS = 12
FIG3_WARMUP = 2


def fig3_solo(seed: int, clock: Clock, scale: float = 1.0,
              on_context: Optional[OnContext] = None) -> Outcome:
    iterations = max(FIG3_WARMUP + 4, round(FIG3_ITERATIONS * scale))
    # A scaled-down run keeps only the V100 cells; the Fig 3 findings
    # compare GPUs, so they are checked at full scale only.
    configs = fig3_idle.CONFIGS if scale >= 1.0 else fig3_idle.CONFIGS[1:2]
    rows, transcript = [], []
    infer_ms: List[float] = []
    train_items = infer_items = train_iters = 0
    train_ms = infer_total_ms = 0.0
    requested = done = 0
    for label, builder, args, train_bs, infer_bs, workers in configs:
        for training in (True, False):
            for model_name in FIG3_MODELS:
                batch = train_bs if training else infer_bs
                with clock.setup():
                    ctx = make_context(builder, *args, seed=seed)
                    gpu = ctx.machine.gpu(0)
                    job = JobHandle(
                        name=f"solo/{model_name}",
                        model=get_model(model_name), batch=batch,
                        training=training, preferred_device=gpu.name,
                        data_workers=workers)
                policies: list = []
                with clock.run():
                    run_colocation(
                        ctx, _capture(MultiThreadedTF, policies),
                        [JobSpec(job=job, iterations=iterations)])
                stats = job.stats
                requested += iterations
                if stats.crashed:
                    raise CheckFailed(f"{label} {model_name} crashed: "
                                      f"{stats.crash_reason}")
                done += stats.iterations
                if on_context is not None:
                    on_context(ctx, policies[0], [job.session])
                times = stats.iteration_times_ms
                steady = times[FIG3_WARMUP:]
                if training:
                    train_items += batch * len(steady)
                    train_iters += len(steady)
                    train_ms += sum(steady)
                else:
                    infer_ms.extend(steady)
                    infer_items += batch * len(steady)
                    infer_total_ms += sum(steady)
                rows.append(dict(
                    gpu=label,
                    mode="training" if training else "inference",
                    model=model_name,
                    gpu_idle_pct=gpu_idle_percent(
                        ctx, stats, gpu.lane, warmup=FIG3_WARMUP)))
                transcript.append(dict(
                    cell=f"{label}/{rows[-1]['mode']}/{model_name}",
                    iteration_ms=times,
                    kernels={g.name: g.kernels_completed
                             for g in ctx.machine.gpus}))
    if done != requested:
        raise CheckFailed(f"fig3_solo finished {done} of {requested} "
                          f"requested iterations")
    if scale >= 1.0:
        result = ExperimentResult(name="fig3", title="fig3_solo",
                                  rows=rows)
        missed = [c for c in fig3_idle.headline_checks(result)
                  if not c.endswith(": OK")]
        if missed:
            raise CheckFailed("Fig 3 findings missed: " + "; ".join(missed))
    metrics = {
        "serve_p50_ms": percentile(infer_ms, 50),
        "serve_p99_ms": percentile(infer_ms, 99),
        "goodput_rps": 1000.0 * infer_items / infer_total_ms,
        "train_img_per_s": 1000.0 * train_items / train_ms,
        "ok_frac": done / requested,
    }
    return Outcome(metrics=metrics,
                   samples={"serve_p50_ms": len(infer_ms),
                            "serve_p99_ms": len(infer_ms),
                            "goodput_rps": len(infer_ms),
                            "train_img_per_s": train_iters,
                            "ok_frac": requested},
                   attempted=requested, failed=requested - done,
                   transcript={"cells": transcript})


# ---------------------------------------------------------------------------
# serve_preempt / serve_mps: two served streams and a background trainer
# ---------------------------------------------------------------------------
#: (stream, model, GPU index). The trainer starts on gpu0.
STREAMS = (("serve-mobilenet", "MobileNetV2", 0),
           ("serve-resnet", "ResNet50", 1))
#: Fixed p99 budgets, about 3x each model's solo BS-8 batch time on a
#: V100 (84 ms for both, dominated by the CPU input stage).
SLO_P99_MS = {"MobileNetV2": 250.0, "ResNet50": 250.0}
RATE_RPS = 30.0
DURATION_MS = 20_000.0
MAX_BATCH = 8
BATCH_TIMEOUT_MS = 5.0
QUEUE_CAPACITY = 64
SHED_POLICY = "drop-newest"
TRAINER = ("bg-train", "ResNet50", 32)


def _serve(policy_factory, purpose, seed: int, clock: Clock, scale: float,
           on_context: Optional[OnContext]) -> Outcome:
    duration_ms = DURATION_MS * scale
    with clock.setup():
        ctx = make_context(v100_server, 2, seed=seed)
        served = []
        for name, model_name, gpu_index in STREAMS:
            device = ctx.machine.gpu(gpu_index).name
            served.append(ServedModelSpec(
                job=JobHandle(name=name, model=get_model(model_name),
                              batch=MAX_BATCH, training=False,
                              priority=PRIORITY_HIGH,
                              preferred_device=device),
                trace=make_trace(ctx.rng, name, "poisson", RATE_RPS,
                                 duration_ms),
                max_batch=MAX_BATCH, batch_timeout_ms=BATCH_TIMEOUT_MS,
                queue_capacity=QUEUE_CAPACITY, shed_policy=SHED_POLICY,
                slo=SLOTarget(p99_ms=SLO_P99_MS[model_name])))
        name, model_name, batch = TRAINER
        trainer = JobSpec(
            job=JobHandle(name=name, model=get_model(model_name),
                          batch=batch, training=True,
                          priority=PRIORITY_LOW,
                          preferred_device=ctx.machine.gpu(0).name),
            iterations=1_000_000, background=True)
    policies: list = []
    with clock.run():
        result = run_serving(ctx, _capture(policy_factory, policies),
                             served, [trainer])
    crashed = result.crashed_jobs()
    if crashed:
        raise CheckFailed(f"jobs crashed: {crashed}")
    purpose(ctx, policies[0])
    if on_context is not None:
        on_context(ctx, policies[0],
                   [spec.job.session for spec in served]
                   + [trainer.job.session])

    latencies: List[float] = []
    arrived = shed = aborted = slo_met = 0
    streams = {}
    for spec in served:
        stats = result.served(spec.job.name)
        check_stream(stats, spec.trace.times_ms, spec.start_delay_ms)
        latencies.extend(stats.latencies_ms())
        arrived += stats.arrived
        shed += stats.shed - stats.shed_by_reason.get("aborted", 0)
        aborted += stats.shed_by_reason.get("aborted", 0)
        slo_met += stats.slo_met
        streams[spec.job.name] = [r.latency_ms for r in stats.requests]
    train = result.stats[TRAINER[0]]
    metrics = {
        "serve_p50_ms": percentile(latencies, 50),
        "serve_p99_ms": percentile(latencies, 99),
        "goodput_rps": 1000.0 * slo_met / duration_ms,
        "train_img_per_s": 1000.0 * train.batch * train.iterations
        / (train.finished_at - train.started_at),
        "ok_frac": slo_met / arrived,
    }
    transcript = {
        "latency_ms": streams,
        "trainer_iteration_ms": train.iteration_times_ms,
        "kernels": {g.name: g.kernels_completed for g in ctx.machine.gpus},
    }
    return Outcome(metrics=metrics,
                   samples={"serve_p50_ms": len(latencies),
                            "serve_p99_ms": len(latencies),
                            "goodput_rps": arrived,
                            "train_img_per_s": train.iterations,
                            "ok_frac": arrived},
                   attempted=arrived, failed=shed + aborted,
                   transcript=transcript)


def check_stream(stats, trace_ms, start_delay_ms: float) -> None:
    """Every arrival is accounted for once, and every latency runs from
    the request's trace arrival time."""
    completed = stats.completed
    shed = stats.shed
    if stats.arrived != completed + shed:
        raise CheckFailed(
            f"{stats.job}: arrived {stats.arrived} != completed "
            f"{completed} + shed/aborted {shed}")
    if stats.arrived != len(trace_ms):
        raise CheckFailed(f"{stats.job}: {stats.arrived} arrivals for a "
                          f"trace of {len(trace_ms)}")
    for request in stats.requests:
        due = start_delay_ms + trace_ms[request.rid]
        if abs(request.arrival_ms - due) > 1e-6 * max(1.0, due):
            raise CheckFailed(f"{stats.job}: request {request.rid} "
                              f"arrived at {request.arrival_ms}, trace "
                              f"says {due}")
        if (request.completed_ms is not None
                and abs(request.latency_ms - (request.completed_ms - due))
                > 1e-6 * max(1.0, request.completed_ms)):
            raise CheckFailed(f"{stats.job}: request {request.rid} "
                              f"latency not measured from its arrival")


def _preempts(_ctx, policy) -> None:
    if policy.preemptions == 0:
        raise CheckFailed("serve_preempt made no preemption")


def _coruns(ctx, _policy) -> None:
    if corun_kernels(ctx) == 0:
        raise CheckFailed("serve_mps never co-ran kernels of two jobs")


def corun_kernels(ctx) -> int:
    """Kernel spans that started while another context's kernel was
    executing on the same GPU."""
    count = 0
    for gpu in ctx.machine.gpus:
        active: List[tuple] = []
        for span in sorted(ctx.tracer.by_lane(gpu.lane),
                           key=lambda s: s.start):
            context = span.meta.get("context")
            active = [a for a in active if a[0] > span.start]
            if any(other != context for _end, other in active):
                count += 1
            active.append((span.end, context))
    return count


def serve_preempt(seed: int, clock: Clock, scale: float = 1.0,
                  on_context: Optional[OnContext] = None) -> Outcome:
    return _serve(SwitchFlowPolicy, _preempts, seed, clock, scale,
                  on_context)


def serve_mps(seed: int, clock: Clock, scale: float = 1.0,
              on_context: Optional[OnContext] = None) -> Outcome:
    return _serve(MPSPolicy, _coruns, seed, clock, scale, on_context)


WORKLOADS = {
    "fig3_solo": fig3_solo,
    "serve_preempt": serve_preempt,
    "serve_mps": serve_mps,
}
