"""Co-location harness: run a set of jobs under one policy, collect stats.

This is the engine room of the Figure 6 / Figure 7 / Figure 10
experiments: a background job (usually training) plus one or more
foreground jobs (usually an inference stream), all sharing a machine
under the policy being evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.concurrency import finalize_concurrency
from repro.analysis.integration import enforce
from repro.core.context import RunContext
from repro.core.job import JobHandle
from repro.core.policy import SchedulingPolicy
from repro.metrics.latency import LatencySummary
from repro.metrics.throughput import JobStats
from repro.workloads.drivers import JobDriver, JobProcess

# Generous ceiling so a wedged experiment fails loudly instead of
# spinning forever (simulated hours, not wall time).
DEFAULT_HORIZON_MS = 3_600_000.0


@dataclass
class CollocationResult:
    """Everything an experiment needs after the simulation finishes."""

    ctx: RunContext
    stats: Dict[str, JobStats] = field(default_factory=dict)

    def job(self, name: str) -> JobStats:
        return self.stats[name]

    def latency_summary(self, name: str, warmup: int = 0) -> LatencySummary:
        samples = self.stats[name].iteration_times_ms[warmup:]
        return LatencySummary.from_samples(samples)

    def crashed_jobs(self) -> List[str]:
        return [name for name, stats in self.stats.items() if stats.crashed]


@dataclass
class JobSpec:
    """Declarative description of one driver for the harness."""

    job: JobHandle
    iterations: int
    start_delay_ms: float = 0.0
    request_interval_ms: Optional[float] = None
    #: When True, this driver keeps iterating only until every
    #: *foreground* (non-background) driver finishes.
    background: bool = False


def run_colocation(ctx: RunContext,
                   policy_factory: Callable[[RunContext], SchedulingPolicy],
                   specs: List[JobSpec],
                   horizon_ms: float = DEFAULT_HORIZON_MS
                   ) -> CollocationResult:
    """Run the co-location scenario to completion; returns the results.

    Background jobs are stopped (gracefully, at the next iteration
    boundary) once every foreground job has completed, mirroring the
    paper's methodology of measuring a foreground stream against a
    long-running background trainer. The context's run options
    (``ctx.options``) attach their fault plan, time-series sampler and
    concurrency tracker at run start and decide whether the finished
    run is sanitized.
    """
    if not specs:
        raise ValueError("no jobs to run")

    def make_jobs(policy, drive):
        drivers = [drive(spec) for spec in specs]
        foreground = [driver for driver, spec in zip(drivers, specs,
                                                     strict=True)
                      if not spec.background]
        return drivers, foreground or drivers

    _run_harness(ctx, policy_factory, make_jobs, horizon_ms,
                 scenario="colocation", abort_reason="deadlock-abort")
    result = CollocationResult(ctx=ctx)
    for spec in specs:
        result.stats[spec.job.name] = spec.job.stats
    return result


def _run_harness(ctx: RunContext,
                 policy_factory: Callable[[RunContext], SchedulingPolicy],
                 make_jobs: Callable[..., Tuple[List[JobProcess],
                                                List[JobProcess]]],
                 horizon_ms: float, scenario: str,
                 abort_reason: str) -> None:
    """Run one scenario's jobs to completion, then check the run.

    Builds the policy and attaches the context's run options to it.
    ``make_jobs(policy, drive)`` returns the job processes in start
    order plus the subset the watchdog waits for; ``drive(spec)``
    builds a :class:`JobDriver` whose background specs stop once that
    subset is done. Every job joins ``ctx.jobs``. Past ``horizon_ms``
    the run aborts with a flight record named ``abort_reason``.
    """
    # Deferred: importing the audit module while ``repro.obs`` loads
    # trips runpy's re-import warning under ``python -m repro.obs.audit``.
    from repro.obs.audit import dump_flight_record

    policy = policy_factory(ctx)
    ctx.attach_options(policy)
    stop_signal = ctx.engine.event()

    def drive(spec: JobSpec) -> JobDriver:
        return JobDriver(
            policy, spec.job, iterations=spec.iterations,
            start_delay_ms=spec.start_delay_ms,
            request_interval_ms=spec.request_interval_ms,
            stop_event=stop_signal if spec.background else None)

    runners, watched = make_jobs(policy, drive)
    processes = [runner.start() for runner in runners]
    watched_processes = [runner.process for runner in watched]

    def _watchdog():
        yield ctx.engine.all_of(watched_processes)
        if not stop_signal.triggered:
            stop_signal.succeed()

    ctx.engine.process(_watchdog(), name=f"{scenario}-watchdog")
    done = ctx.engine.all_of(processes)
    deadline = ctx.engine.timeout(horizon_ms)
    ctx.engine.run(until=ctx.engine.any_of([done, deadline]))
    if not done.triggered:
        # Deadlock abort: capture the flight record (open spans,
        # pending decisions, gate state, concurrency waits) before
        # anything unwinds.
        dump_flight_record(ctx, abort_reason, policy=policy)
        finalize_concurrency(ctx, label=abort_reason)
        raise RuntimeError(
            f"{scenario} scenario exceeded {horizon_ms} simulated ms")

    jobs = [runner.job for runner in runners]
    for job in jobs:
        if job not in ctx.jobs:
            ctx.jobs.append(job)
    # Under --sanitize, verify the paper's trace invariants and the
    # session graphs; ERROR findings raise.
    label = ",".join(job.name for job in jobs)
    try:
        enforce(ctx, policy=policy,
                sessions=[job.session for job in jobs], label=label)
    except Exception:
        dump_flight_record(ctx, "sanitization-error", policy=policy)
        raise
    finally:
        # Uninstall the tracker's hooks and (outside --sanitize, which
        # folds the findings into enforce's report) publish its report.
        finalize_concurrency(ctx, label=label)
