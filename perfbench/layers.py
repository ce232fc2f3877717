"""Per-layer instrumentation for the benchmark's traced run.

Everything here is installed from the benchmark's own files, and only in
the traced child process: wrappers around a few public methods count
calls and host time, and ``cProfile`` (enabled only inside the
program's run calls) gives each package's self time. None of it changes
what the simulation does; the traced run's transcript digest must equal
the untraced one to prove that.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import repro
from repro.analysis.integration import analyze_context
from repro.core.gate import DeviceGate
from repro.graph.cost_model import COST_CACHE_STATS
from repro.hw.gpu import GpuDevice
from repro.metrics.latency import percentile
from repro.models.base import ModelSpec
from repro.runtime.session import Session
from repro.runtime.threadpool import ThreadPool
from repro.serving.admission import AdmissionQueue

from workloads import MAX_BATCH, Clock

#: Packages whose self time is reported as ``<layer>.self_share``.
#: ``sim.trace`` (the tracer) is split out of ``sim``; repro packages
#: not listed (workloads, baselines, metrics, ...) fold into ``other``;
#: everything outside repro (stdlib, builtins, numpy) is ``python``.
LAYERS = ("sim", "sim.trace", "runtime", "hw", "graph", "models", "core",
          "serving", "obs", "data", "analysis", "other", "python")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_TIMER = "perf_counter_ns"


class Probe:
    """Call count and host nanoseconds for one wrapped method."""

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0

    def mean_us(self) -> float:
        return self.ns / self.calls / 1000.0 if self.calls else 0.0


class LayerTrace:
    """Installs the wrappers and the profiler; reads the counters."""

    def __init__(self) -> None:
        self.probes: Dict[str, Probe] = {}
        self.corun_launches = 0
        self.revoked_kernels = 0
        self.findings = {"error": 0, "warning": 0, "info": 0}
        self.error_reports: List[str] = []
        self.totals: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.profile = cProfile.Profile()
        self._patched: List[tuple] = []

    # -- wrappers -------------------------------------------------------
    def _timed(self, owner, name: str, probe_name: str,
               after: Optional[Callable] = None) -> None:
        original = getattr(owner, name)
        probe = self.probes.setdefault(probe_name, Probe())
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            probe.ns += clock() - t0
            probe.calls += 1
            if after is not None:
                after(result)
            return result

        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def install(self) -> "LayerTrace":
        self._timed(GpuDevice, "launch", "hw.launch")
        timed_launch = GpuDevice.launch

        def corun_check(gpu, kernel):
            # Another context is resident when this launch is made.
            for context in gpu.resident_contexts:
                if context != kernel.context:
                    self.corun_launches += 1
                    break
            return timed_launch(gpu, kernel)

        GpuDevice.launch = corun_check
        self._patched.append((GpuDevice, "launch", timed_launch))

        def count_revoked(cancelled):
            self.revoked_kernels += len(cancelled)

        self._timed(GpuDevice, "cancel_queued", "hw.cancel_queued",
                    after=count_revoked)
        self._timed(ThreadPool, "submit", "runtime.submit")
        self._timed(ThreadPool, "submit_batch", "runtime.submit")
        self._timed(Session, "__init__", "runtime.session_build")
        self._timed(ModelSpec, "build_graph", "models.build_graph")
        self._timed(DeviceGate, "request", "core.gate_request")
        self._timed(AdmissionQueue, "offer", "serving.offer")
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- hooks for the workload ------------------------------------------
    def finish(self, ctx, policy, sessions) -> None:
        """Sanitize one finished context and add up its counters, so the
        workload need not keep the context alive."""
        report = analyze_context(ctx, policy=policy, sessions=sessions,
                                 label="perfbench")
        for finding in report:
            self.findings[str(finding.severity)] += 1
        if report.has_errors:
            self.error_reports.append(report.render())

        totals, samples = self.totals, self.samples
        metrics = ctx.metrics
        for gpu in ctx.machine.gpus:
            totals["kernels"] += gpu.kernels_completed
            totals["busy_ms"] += gpu.busy_ms_until()
            totals["gpu_ms"] += ctx.now
            totals["context_switches"] += gpu.context_switches
        for name in ("pool.tasks_total", "pool.steals_total",
                     "serving.batches_total",
                     "serving.requests_completed_total",
                     "serving.requests_shed_total"):
            family = metrics.get(name)
            totals[name] += family.total() if family is not None else 0
        queue_wait = metrics.get("serving.queue_wait_ms")
        if queue_wait is not None:
            samples["queue_wait"].extend(queue_wait.all_samples())
        for record in ctx.runlog.records:
            wanted = _LOGGED.get(record["event"])
            if wanted is not None:
                samples[record["event"]].append(record[wanted])
        totals["transfers"] += ctx.resources.transfers_started
        totals["preemptions"] += getattr(policy, "preemptions", 0)
        totals["migrations"] += sum(job.stats.migrations
                                    for job in ctx.jobs)
        totals["spans"] += len(ctx.tracer.spans)
        totals["records"] += len(ctx.runlog.records)

    # -- readout --------------------------------------------------------
    def self_shares(self) -> Dict[str, float]:
        """Share of the program's self time in each layer, from the
        profile of the run calls (the wrappers' own time excluded)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        stats = pstats.Stats(self.profile).stats
        for (path, _line, func), (_cc, _nc, self_s, _ct, _callers) in \
                stats.items():
            if path.startswith(_BENCH_DIR) or _TIMER in func \
                    or "_lsprof" in func:
                continue
            totals[_layer_of(path)] += self_s
        whole = sum(totals.values()) or 1.0
        return {f"{layer}.self_share": seconds / whole
                for layer, seconds in totals.items()}

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except those needing the untraced
        runs (the parent adds ``trace.overhead_x`` and
        ``hw.kernels_per_host_s``)."""
        totals, samples = self.totals, self.samples
        launch = self.probes["hw.launch"]
        kernels = totals["kernels"]
        batches = totals["serving.batches_total"]
        cache = COST_CACHE_STATS
        hits = cache.gpu_hits + cache.cpu_hits
        lookups = hits + cache.gpu_misses + cache.cpu_misses
        out = {
            "hw.kernels": kernels,
            "hw.launch_calls": launch.calls,
            "hw.launch_us": launch.mean_us(),
            "hw.corun_launch_frac": _ratio(self.corun_launches,
                                           launch.calls),
            "hw.gpu_busy_frac": _ratio(totals["busy_ms"],
                                       totals["gpu_ms"]),
            "hw.context_switches": totals["context_switches"],
            "runtime.pool_tasks": totals["pool.tasks_total"],
            "runtime.pool_steals": totals["pool.steals_total"],
            "runtime.submit_us": self.probes["runtime.submit"].mean_us(),
            "runtime.session_build_s":
                self.probes["runtime.session_build"].ns / 1e9,
            "models.build_graph_s":
                self.probes["models.build_graph"].ns / 1e9,
            "graph.cost_cache_hit_rate": _ratio(hits, lookups),
            "graph.cost_lookups": lookups,
            "runtime.kernel_useful_frac": _ratio(kernels, launch.calls),
            "runtime.revoked_kernels": self.revoked_kernels,
            "runtime.state_transfers": totals["transfers"],
            "runtime.transfer_p50_ms": _p50(
                samples["state_transfer_done"]),
            "core.preemptions": totals["preemptions"],
            "core.migrations": totals["migrations"],
            "core.abort_p50_ms": _p50(samples["abort_complete"]),
            "core.gate_wait_p50_ms": _p50(samples["gate_wait"]),
            "core.gate_request_us":
                self.probes["core.gate_request"].mean_us(),
            "serving.batches": batches,
            "serving.batch_fill": _ratio(
                totals["serving.requests_completed_total"],
                batches * MAX_BATCH),
            "serving.queue_wait_p50_ms": _p50(samples["queue_wait"]),
            "serving.shed": totals["serving.requests_shed_total"],
            "serving.offer_us": self.probes["serving.offer"].mean_us(),
            "sim.trace.spans": totals["spans"],
            "obs.runlog.records": totals["records"],
            "analysis.errors": self.findings["error"],
            "analysis.warnings": self.findings["warning"],
        }
        out.update(self.self_shares())
        return out


#: Run-log events whose field the per-layer medians are taken over.
_LOGGED = {"state_transfer_done": "transfer_ms",
           "abort_complete": "drain_ms",
           "gate_wait": "wait_ms"}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p50(samples: List[float]) -> float:
    return percentile(samples, 50) if samples else 0.0


def _layer_of(path: str) -> str:
    if not path.startswith(_REPRO_DIR):
        return "python"
    rel = path[len(_REPRO_DIR):].split(os.sep)
    if len(rel) < 2:
        return "other"
    package = rel[0]
    if package == "sim" and rel[1] == "trace.py":
        return "sim.trace"
    return package if package in LAYERS else "other"


class ProfiledClock(Clock):
    """A :class:`Clock` whose run calls are also profiled."""

    def __init__(self, started: float, profile: cProfile.Profile) -> None:
        super().__init__(started)
        self._profile = profile

    @contextmanager
    def run(self):
        with super().run():
            self._profile.enable()
            try:
                yield
            finally:
                self._profile.disable()
