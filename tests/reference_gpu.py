"""Reference GPU device: the device model without its fast paths.

An independent implementation of :class:`repro.hw.gpu.GpuDevice`'s
scheduling, kept as the test oracle for it. Every launch runs a full
admission pass: sort the stream heads by launch id, admit each one that
fits, recompute every rate and arm a fresh versioned timer with its own
closure. Superseded timers stay on the agenda and fire as no-ops. The
production device must give bit-identical kernel timings, spans and
counters.

Only the scheduling internals are overridden; queues, spans, progress
integration, ``cancel_queued`` and ``drain`` are the production code.
"""

from __future__ import annotations

from repro.hw.gpu import (
    _EPSILON,
    GpuDevice,
    _ResidentKernel,
    _StreamState,
)
from repro.hw.kernels import KernelLaunch
from repro.sim.events import Event


class ReferenceGpuDevice(GpuDevice):
    """:class:`GpuDevice` with a full admission pass and a fresh timer
    per launch, completion and cancellation."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._timer_version = 0

    @property
    def total_occupancy(self) -> float:
        return sum(r.kernel.occupancy for r in self._running)

    def launch(self, kernel: KernelLaunch) -> Event:
        done = self.engine.event()
        key = (kernel.context, kernel.stream)
        state = self._streams.setdefault(key, _StreamState())
        state.queue.append((kernel, done))
        self._admit_and_reschedule()
        return done

    def _recompute_rates(self) -> None:
        beta = self.spec.contention_beta
        total = self.total_occupancy
        multi_context = len(self.resident_contexts) > 1
        for resident in self._running:
            others = total - resident.kernel.occupancy
            slowdown = 1.0 + beta * others
            if multi_context:
                # Cross-context sharing thrashes caches harder than
                # same-context stream parallelism.
                slowdown *= 1.0 + 0.5 * beta * others
            resident.rate = 1.0 / slowdown

    def _admit_and_reschedule(self) -> None:
        self._sync_progress()
        admitted = True
        while admitted:
            admitted = False
            # Hardware work queues are served in kernel-launch order
            # (with bypass: a younger kernel that fits may start while
            # an older one waits for resources).
            heads = sorted(
                ((state.queue[0][0].launch_id, key, state)
                 for key, state in self._streams.items()
                 if not state.busy and state.queue),
                key=lambda entry: entry[0])
            for _launch_id, key, state in heads:
                kernel, done = state.queue[0]
                if self.total_occupancy + kernel.occupancy > 1.0 + _EPSILON:
                    continue
                state.queue.popleft()
                state.busy = True
                kernel.started_at = self.engine.now
                span = None
                if self.tracer is not None:
                    span = self.tracer.begin(
                        self.lane, kernel.name, context=kernel.context,
                        stream=kernel.stream, occupancy=kernel.occupancy)
                resident = _ResidentKernel(kernel, done, span, key)
                if (self._last_context is not None
                        and kernel.context != self._last_context):
                    # Alternating contexts refill caches/TLBs.
                    resident.remaining_ms += \
                        self.spec.context_switch_overhead_ms
                    self.context_switches += 1
                self._last_context = kernel.context
                self._running.append(resident)
                admitted = True
        self._recompute_rates()
        self._arm_timer()

    def _arm_timer(self) -> None:
        self._timer_version += 1
        if not self._running:
            return
        version = self._timer_version
        horizon = min(
            max(r.remaining_ms, 0.0) / r.rate for r in self._running)
        timer = self.engine.timeout(horizon)
        timer.callbacks.append(lambda _event: self._on_timer(version))

    def _on_timer(self, version: int) -> None:
        if version != self._timer_version:
            return  # superseded by a later admission/completion
        self._sync_progress()
        finished = [r for r in self._running
                    if r.remaining_ms <= _EPSILON * max(1.0, r.kernel.work_ms)]
        if not finished:
            self._arm_timer()
            return
        self._running = [r for r in self._running if r not in finished]
        for resident in finished:
            resident.kernel.finished_at = self.engine.now
            if resident.span is not None:
                resident.span.close()
            stream = self._streams.get(resident.stream_key)
            if stream is not None:
                stream.busy = False
            self.kernels_completed += 1
        # Admit successors before delivering completions so the device
        # never goes idle when work is queued.
        self._admit_and_reschedule()
        for resident in finished:
            if not resident.done.triggered:
                resident.done.succeed(resident.kernel)
