"""Tests for the GPU engine: streams, admission, contention, cancel."""

import pytest

from repro.hw import KernelLaunch, v100_server
from repro.hw.gpu import GpuDevice
from repro.sim import Engine, EventCancelled, Tracer


@pytest.fixture
def gpu_setup():
    engine = Engine()
    tracer = Tracer(engine)
    machine = v100_server(engine, 1, tracer=tracer)
    return engine, machine.gpu(0), tracer


def _launch_all(engine, gpu, kernels):
    events = [gpu.launch(k) for k in kernels]
    done = engine.all_of(events)

    def waiter(env):
        yield done

    process = engine.process(waiter(engine))
    engine.run(until=process)


class TestExecution:
    def test_single_kernel_takes_its_work_time(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        _launch_all(engine, gpu, [KernelLaunch(
            name="k", context="a", work_ms=7.0, occupancy=1.0)])
        assert engine.now == pytest.approx(7.0)
        assert gpu.kernels_completed == 1

    def test_same_stream_kernels_are_fifo(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernels = [KernelLaunch(name=f"k{i}", context="a", work_ms=5.0,
                                occupancy=0.2, stream=0)
                   for i in range(3)]
        _launch_all(engine, gpu, kernels)
        # Despite tiny occupancy, one stream => strict serialization.
        assert engine.now == pytest.approx(15.0)
        starts = [k.started_at for k in kernels]
        assert starts == sorted(starts)

    def test_heavy_kernels_from_two_contexts_serialize(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernels = [
            KernelLaunch(name="a", context="a", work_ms=10.0, occupancy=1.0),
            KernelLaunch(name="b", context="b", work_ms=10.0, occupancy=1.0),
        ]
        _launch_all(engine, gpu, kernels)
        # Serial execution plus one cross-context switch penalty.
        assert engine.now == pytest.approx(
            20.0 + gpu.spec.context_switch_overhead_ms)
        assert gpu.context_switches == 1

    def test_light_kernels_corun_with_slowdown(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernels = [
            KernelLaunch(name="a", context="a", work_ms=10.0, occupancy=0.3),
            KernelLaunch(name="b", context="b", work_ms=10.0, occupancy=0.3),
        ]
        _launch_all(engine, gpu, kernels)
        # Concurrent but slower than solo, faster than serial.
        assert 10.0 < engine.now < 20.0

    def test_admission_is_launch_order_with_bypass(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        heavy_first = KernelLaunch(name="h1", context="a", work_ms=10.0,
                                   occupancy=1.0)
        heavy_second = KernelLaunch(name="h2", context="b", work_ms=10.0,
                                    occupancy=1.0)
        done = [gpu.launch(heavy_first), gpu.launch(heavy_second)]

        def waiter(env):
            yield env.all_of(done)

        process = engine.process(waiter(engine))
        engine.run(until=process)
        assert heavy_first.finished_at < heavy_second.finished_at

    def test_completion_event_carries_the_kernel(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernel = KernelLaunch(name="k", context="a", work_ms=1.0,
                              occupancy=0.5)
        event = gpu.launch(kernel)

        def waiter(env):
            return (yield event)

        process = engine.process(waiter(engine))
        assert engine.run(until=process) is kernel


class TestCompletionTimer:
    def test_one_firing_per_kernel_and_no_stale_firings(self, monkeypatch):
        # Each launch behind a running kernel used to arm a fresh timer
        # and leave the superseded one to fire as a no-op. The device
        # now re-keys one timer, so N same-stream kernels cost exactly N
        # firings, each completing one kernel.
        firings = []
        on_timer = GpuDevice._on_timer

        def counted(gpu, timer):
            before = gpu.kernels_completed
            on_timer(gpu, timer)
            firings.append(gpu.kernels_completed - before)

        monkeypatch.setattr(GpuDevice, "_on_timer", counted)
        engine = Engine()
        gpu = v100_server(engine, 1).gpu(0)
        n_kernels = 8
        done = []

        def launcher(env):
            for index in range(n_kernels):
                done.append(gpu.launch(KernelLaunch(
                    name=f"k{index}", context="a", work_ms=2.0,
                    occupancy=0.4)))
                yield env.timeout(0.7)

        engine.run(until=engine.process(launcher(engine)))
        engine.run()
        assert all(event.ok for event in done)
        assert gpu.kernels_completed == n_kernels
        assert firings == [1] * n_kernels


class TestPreemptionHooks:
    def test_cancel_queued_drops_unadmitted_only(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernels = [KernelLaunch(name=f"k{i}", context="victim",
                                work_ms=10.0, occupancy=1.0)
                   for i in range(4)]
        events = [gpu.launch(k) for k in kernels]

        def preemptor(env):
            yield env.timeout(5.0)
            cancelled = gpu.cancel_queued("victim")
            assert len(cancelled) == 3      # the running one drains
            yield gpu.drain("victim")
            return env.now

        process = engine.process(preemptor(engine))
        assert engine.run(until=process) == pytest.approx(10.0)
        assert events[0].ok
        for event in events[1:]:
            assert event.triggered and not event.ok
            assert isinstance(event.value, EventCancelled)

    def test_cancel_queued_ignores_other_contexts(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        gpu.launch(KernelLaunch(name="v", context="victim", work_ms=5.0,
                                occupancy=1.0))
        other = gpu.launch(KernelLaunch(name="o", context="other",
                                        work_ms=5.0, occupancy=1.0))
        assert gpu.cancel_queued("victim") == []
        engine.run()
        assert other.ok

    def test_drain_with_nothing_resident_fires_immediately(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        event = gpu.drain("ghost")
        assert event.triggered

    def test_outstanding_counts(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        for i in range(3):
            gpu.launch(KernelLaunch(name=f"k{i}", context="a",
                                    work_ms=10.0, occupancy=1.0))
        assert gpu.outstanding() == 3
        assert gpu.outstanding("a") == 3
        assert gpu.outstanding("b") == 0


class TestTracing:
    def test_spans_carry_context(self, gpu_setup):
        engine, gpu, tracer = gpu_setup
        _launch_all(engine, gpu, [KernelLaunch(
            name="k", context="jobX", work_ms=3.0, occupancy=1.0)])
        spans = [s for s in tracer.spans if s.lane == gpu.lane]
        assert len(spans) == 1
        assert spans[0].meta["context"] == "jobX"
        assert spans[0].duration == pytest.approx(3.0)


class TestValidation:
    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            KernelLaunch(name="k", context="a", work_ms=-1.0, occupancy=0.5)

    def test_occupancy_bounds(self):
        with pytest.raises(ValueError):
            KernelLaunch(name="k", context="a", work_ms=1.0, occupancy=0.0)
        with pytest.raises(ValueError):
            KernelLaunch(name="k", context="a", work_ms=1.0, occupancy=1.5)
