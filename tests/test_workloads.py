"""Tests for drivers, the colocation harness, and multitask lockstep."""

import json

import pytest

from repro.baselines import MultiThreadedTF, SessionTimeSlicing
from repro.core import (
    JobHandle,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    RunOptions,
    make_context,
)
from repro.hw import v100_server
from repro.models import get_model
from repro.serving import ServedModelSpec, make_trace, run_serving
from repro.workloads import (
    JobSpec,
    run_colocation,
    run_multitask,
)


def _job(ctx, name, **kwargs):
    defaults = dict(model=get_model("MobileNetV2"), batch=8, training=True,
                    preferred_device=ctx.machine.gpu(0).name)
    defaults.update(kwargs)
    return JobHandle(name=name, **defaults)


class TestJobDriver:
    def test_records_one_sample_per_iteration(self):
        ctx = make_context(v100_server, 1, seed=5)
        job = _job(ctx, "job")
        run_colocation(ctx, MultiThreadedTF,
                       [JobSpec(job=job, iterations=7)])
        assert job.stats.iterations == 7
        assert len(job.stats.iteration_spans) == 7
        assert all(t > 0 for t in job.stats.iteration_times_ms)

    def test_start_delay_is_honoured(self):
        ctx = make_context(v100_server, 1, seed=5)
        job = _job(ctx, "job")
        run_colocation(ctx, MultiThreadedTF,
                       [JobSpec(job=job, iterations=2,
                                start_delay_ms=123.0)])
        assert job.stats.started_at == pytest.approx(123.0)

    def test_open_loop_latency_includes_queueing(self):
        ctx = make_context(v100_server, 1, seed=5)
        # Requests arrive every 10 ms but take much longer: a backlog
        # builds and latency must grow monotonically-ish.
        job = _job(ctx, "serve", training=False, batch=64)
        run_colocation(ctx, MultiThreadedTF, [
            JobSpec(job=job, iterations=6, request_interval_ms=10.0)])
        samples = job.stats.iteration_times_ms
        assert samples[-1] > samples[0]

    def test_background_job_stops_after_foreground(self):
        ctx = make_context(v100_server, 1, seed=5)
        background = _job(ctx, "bg")
        foreground = _job(ctx, "fg")
        results = run_colocation(ctx, MultiThreadedTF, [
            JobSpec(job=background, iterations=100_000, background=True),
            JobSpec(job=foreground, iterations=3),
        ])
        assert results.stats["fg"].iterations == 3
        assert results.stats["bg"].iterations < 100_000

    @pytest.mark.parametrize("harness,reason", [
        ("colocation", "deadlock-abort"),
        ("serving", "serving-deadlock-abort"),
    ], ids=["colocation", "serving"])
    def test_horizon_guard_raises(self, harness, reason, tmp_path):
        ctx = make_context(v100_server, 1, seed=5,
                           options=RunOptions(flight_dir=str(tmp_path)))
        job = _job(ctx, "job")
        with pytest.raises(RuntimeError):
            if harness == "colocation":
                run_colocation(ctx, MultiThreadedTF,
                               [JobSpec(job=job, iterations=100_000)],
                               horizon_ms=50.0)
            else:
                trace = make_trace(ctx.rng, "job", "poisson", 40.0,
                                   60_000.0)
                run_serving(ctx, MultiThreadedTF,
                            [ServedModelSpec(job=job, trace=trace)],
                            horizon_ms=50.0)
        # The abort path leaves a flight record named after the harness.
        [record] = tmp_path.glob("flight-*.json")
        assert json.loads(record.read_text())["reason"] == reason

    def test_empty_spec_list_rejected(self):
        ctx = make_context(v100_server, 1, seed=5)
        with pytest.raises(ValueError):
            run_colocation(ctx, MultiThreadedTF, [])

    def test_zero_iterations_rejected(self):
        ctx = make_context(v100_server, 1, seed=5)
        from repro.workloads import JobDriver
        policy = MultiThreadedTF(ctx)
        with pytest.raises(ValueError):
            JobDriver(policy, _job(ctx, "job"), iterations=0)


class TestMultitask:
    def test_lockstep_runs_every_model_every_round(self):
        ctx = make_context(v100_server, 1, seed=5)
        models = [get_model("MobileNetV2"), get_model("MobileNet")]
        result = run_multitask(ctx, models, batch=8, training=False,
                               iterations=5)
        assert result.rounds() == 5
        assert len(result.stats) == 2
        for stats in result.stats.values():
            assert stats.iterations == 5

    def test_secondary_models_skip_preprocessing_and_copy(self):
        ctx = make_context(v100_server, 1, seed=5)
        models = [get_model("MobileNetV2"), get_model("MobileNetV2")]
        run_multitask(ctx, models, batch=8, training=False, iterations=4)
        link = ctx.machine.link(ctx.machine.cpu.name,
                                ctx.machine.gpu(0).name)
        # One HtoD input copy per round (master only), not two.
        htod = [s for s in ctx.tracer.spans
                if s.lane == link.lane and "HtoD" in s.name]
        assert len(htod) == 4

    def test_reuse_beats_time_slicing_for_inference(self):
        baseline_ctx = make_context(v100_server, 1, seed=5)
        jobs = [
            JobHandle(name=f"ts{i}", model=get_model("MobileNetV2"),
                      batch=64, training=False,
                      preferred_device=baseline_ctx.machine.gpu(0).name)
            for i in range(2)
        ]
        run_colocation(baseline_ctx, SessionTimeSlicing, [
            JobSpec(job=job, iterations=6) for job in jobs])
        baseline = sum(j.stats.throughput_items_per_s(warmup=1)
                       for j in jobs) / 2

        reuse_ctx = make_context(v100_server, 1, seed=5)
        result = run_multitask(
            reuse_ctx, [get_model("MobileNetV2")] * 2, batch=64,
            training=False, iterations=6)
        assert result.items_per_second(64, warmup=1) > baseline

    def test_validation(self):
        ctx = make_context(v100_server, 1, seed=5)
        with pytest.raises(ValueError):
            run_multitask(ctx, [], batch=8, training=False, iterations=3)
        with pytest.raises(ValueError):
            run_multitask(ctx, [get_model("MobileNet")], batch=8,
                          training=False, iterations=0)
