"""Shared span metadata: spans with equal metadata keep one mapping.

The hot span sites (pool dispatch slices, CPU ops, GPU kernels) pass a
prebuilt mapping from :meth:`Tracer.shared_meta` to every span, so a
traced run holds one dict per distinct metadata value instead of one
per span. These tests check the sharing on a short open-loop serving
run and that nothing downstream writes into a shared mapping.
"""

import copy

import pytest

from repro.analysis.sanitizer import sanitize_run
from repro.core import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    JobHandle,
    SwitchFlowPolicy,
    make_context,
)
from repro.hw import v100_server
from repro.models import get_model
from repro.obs.chrome_trace import tracer_to_chrome_trace
from repro.obs.profile import profile_run
from repro.serving import SLOTarget, ServedModelSpec, make_trace, run_serving
from repro.sim import Engine
from repro.sim.trace import Tracer
from repro.workloads import JobSpec

#: Two 30 rps streams over 1 s (the serve_preempt benchmark at 1/20
#: of its 20 s window) plus a background trainer, under SwitchFlow.
STREAMS = (("serve-mobilenet", "MobileNetV2", 0),
           ("serve-resnet", "ResNet50", 1))
DURATION_MS = 1_000.0


@pytest.fixture(scope="module")
def serve_run():
    ctx = make_context(v100_server, 2, seed=5)
    served = []
    for name, model_name, gpu_index in STREAMS:
        served.append(ServedModelSpec(
            job=JobHandle(name=name, model=get_model(model_name), batch=8,
                          training=False, priority=PRIORITY_HIGH,
                          preferred_device=ctx.machine.gpu(gpu_index).name),
            trace=make_trace(ctx.rng, name, "poisson", 30.0, DURATION_MS),
            max_batch=8, batch_timeout_ms=5.0, queue_capacity=64,
            shed_policy="drop-newest", slo=SLOTarget(p99_ms=250.0)))
    trainer = JobSpec(
        job=JobHandle(name="bg-train", model=get_model("ResNet50"),
                      batch=32, training=True, priority=PRIORITY_LOW,
                      preferred_device=ctx.machine.gpu(0).name),
        iterations=1_000_000, background=True)
    policies = []

    def policy(run_ctx):
        policies.append(SwitchFlowPolicy(run_ctx))
        return policies[-1]

    run_serving(ctx, policy, served, [trainer])
    return ctx, policies[0]


def _distinct(metas):
    return {id(meta): meta for meta in metas}


def test_kernel_spans_share_one_mapping_per_triple(serve_run):
    ctx, _policy = serve_run
    kernels = [s for s in ctx.tracer.spans if s.lane.startswith("gpu:")]
    assert len(kernels) > 1000
    triples = {(s.meta["context"], s.meta["stream"], s.meta["occupancy"])
               for s in kernels}
    assert len(_distinct(s.meta for s in kernels)) <= len(triples)


def test_host_spans_share_one_mapping_per_job(serve_run):
    ctx, _policy = serve_run
    host = [s for s in ctx.tracer.spans if s.lane.startswith("cpu:")]
    assert len(host) > 1000
    contexts = {s.meta["context"] for s in host}
    assert set(contexts) >= {name for name, _model, _gpu in STREAMS}
    assert len(_distinct(s.meta for s in host)) <= len(contexts)


def test_downstream_consumers_mutate_no_shared_mapping(serve_run):
    ctx, policy = serve_run
    metas = _distinct(s.meta for s in ctx.tracer.spans)
    before = copy.deepcopy(metas)
    sanitize_run(ctx, policy)
    tracer_to_chrome_trace(ctx.tracer, include_open=True)
    ctx.tracer.to_rows()
    profile_run(ctx, export_metrics=False)
    assert metas == before


def test_shared_meta_interns_by_value_and_type():
    tracer = Tracer(Engine())
    first = tracer.shared_meta(context="a", occupancy=1.0)
    assert tracer.shared_meta(context="a", occupancy=1.0) is first
    assert tracer.shared_meta(context="b", occupancy=1.0) is not first
    # 1 == 1.0, but the exported value differs: no sharing across types.
    integral = tracer.shared_meta(context="a", occupancy=1)
    assert integral is not first
    assert type(integral["occupancy"]) is int


def test_begin_keeps_the_mapping_and_close_extra_copies():
    engine = Engine()
    tracer = Tracer(engine)
    shared = tracer.shared_meta(context="job")
    plain = tracer.begin("lane", "a", shared).close()
    tagged = tracer.begin("lane", "b", shared).close(aborted=True)
    merged = tracer.begin("lane", "c", shared, stream=3).close()
    assert plain.meta is shared
    assert tagged.meta == {"context": "job", "aborted": True}
    assert merged.meta == {"context": "job", "stream": 3}
    assert shared == {"context": "job"}


def test_keyword_metadata_still_builds_a_fresh_mapping():
    tracer = Tracer(Engine())
    span = tracer.begin("lane", "x", context="job").close()
    assert span.meta == {"context": "job"}
    with tracer.span("lane", "y", meta=1) as open_span:
        pass
    assert open_span.meta == {"meta": 1}
