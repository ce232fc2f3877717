"""Device equivalence: the production GPU model against the reference.

``tests/reference_gpu.py`` keeps the straightforward device model (a
full admission pass and a fresh timer per launch) as the oracle. These
tests drive the same kernel programs through both and require
bit-identical results: kernel start and finish times, GPU spans,
completion order and the device counters. The full-simulation check
runs the benchmark's workloads with every simulated GPU swapped for the
reference and compares their transcript digests.
"""

import importlib.util
import os
import sys
import time

import pytest

from repro.hw import KernelLaunch, TESLA_V100
from repro.hw import machine as machine_module
from repro.hw.gpu import GpuDevice
from repro.sim import Engine, Tracer
from tests.reference_engine import ReferenceEngine
from tests.reference_gpu import ReferenceGpuDevice

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False

CONTEXTS = ("c0", "c1", "c2")


def run_device_program(device_cls, engine_cls, program, creation_order):
    """Drive one device through ``program``; return what it observably did.

    ``program`` is a list of ``(delay, op)`` steps run by one driver
    process: wait ``delay`` ms (``None``: do not yield at all), then do
    ``op``, one of
    ``("launch", context, stream, occupancy, work_ms)``,
    ``("cancel", context)`` or ``("drain", context)``. Kernels are
    created up front in ``creation_order`` (a permutation of the launch
    indices), so launch ids need not follow launch order.
    """
    engine = engine_cls()
    tracer = Tracer(engine)
    gpu = device_cls(engine, TESLA_V100, tracer=tracer)
    launches = [step for step in program if step[1][0] == "launch"]
    kernels = [None] * len(launches)
    for index in creation_order:
        _kind, context, stream, occupancy, work_ms = launches[index][1]
        kernels[index] = KernelLaunch(
            name=f"k{index}", context=context, work_ms=work_ms,
            occupancy=occupancy, stream=stream)
    log = []

    def record(tag):
        def callback(event):
            log.append((tag, engine.now, event._ok))
        return callback

    def driver():
        launched = 0
        for delay, op in program:
            if delay is not None:
                yield engine.timeout(delay)
            if op[0] == "launch":
                done = gpu.launch(kernels[launched])
                done.callbacks.append(record(f"k{launched}"))
                launched += 1
            elif op[0] == "cancel":
                cancelled = gpu.cancel_queued(op[1])
                log.append(("cancel", engine.now,
                            [k.name for k in cancelled]))
            else:
                gpu.drain(op[1]).callbacks.append(record(f"drain:{op[1]}"))

    engine.process(driver())
    engine.run()
    spans = [(s.lane, s.name, s.start, s.end, s.meta)
             for s in tracer.spans]
    timings = [(k.name, k.started_at, k.finished_at) for k in kernels]
    counters = (gpu.kernels_completed, gpu.context_switches,
                gpu.busy_ms_total)
    return timings, spans, log, counters


def assert_devices_agree(program, creation_order=None):
    if creation_order is None:
        creation_order = range(sum(op[0] == "launch" for _d, op in program))
    reference = run_device_program(ReferenceGpuDevice, ReferenceEngine,
                                   program, creation_order)
    for engine_cls in (Engine, ReferenceEngine):
        result = run_device_program(GpuDevice, engine_cls, program,
                                    creation_order)
        assert result[0] == reference[0], engine_cls   # kernel timings
        assert result[1] == reference[1], engine_cls   # GPU spans
        assert result[2] == reference[2], engine_cls   # completion order
        assert result[3] == reference[3], engine_cls   # counters


if HAVE_HYPOTHESIS:
    # Steps without their context, which _programs draws per program.
    _step = st.tuples(
        st.sampled_from([None, 0.0, 0.5, 1.0, 2.5, 7.0]),
        st.one_of(
            st.tuples(st.just("launch"),
                      st.integers(min_value=0, max_value=1),
                      st.sampled_from([0.1, 0.3, 0.5, 1.0]),
                      st.sampled_from([0.0, 0.25, 1.0, 3.0, 4.7])),
            st.tuples(st.just("cancel")),
            st.tuples(st.just("drain"))))

    @st.composite
    def _programs(draw):
        n_contexts = draw(st.integers(min_value=1, max_value=3))
        contexts = st.sampled_from(CONTEXTS[:n_contexts])
        steps = draw(st.lists(_step, min_size=1, max_size=24))
        program = [(delay, (op[0], draw(contexts)) + op[1:])
                   for delay, op in steps]
        n_launches = sum(op[0] == "launch" for _d, op in program)
        order = draw(st.permutations(range(n_launches)))
        return program, order


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
@settings(max_examples=150, deadline=None)
@given(_programs() if HAVE_HYPOTHESIS else None)
def test_random_programs_match_reference(case):
    program, order = case
    assert_devices_agree(program, order)


def test_fixed_program_equivalence():
    # Deterministic cover of the paths the property test samples:
    # a launch queued behind a zero-work kernel at the instant it is
    # due, queued same-stream launches, co-running contexts,
    # cancellation and drains.
    assert_devices_agree([
        (None, ("launch", "c0", 0, 1.0, 0.0)),
        (None, ("launch", "c0", 0, 1.0, 1.0)),
        (0.0, ("launch", "c0", 0, 0.5, 3.0)),
        (0.0, ("launch", "c0", 0, 0.5, 1.0)),
        (0.5, ("launch", "c1", 0, 0.3, 4.7)),
        (0.0, ("launch", "c1", 1, 1.0, 2.5)),
        (0.5, ("launch", "c2", 0, 0.1, 0.0)),
        (0.0, ("launch", "c2", 0, 0.1, 0.25)),
        (0.0, ("drain", "c1")),
        (1.0, ("cancel", "c1")),
        (0.0, ("launch", "c0", 1, 0.3, 0.0)),
        (7.0, ("launch", "c0", 0, 1.0, 1.0)),
    ], creation_order=[0, 1, 5, 2, 3, 4, 7, 6, 8, 9])


# ---------------------------------------------------------------------------
# Full simulations: the benchmark's workloads on the reference device
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def bench():
    """``perfbench/workloads.py``, imported read-only by file path."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        # Dataclass creation looks the module up by name.
        patch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload",
                         ["fig3_solo", "serve_preempt", "serve_mps"])
def test_bench_workloads_match_reference_device(bench, workload):
    run = bench.WORKLOADS[workload]

    def digest():
        outcome = run(1, bench.Clock(time.monotonic()), scale=0.05)
        return outcome.digest

    built = []

    def reference_device(*args, **kwargs):
        built.append(ReferenceGpuDevice(*args, **kwargs))
        return built[-1]

    production = digest()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machine_module, "GpuDevice", reference_device)
        reference = digest()
    assert built and built[0].kernels_completed > 0
    assert production == reference
