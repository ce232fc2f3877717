"""Executor equivalence: the production executor against the reference.

``tests/reference_executor.py`` keeps the eager, dict-based executor
whose nodes each run a body closure (GPU compute nodes through
:meth:`CpuDevice.execute <repro.hw.cpu.CpuDevice.execute>`) as the
oracle. The production executor compiles its plan lazily and lets pool
workers drive GPU compute nodes inline; it must give bit-identical
results. The random-DAG property compares per-node completion times,
every span, the completed sets, run outcomes and end times through an
optional abort and a resume on another device version; the full
simulations compare the benchmark's transcript digests and the
preemption experiment's output with every session executor swapped for
the reference.
"""

import importlib.util
import os
import sys
import time

import pytest

from repro.core import make_context
from repro.experiments import runner
from repro.graph.graph import Graph
from repro.graph.ops import OpDef, OpKind
from repro.hw import XEON_DUAL_18C, v100_server
from repro.runtime import session as session_module
from repro.runtime.executor import Executor
from repro.runtime.threadpool import ThreadPool
from tests.reference_executor import ReferenceExecutor

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False

# (kind, flops, input/output bytes): a register-bound GPU op, a cheap
# elementwise op (inexpensive on the GPU: it takes the local-queue fast
# path), a recurrent op (the larger dispatch cost), and an input-pipeline
# op (the CPU data class when the CPU version runs it).
NODE_KINDS = {
    "conv": (OpKind.CONV2D, 4e9, 1 << 20, {}),
    "relu": (OpKind.ELEMENTWISE, 1e5, 1 << 12, {}),
    "lstm": (OpKind.LSTM_CELL, 5e8, 1 << 16, {"recurrent": True}),
    "decode": (OpKind.DECODE_JPEG, 2e7, 1 << 18, {}),
}
CHANNEL = "input"
TEST_MACHINE_CORES = XEON_DUAL_18C.cores
#: How long ``held_cores`` stay checked out.
HOLD_MS = 2.0


def build_subgraph(spec):
    """A DAG from ``spec``: ``(kind, parent indices)`` per node, in
    topological order. Node 0 is a RECV fed by the driver."""
    graph = Graph("equivalence")
    nodes = [graph.add_node(OpDef(
        name="recv", kind=OpKind.RECV,
        attrs={"channel": CHANNEL, "nbytes": 1 << 20}))]
    for index, (kind, parents) in enumerate(spec, start=1):
        op_kind, flops, nbytes, attrs = NODE_KINDS[kind]
        op = OpDef(name=f"n{index}-{kind}", kind=op_kind, flops=flops,
                   input_bytes=nbytes, output_bytes=nbytes, attrs=attrs)
        nodes.append(graph.add_node(op, [nodes[p] for p in parents]))
    return graph


class _CompletionLog(set):
    """A completed-set that also stamps each node's completion time."""

    def __init__(self, items, engine, log):
        super().__init__(items)
        self._engine = engine
        self._log = log

    def add(self, node_id):
        self._log.append((node_id, self._engine.now))
        super().add(node_id)


def run_case(executor_cls, subgraph, workers, first, second, abort_at,
             held_cores=0, neighbour=False):
    """Run ``subgraph`` on version ``first``, optionally abort it at
    ``abort_at``, then resume on ``second``; return what was observed.

    ``held_cores`` host cores are checked out for the first few ms, so
    workers contend for the rest. With ``neighbour``, a second job runs
    the same subgraph on the ``second`` version from its own two-worker
    pool, so the two pools also contend for host cores.
    """
    ctx = make_context(v100_server, 2, seed=3)
    engine, machine = ctx.engine, ctx.machine
    device_names = [device.name for device in machine.devices]

    def version(job, device_name):
        return executor_cls(
            name=f"{job}/compute@{device_name}", job=job,
            subgraph=subgraph, device=machine.device(device_name),
            machine=machine, rendezvous=ctx.rendezvous, rng=ctx.rng)

    pool = ThreadPool(engine, machine.cpu, workers, name="equivalence",
                      rng=ctx.rng)
    versions = {name: version("job", name) for name in device_names}
    log = []
    outcomes = []

    def start(device_name, completed):
        run = versions[device_name].start(pool, "job/it0", completed)
        run.completed = _CompletionLog(run.completed, engine, log)
        return run

    def hog():
        cores = machine.cpu.cores
        for _ in range(held_cores):
            yield cores.acquire()
        yield engine.timeout(HOLD_MS)
        for _ in range(held_cores):
            cores.release()

    def driver():
        if held_cores:
            engine.process(hog())
        other = None
        if neighbour:
            ctx.rendezvous.send("bg/it0", CHANNEL, 1 << 20)
            other = version("bg", device_names[second]).start(
                ThreadPool(engine, machine.cpu, 2, name="neighbour",
                           rng=ctx.rng), "bg/it0")
        ctx.rendezvous.send("job/it0", CHANNEL, 1 << 20)
        run = start(device_names[first], None)
        if abort_at is not None:
            yield engine.timeout(abort_at)
            yield from versions[device_names[first]].abort(run, pool)
        outcome = yield run.done
        outcomes.append((outcome, engine.now, sorted(run.completed)))
        resumed = start(device_names[second], run.completed)
        outcome = yield resumed.done
        outcomes.append((outcome, engine.now, sorted(resumed.completed)))
        if other is not None:
            outcome = yield other.done
            outcomes.append((outcome, engine.now, sorted(other.completed)))

    engine.run(until=engine.process(driver()))
    spans = [(s.lane, s.name, s.start, s.end, s.meta)
             for s in ctx.tracer.spans]
    kernels = [gpu.kernels_completed for gpu in machine.gpus]
    return log, spans, outcomes, kernels, engine.now


def assert_executors_agree(spec, workers, first, second, abort_at,
                           held_cores=0, neighbour=False):
    subgraph = build_subgraph(spec)
    reference = run_case(ReferenceExecutor, subgraph, workers, first,
                         second, abort_at, held_cores, neighbour)
    result = run_case(Executor, subgraph, workers, first, second, abort_at,
                      held_cores, neighbour)
    assert result[0] == reference[0]   # per-node completion times
    assert result[1] == reference[1]   # every span
    assert result[2] == reference[2]   # outcomes, end times, completed
    assert result[3] == reference[3]   # kernels per GPU
    assert result[4] == reference[4]   # simulation end time
    return result


if HAVE_HYPOTHESIS:
    @st.composite
    def _cases(draw):
        size = draw(st.integers(min_value=3, max_value=40))
        spec = []
        for index in range(1, size):
            kind = draw(st.sampled_from(sorted(NODE_KINDS)))
            parents = draw(st.sets(st.integers(min_value=0,
                                               max_value=index - 1),
                                   min_size=1, max_size=3))
            spec.append((kind, sorted(parents)))
        workers = draw(st.integers(min_value=1, max_value=4))
        # Device versions in machine.devices order: cpu, gpu0, gpu1.
        first = draw(st.integers(min_value=0, max_value=2))
        second = draw(st.integers(min_value=0, max_value=2).filter(
            lambda index: index != first))
        abort_at = draw(st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=6.0)))
        cores = TEST_MACHINE_CORES
        held_cores = draw(st.sampled_from([0, cores - 3, cores - 1]))
        neighbour = draw(st.booleans())
        return (spec, workers, first, second, abort_at, held_cores,
                neighbour)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
    @settings(max_examples=120, deadline=None)
    @given(_cases())
    def test_random_dags_match_reference(case):
        assert_executors_agree(*case)


def test_fixed_dag_abort_and_resume_matches_reference():
    # A diamond with a fan-out of inexpensive GPU nodes (the local-queue
    # path), aborted mid-run on gpu0 and resumed on gpu1.
    spec = [("conv", [0]), ("relu", [1]), ("relu", [1]), ("relu", [1]),
            ("lstm", [2, 3]), ("conv", [4]), ("decode", [5, 6]),
            ("relu", [7])]
    log, _spans, outcomes, _kernels, _end = assert_executors_agree(
        spec, 2, 1, 2, 1.0, held_cores=TEST_MACHINE_CORES - 1)
    assert outcomes[0][0] == "aborted"
    assert outcomes[1][0] == "completed"
    assert len(log) == len(spec) + 1


def test_two_pools_contending_for_cores_match_reference():
    # A wide fan-out dispatched by two pools that share three free
    # cores: a core released at the instant another worker's grant is
    # still undelivered must not be taken ahead of it, so even an
    # uncontended dispatch acquire has to wait for its grant event.
    parents = {2: [0, 1], 18: [0, 1, 2], 20: [0, 1, 2], 22: [0, 1],
               26: [0, 1, 2], 27: [0, 1, 2], 28: [0, 1], 34: [0, 1],
               36: [0, 1]}
    spec = [("conv", parents.get(index, [0])) for index in range(1, 37)]
    assert_executors_agree(spec, 4, 1, 2, None,
                           held_cores=TEST_MACHINE_CORES - 3,
                           neighbour=True)


# ---------------------------------------------------------------------------
# Full simulations with every session executor swapped for the reference
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


def _counting_reference(built):
    def build(*args, **kwargs):
        built.append(ReferenceExecutor(*args, **kwargs))
        return built[-1]
    return build


@pytest.mark.parametrize("workload",
                         ["fig3_solo", "serve_preempt", "serve_mps"])
def test_bench_workloads_match_reference_executor(bench, workload):
    run = bench.WORKLOADS[workload]

    def digest():
        outcome = run(1, bench.Clock(time.monotonic()), scale=0.05)
        return outcome.digest

    built = []
    production = digest()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "Executor", _counting_reference(built))
        reference = digest()
    assert built
    assert production == reference


def test_preemption_experiment_matches_reference_executor(capsys):
    assert runner.main(["preemption", "--quick"]) == 0
    production = capsys.readouterr().out
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(session_module, "Executor", _counting_reference(built))
        assert runner.main(["preemption", "--quick"]) == 0
    reference = capsys.readouterr().out
    assert built
    assert production == reference
