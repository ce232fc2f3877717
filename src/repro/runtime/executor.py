"""Executor: runs one subgraph on one device via a thread pool.

Follows the paper's Figure 1 semantics: ready nodes are dispatched
breadth-first onto worker local queues; when a node finishes, its newly
ready successors either go back through the pool (expensive ops) or run
inline on the same worker (inexpensive ops); idle workers steal.

An executor is bound to a *device version*: SwitchFlow replicates
executors across devices so a subgraph can migrate (Section 3.2). Runs
can be aborted mid-flight — queued nodes are revoked, in-flight kernels
drain — and later *resumed* with the completed-node set carried over,
so no work is lost (Section 3.3).

Construction only stores the inputs. The first :meth:`Executor.start`,
:meth:`~Executor.node_cost_ms` or :meth:`~Executor.critical_path_ms`
compiles a flat, position-indexed :class:`_Plan` (costs, successor
tuples, an in-degree template), so device versions that never run cost
nothing beyond the object. GPU compute nodes carry no task body: the
pool worker runs their host dispatch slice inline between two executor
callbacks (:meth:`Executor._gpu_node_start` and
:meth:`Executor._gpu_node_launch`), and completion rides the kernel's
completion callback.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro.graph.cost_model import (
    EXPENSIVE_THRESHOLD_MS,
    cpu_op_cost_ms,
    gpu_kernel_cost,
)
from repro.graph.graph import Graph
from repro.graph.ops import CPU_OP_PARALLELISM, OpKind
from repro.hw.gpu import GpuDevice
from repro.hw.kernels import KernelLaunch
from repro.sim import instrument
from repro.sim.errors import EventCancelled
from repro.sim.events import Event
from repro.runtime.rendezvous import Rendezvous
from repro.runtime.threadpool import Task, ThreadPool, Worker

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine

# Host-side bookkeeping per node (TF executor overhead: dependency
# resolution, kernel argument setup, stream work submission).
EXECUTOR_DISPATCH_MS = 0.06
# Ops inside a tf.while_loop (unrolled RNN decode steps) pay the
# dynamic-control-flow tax on every step: frame bookkeeping, feed of the
# previous step's output, beam-search pruning on the host.
RECURRENT_DISPATCH_MS = 0.5
# Relative execution-time jitter applied to every op (lognormal sigma).
EXECUTION_JITTER_SIGMA = 0.03


class _Plan:
    """One executor version compiled into position-indexed lists.

    Positions follow the subgraph's iteration order. ``costs`` holds a
    :class:`~repro.graph.cost_model.KernelCost` (GPU) or a float (CPU)
    per compute node and ``None`` for SEND/RECV; ``dispatch`` holds the
    ``(span label, dispatch_ms, span meta)`` record of GPU compute nodes
    and ``None`` elsewhere; ``kernel_meta`` holds each GPU compute
    node's kernel span metadata; ``succ`` holds ``(position,
    expensive)`` tuples in ``subgraph.successors`` order. Span metadata
    comes from :meth:`repro.sim.trace.Tracer.shared_meta`: one
    ``{"context": job}`` mapping (``span_meta``) for every host span of
    the job and one mapping per distinct kernel occupancy.
    """

    __slots__ = ("nodes", "index", "costs", "expensive", "dispatch",
                 "kernel_meta", "span_meta", "jitter", "names", "succ",
                 "in_deg", "ready")

    def __init__(self, executor: "Executor") -> None:
        subgraph = executor.subgraph
        device = executor.device
        is_gpu = executor.is_gpu
        nodes = list(subgraph)
        count = len(nodes)
        self.nodes = nodes
        self.index = {node.node_id: pos for pos, node in enumerate(nodes)}
        self.costs: List[object] = [None] * count
        self.expensive: List[bool] = [False] * count
        self.dispatch: List[Optional[Tuple[str, float, dict]]] = \
            [None] * count
        self.kernel_meta: List[Optional[dict]] = [None] * count
        self.jitter: List[object] = [None] * count
        self.names = [f"{executor.name}/{node.name}" for node in nodes]
        job = executor.job
        shared_meta = executor.machine.tracer.shared_meta
        span_meta = self.span_meta = shared_meta(context=job)
        costed = []
        cpu_spec = executor.machine.cpu.spec
        for pos, node in enumerate(nodes):
            if node.kind in (OpKind.SEND, OpKind.RECV):
                continue
            if is_gpu:
                cost = gpu_kernel_cost(node.op, device.spec)
                self.expensive[pos] = cost.expensive
                self.dispatch[pos] = (
                    f"dispatch/{node.name}",
                    RECURRENT_DISPATCH_MS if node.op.attrs.get("recurrent")
                    else EXECUTOR_DISPATCH_MS,
                    span_meta)
                self.kernel_meta[pos] = shared_meta(
                    context=job, stream=0, occupancy=cost.occupancy)
            else:
                cost = cpu_op_cost_ms(node.op, cpu_spec)
                self.expensive[pos] = cost >= EXPENSIVE_THRESHOLD_MS
            self.costs[pos] = cost
            costed.append(pos)
        # Jitter streams are keyed by the node's position among costed
        # nodes, not node_id: ids come from a process-global counter
        # and would make two identical runs draw different noise.
        rng = executor._rng
        if rng is not None:
            streams = rng.jitter_streams(
                f"executor:{executor.name}", range(len(costed)),
                EXECUTION_JITTER_SIGMA)
            for key, pos in enumerate(costed):
                self.jitter[pos] = streams[key]
        index, expensive = self.index, self.expensive
        self.succ: List[Tuple[Tuple[int, bool], ...]] = [
            tuple((index[s.node_id], expensive[index[s.node_id]])
                  for s in subgraph.successors(node))
            for node in nodes]
        self.in_deg = [subgraph.in_degree(node) for node in nodes]
        self.ready = [pos for pos in range(count) if self.in_deg[pos] == 0]


class ExecutorRun:
    """Mutable state of one in-flight executor invocation.

    Dependency state is a copy of the plan's in-degree list plus a
    ``bytearray`` of done flags, both by position. A *resumed* run
    (``completed`` carried over from an aborted invocation) marks the
    completed nodes done and subtracts the edges leaving them instead of
    rescanning every predecessor list. ``completed`` stays a set of node
    ids, since the caller carries it across device versions.
    """

    # The last three slots belong to the session layer, which annotates
    # runs with the device/pool/memory context they execute under.
    __slots__ = ("executor", "scope", "done", "aborted", "completed",
                 "active", "_quiesced", "in_deg", "flags", "remaining",
                 "transient_allocation", "device_name", "pool")

    def __init__(self, executor: "Executor", scope: str,
                 completed: Optional[Set[int]] = None) -> None:
        plan = executor.plan
        self.executor = executor
        self.scope = scope
        self.done: Event = executor.engine.event()
        self.aborted = False
        self.completed: Set[int] = set(completed or ())
        self.active = 0
        self._quiesced: Optional[Event] = None
        in_deg = self.in_deg = list(plan.in_deg)
        flags = self.flags = bytearray(len(in_deg))
        remaining = len(in_deg)
        if self.completed:
            carried = [plan.index[node_id] for node_id in self.completed
                       if node_id in plan.index]
            for pos in carried:
                flags[pos] = 1
            remaining -= len(carried)
            succ = plan.succ
            for pos in carried:
                for spos, _expensive in succ[pos]:
                    if not flags[spos]:
                        in_deg[spos] -= 1
        self.remaining = remaining

    @property
    def status(self) -> str:
        if not self.done.triggered:
            return "running"
        return self.done.value

    def initially_ready(self) -> List[int]:
        """Positions of the nodes ready when the run starts."""
        if not self.completed:
            return self.executor.plan.ready
        flags = self.flags
        return [pos for pos, degree in enumerate(self.in_deg)
                if degree == 0 and not flags[pos]]


class Executor:
    """A subgraph bound to one device, runnable many times."""

    def __init__(self, name: str, job: str, subgraph: Graph,
                 device, machine: "Machine",
                 rendezvous: Rendezvous, rng=None) -> None:
        self.name = name
        self.job = job
        self.subgraph = subgraph
        self.device = device
        self.machine = machine
        self.rendezvous = rendezvous
        self.engine = machine.engine
        self.is_gpu = isinstance(device, GpuDevice)
        self._rng = rng
        self._plan: Optional[_Plan] = None

    @property
    def plan(self) -> _Plan:
        """The compiled plan, built on first use."""
        plan = self._plan
        if plan is None:
            plan = self._plan = _Plan(self)
        return plan

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def node_cost_ms(self, node_id: int) -> float:
        """Jitter-free expected execution cost of one node, in ms.

        GPU nodes include the host-side dispatch overhead; SEND pays
        its host bookkeeping; RECV is dynamic (rendezvous wait + PCIe)
        and contributes zero statically.
        """
        plan = self.plan
        return self._cost_at(plan, plan.index[node_id])

    def _cost_at(self, plan: _Plan, pos: int) -> float:
        cost = plan.costs[pos]
        if cost is None:
            return 0.005 if plan.nodes[pos].kind is OpKind.SEND else 0.0
        if self.is_gpu:
            return cost.work_ms + plan.dispatch[pos][1]
        return float(cost)

    def critical_path_ms(self) -> float:
        """Longest cost-weighted path through the subgraph, in ms.

        The dependency-structure lower bound on one run of this
        executor with unlimited parallelism — the quantity the
        critical-path profiler compares observed iteration time
        against ("It's the Critical Path!", PAPERS.md).
        """
        plan = self.plan
        finish = [0.0] * len(plan.nodes)
        in_deg = list(plan.in_deg)
        frontier = list(plan.ready)
        longest = 0.0
        while frontier:
            pos = frontier.pop()
            done_at = finish[pos] + self._cost_at(plan, pos)
            longest = max(longest, done_at)
            for spos, _expensive in plan.succ[pos]:
                finish[spos] = max(finish[spos], done_at)
                in_deg[spos] -= 1
                if in_deg[spos] == 0:
                    frontier.append(spos)
        return longest

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def start(self, pool: ThreadPool, scope: str,
              completed: Optional[Set[int]] = None) -> ExecutorRun:
        """Begin executing the subgraph; returns the run handle.

        ``completed`` carries node ids finished by an earlier, aborted
        run of the same subgraph (possibly on another device version).
        """
        run = ExecutorRun(self, scope, completed)
        ready = run.initially_ready()
        if run.remaining == 0:
            run.done.succeed("completed")
            return run
        pool.submit_many(
            [self._make_task(run, pool, pos) for pos in ready])
        return run

    def abort(self, run: ExecutorRun, pool: ThreadPool):
        """Process generator: revoke queued work, wait in-flight drain.

        Matches Section 3.3 task suspension: nodes in ready/local queues
        are aborted; kernels already dispatched to the GPU finish.
        """
        if run.done.triggered:
            return
        run.aborted = True
        pool.cancel(lambda task: task.run_ref is run)
        if self.is_gpu:
            self.device.cancel_queued(self.job)
        if run.active > 0:
            run._quiesced = self.engine.event()
            yield run._quiesced
        if not run.done.triggered:
            run.done.succeed("aborted")

    # ------------------------------------------------------------------
    # Node execution
    # ------------------------------------------------------------------
    def _make_task(self, run: ExecutorRun, pool: ThreadPool,
                   pos: int) -> Task:
        plan = self._plan
        if plan.dispatch[pos] is not None:
            # Worker-driven: the worker runs the dispatch slice inline.
            return Task(plan.names[pos], self.job, None, run, self, pos)
        return Task(plan.names[pos], self.job,
                    lambda worker: self._node_body(run, pool, pos, worker),
                    run)

    def _node_body(self, run: ExecutorRun, pool: ThreadPool, pos: int,
                   worker: Worker):
        if run.aborted or run.flags[pos]:
            self._maybe_quiesce(run)
            return
        run.active += 1
        try:
            finished = yield from self._execute(run, pos, worker)
        except BaseException:
            run.active -= 1
            self._maybe_quiesce(run)
            raise
        run.active -= 1
        if run.aborted:
            self._maybe_quiesce(run)
            return
        if finished:
            self._complete_node(run, pool, pos, worker)

    # A GPU compute node is host dispatch (dependency resolution + kernel
    # setup) and then an asynchronous launch: the worker is released at
    # once, and node completion (and successor scheduling) rides the
    # kernel's completion callback, as in TF's executor. ``active`` stays
    # raised while the kernel is in flight so abort() waits for it. The
    # worker calls the three methods below around the dispatch slice.
    def _gpu_node_start(self, run: ExecutorRun,
                        pos: int) -> Optional[Tuple[str, float, dict]]:
        """Start check: the node's dispatch record, or None to skip."""
        if run.aborted or run.flags[pos]:
            self._maybe_quiesce(run)
            return None
        run.active += 1
        return self._plan.dispatch[pos]

    def _gpu_node_launch(self, run: ExecutorRun, pool: ThreadPool,
                         pos: int) -> None:
        """After the dispatch slice: launch the node's kernel."""
        if run.aborted:
            # Aborted during dispatch: no kernel is launched.
            run.active -= 1
            self._maybe_quiesce(run)
            return
        plan = self._plan
        cost = plan.costs[pos]
        work_ms = self._jittered(cost.work_ms, pos)
        injector = self.machine.faults
        if injector is not None:
            fault = injector.kernel_fault(self.job, self.device.name)
            if fault is not None:
                stall_ms, factor = fault
                work_ms = work_ms * factor + stall_ms
        done = self.device.launch(KernelLaunch(
            plan.nodes[pos].name, self.job, work_ms, cost.occupancy, 0,
            plan.kernel_meta[pos]))
        tracker = instrument.TRACKER
        if tracker is not None:
            tracker.handoff_send(("kernel", id(done)))
        done.callbacks.append(partial(self._on_kernel_done, run, pool, pos))

    def _gpu_node_unwind(self, run: ExecutorRun) -> None:
        """An exception escaped the dispatch slice or the launch."""
        run.active -= 1
        self._maybe_quiesce(run)

    def _complete_node(self, run: ExecutorRun, pool: ThreadPool,
                       pos: int, worker: Optional[Worker]) -> None:
        """Mark one node done and dispatch the successors it made ready.

        In-degree decrements accumulate first, then the newly ready
        frontier goes out as (at most) two batches — inexpensive
        successors stacked onto the parent's worker, expensive ones
        through the pool — so the per-push bookkeeping is paid once per
        completion wave rather than once per node.
        """
        plan = self._plan
        tracker = instrument.TRACKER
        if tracker is not None:
            # The run's completion/in-degree state is mutated from
            # worker processes and kernel callbacks alike; the engine's
            # cooperative scheduling is the implicit guard.
            tracker.access(f"run:{self.name}:{run.scope}", "write",
                           where=f"{self.name}/complete/"
                                 f"{plan.nodes[pos].name}",
                           guard=f"lock:run:{self.name}:{run.scope}")
        run.completed.add(plan.nodes[pos].node_id)
        flags = run.flags
        flags[pos] = 1
        run.remaining -= 1
        if run.remaining == 0:
            if not run.done.triggered:
                run.done.succeed("completed")
            return
        in_deg = run.in_deg
        ready_local = None
        ready_pool = None
        for spos, expensive in plan.succ[pos]:
            if flags[spos]:
                continue
            remaining = in_deg[spos] - 1
            in_deg[spos] = remaining
            if remaining > 0:
                continue
            if worker is not None and not expensive:
                # Inexpensive successors run on the parent's worker
                # (Figure 1's local-queue fast path).
                if ready_local is None:
                    ready_local = [spos]
                else:
                    ready_local.append(spos)
            elif ready_pool is None:
                ready_pool = [spos]
            else:
                ready_pool.append(spos)
        make = self._make_task
        if ready_local is not None:
            if len(ready_local) == 1:
                worker.push_front(make(run, pool, ready_local[0]))
            else:
                worker.push_front_batch(
                    [make(run, pool, p) for p in ready_local])
        if ready_pool is not None:
            if len(ready_pool) == 1:
                pool.submit(make(run, pool, ready_pool[0]))
            else:
                pool.submit_batch([make(run, pool, p) for p in ready_pool])

    def _on_kernel_done(self, run: ExecutorRun, pool: ThreadPool,
                        pos: int, event: Event) -> None:
        tracker = instrument.TRACKER
        if tracker is not None:
            tracker.handoff_recv(("kernel", id(event)))
        run.active -= 1
        if not event._ok:
            self._maybe_quiesce(run)
            event.defused()   # cancelled by preemption
            return
        if run.aborted:
            self._maybe_quiesce(run)
            return
        self._complete_node(run, pool, pos, worker=None)

    def _maybe_quiesce(self, run: ExecutorRun) -> None:
        if (run.aborted and run.active == 0
                and run._quiesced is not None
                and not run._quiesced.triggered):
            run._quiesced.succeed()

    def _jittered(self, value: float, pos: int) -> float:
        if value <= 0:
            return value
        stream = self._plan.jitter[pos]
        if stream is None:
            return value
        return value * stream.next()

    def _execute(self, run: ExecutorRun, pos: int, worker: Worker):
        """SEND, RECV and CPU node execution (GPU compute nodes are
        driven by the worker instead).

        Returns True when the node finished, False when it was aborted.
        """
        plan = self._plan
        node = plan.nodes[pos]
        op = node.op
        cpu = self.machine.cpu

        if op.kind is OpKind.SEND:
            # Deposit the tensor host-side; the receiver pays the copy
            # to wherever it lives *now* (supports migration).
            yield from cpu.execute(0.005, label=op.name,
                                   meta=plan.span_meta)
            yield self.rendezvous.send(
                run.scope, op.attrs["channel"], op.attrs["nbytes"])
            return True

        if op.kind is OpKind.RECV:
            try:
                token = yield self.rendezvous.recv(
                    run.scope, op.attrs["channel"])
            except EventCancelled:
                return False
            nbytes = token if isinstance(token, int) \
                else op.attrs.get("nbytes", 1)
            if self.device.name != cpu.name:
                # Route-aware HtoD: one PCIe hop on a single machine,
                # host -> network -> remote PCIe when the executor
                # version lives on another node.
                route = self.machine.route(cpu.name, self.device.name)
                try:
                    yield route.transfer(nbytes, n_tensors=1,
                                         label=f"HtoD/{self.job}")
                except EventCancelled:
                    # The tensor was consumed but the node will not be
                    # marked completed: put it back so the resumed run's
                    # RECV finds it instead of blocking on an empty
                    # channel forever.
                    self.rendezvous.send(run.scope, op.attrs["channel"],
                                         token)
                    return False
            if run.aborted:
                self.rendezvous.send(run.scope, op.attrs["channel"],
                                     token)
                return False
            return True

        cost_ms = self._jittered(plan.costs[pos], pos)
        if op.flops > 0 and not op.is_pipeline_op:
            # MKL intra-op parallelism: the cost model assumes
            # CPU_OP_PARALLELISM threads; a smaller pool (SwitchFlow's
            # temporary pool) runs the op proportionally slower — the
            # Section 3.3 isolation-vs-performance tradeoff.
            threads = max(1, min(CPU_OP_PARALLELISM,
                                 len(worker.pool.workers)))
            cost_ms *= CPU_OP_PARALLELISM / threads
        yield from cpu.execute(cost_ms, label=node.name,
                               meta=plan.span_meta, data=op.is_pipeline_op)
        return True
