"""Cluster assembly and SPMD job execution.

:class:`Cluster` builds a complete simulated SP -- nodes, adapters, the
switch -- and runs SPMD jobs on it: one :class:`Task` per node, each
executing the same generator function on its node's main thread, with the
requested communication stacks (LAPI and/or MPL, optionally Global
Arrays) instantiated and initialized.

This is the single entry point examples, tests, and benchmarks use::

    cluster = Cluster(nnodes=4)
    results = cluster.run_job(my_task_fn, stacks=("lapi",))

Bootstrap note: real SP systems carried job setup over the service
Ethernet, separate from the switch.  The model mirrors this with an
out-of-band barrier used *only* inside ``LAPI_Init``-time setup
(:meth:`Cluster.oob_allgather`); all steady-state communication goes
through the simulated switch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Sequence

from ..errors import MachineError
from ..obs import MetricsRegistry
from ..sim import RngRegistry, Simulator, Tracer
from .config import SP_1998, MachineConfig
from .node import Node
from .packet import reset_packet_ids
from .pool import HotPools
from .switch import Switch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.api import Lapi
    from ..ga.api import GlobalArrays
    from ..mpl.api import Mpl
    from .cpu import Thread

__all__ = ["Cluster", "Task"]


class Task:
    """One SPMD task (process) of a parallel job.

    Attributes
    ----------
    rank, size:
        Task id and job width.
    node:
        The :class:`~repro.machine.node.Node` this task runs on.
    thread:
        The task's main CPU thread (valid once the job starts).
    lapi, mpl, ga:
        Communication stacks, present according to the job's ``stacks``
        and ``ga_backend`` arguments.
    """

    def __init__(self, cluster: "Cluster", rank: int, size: int,
                 node: Node) -> None:
        self.cluster = cluster
        self.rank = rank
        self.size = size
        self.node = node
        self.thread: Optional["Thread"] = None
        self.lapi: Optional["Lapi"] = None
        self.mpl: Optional["Mpl"] = None
        self.ga: Optional["GlobalArrays"] = None

    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self.cluster.sim.now

    @property
    def memory(self):
        """This task's node memory."""
        return self.node.memory

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.rank}/{self.size} on node {self.node.node_id}>"


class Cluster:
    """A simulated SP system ready to run SPMD jobs."""

    def __init__(self, nnodes: int, config: MachineConfig = SP_1998,
                 seed: int = 0xC0FFEE,
                 trace: Optional[Tracer] = None,
                 spans: Optional[Any] = None,
                 faults: Optional[Any] = None,
                 telemetry: Optional[Any] = None) -> None:
        if nnodes < 1:
            raise MachineError("cluster needs at least one node")
        config.validate()
        reset_packet_ids()
        self.config = config
        self.trace = trace
        #: Optional :class:`repro.obs.SpanRecorder` collecting causal
        #: phase spans for this cluster.  Packet uids restart per
        #: cluster (``reset_packet_ids`` above), so span streams are a
        #: function of the cluster's own history -- the serial/parallel
        #: parity requirement.  Exposed to every component as
        #: ``sim.spans``; purely observational (never perturbs time).
        self.spans = spans
        self.sim = Simulator()
        self.sim.spans = spans
        #: Per-cluster hot-path object pools (``repro.machine.pool``).
        #: Owned here -- never process-global -- so a ``--jobs N``
        #: worker's pool state is a function of its own cluster's
        #: history only (the determinism contract).  Reachable by the
        #: protocol stacks as ``sim.pools``.
        self.pools = HotPools()
        self.sim.pools = self.pools
        self.rng = RngRegistry(seed=seed)
        self.nodes = [Node(self.sim, i, config, trace=trace)
                      for i in range(nnodes)]
        self.switch = Switch(self.sim, nnodes, config, self.rng,
                             trace=trace)
        for node in self.nodes:
            node.adapter.connect(self.switch)
        self._oob_state: dict[str, dict[int, Any]] = {}
        #: Cluster-wide observability registry (``repro.obs``).  The
        #: machine layer registers itself here; the LAPI/MPL/GA stacks
        #: wire their subsystems in at init time.
        self.metrics = MetricsRegistry()
        for node in self.nodes:
            self.metrics.register_collector(
                "machine.adapter", node.adapter.metrics,
                node=node.node_id)
        self.metrics.register_collector("machine.switch",
                                        self.switch.metrics)
        #: Armed virtual-time telemetry (``repro.obs.timeline``), or
        #: None.  Passing a :class:`repro.obs.TelemetryConfig` builds
        #: the windowed timeline over this registry, hangs the flight
        #: recorder off ``sim.flight``, and -- when the config carries
        #: SLO rules -- arms burn-rate alerting.  Purely observational:
        #: snapshots, renders, virtual time, and event counts are
        #: identical armed or disarmed.
        self.telemetry = None
        if telemetry is not None:
            from ..obs.timeline import TelemetryRuntime
            self.telemetry = TelemetryRuntime.install(
                telemetry, self.sim, self.metrics)
        #: Survivor policy for convicted peers; set per job by
        #: :meth:`run_job` (``on_peer_failure``).  "fail" terminates the
        #: run with the conviction error, "continue" lets survivors keep
        #: running against the reduced peer set.
        self.on_peer_failure = "fail"
        #: True while :meth:`run_job` drives the kernel; gates
        #: :meth:`fail_run`.
        self._job_running = False
        #: Heartbeat failure detector (:mod:`repro.resilience`), or
        #: None.  Armed below, after faults install, because the auto
        #: rule depends on whether the schedule carries node crashes.
        self.resilience = None
        #: Compiled fault runtime (:mod:`repro.faults`), or None.  An
        #: installed schedule hooks the switch/adapters/CPUs above and
        #: flips the reliable transports into adaptive-RTO mode; no
        #: schedule (or an empty one) leaves every hot path untouched.
        self.faults = faults.install(self) if faults is not None else None
        # Auto rule mirrors adaptive-RTO's: the detector arms exactly
        # when the fault schedule can kill a node.  Fault-free runs (and
        # fault runs without crashes) carry zero heartbeat traffic, so
        # their event streams stay byte-identical to pre-detector trees.
        detector = config.failure_detector
        if detector is None:
            detector = self.faults is not None and self.faults.has_crashes
        if detector:
            from ..resilience import ResilienceRuntime
            self.resilience = ResilienceRuntime(self)

    def fail_run(self, err: BaseException) -> None:
        """Terminate the running job cleanly with ``err``.

        Structured failure path for errors detected in bare kernel
        callbacks (retransmission exhaustion fires on a timer with no
        thread or run context): the error is parked in ``sim.fatal``,
        the kernel's event loop stops at the next event boundary, and
        :meth:`run_job` raises it, so callers see it with the full job
        context instead of a traceback out of a kernel callback.  The
        first error wins; later ones (cascading failures of an
        already-dying run) are dropped, and so are errors raised while
        no job runs (e.g. while a plain ``sim.run(until=...)`` lets
        trailing traffic settle) -- there is no run to terminate.
        """
        if self._job_running and self.sim.fatal is None:
            self.sim.fatal = err

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    # ------------------------------------------------------------------
    # out-of-band bootstrap exchange (service-Ethernet analogue)
    # ------------------------------------------------------------------
    def oob_allgather(self, key: str, rank: int, value: Any,
                      size: int) -> dict[int, Any]:
        """Instantaneous setup-time allgather over the service network.

        Each participant contributes ``value`` under ``key``; once all
        ``size`` contributions are in, every caller sees the full map.
        Used only by ``*_Init``-time setup (address exchange); anything
        measured by the benchmarks travels through the switch.
        """
        slot = self._oob_state.setdefault(key, {})
        slot[rank] = value
        if len(slot) > size:
            raise MachineError(f"oob key {key!r} over-subscribed")
        return slot

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def run_job(self, fn: Callable[[Task], Generator], *,
                ntasks: Optional[int] = None,
                stacks: Sequence[str] = ("lapi",),
                ga_backend: Optional[str] = None,
                ga_config: Optional[Any] = None,
                interrupt_mode: bool = True,
                eager_limit: Optional[int] = None,
                max_events: Optional[int] = None,
                until: Optional[float] = None,
                error_handler: Optional[Callable] = None,
                on_peer_failure: str = "fail") -> list[Any]:
        """Run ``fn`` as an SPMD job; returns per-rank return values.

        Parameters
        ----------
        fn:
            Generator function ``fn(task)`` run on every task's main
            thread.
        ntasks:
            Job width; defaults to the cluster size (one task per node).
        stacks:
            Which communication libraries to initialize: any of
            ``"lapi"``, ``"mpl"``.
        ga_backend:
            If set (``"lapi"`` or ``"mpl"``), initialize Global Arrays
            on that stack (the stack is added implicitly).
        ga_config:
            Optional :class:`repro.ga.GaConfig` overriding the GA
            protocol thresholds (ablations).
        interrupt_mode:
            Initial progress mode for LAPI and MPL rcvncall.
        eager_limit:
            Override MP_EAGER_LIMIT for the MPL stack.
        max_events:
            Kernel safety valve.
        until:
            Abort the job if virtual time exceeds this (test hangs).
        error_handler:
            LAPI error handler registered at ``LAPI_Init`` time on
            every task (``fn(err) -> bool``); see
            :meth:`repro.core.api.Lapi.register_error_handler`.
        on_peer_failure:
            Survivor policy when the failure detector convicts a peer:
            ``"fail"`` (default) terminates the job with a structured
            :class:`~repro.errors.PeerUnreachableError`; ``"continue"``
            degrades gracefully -- blocked primitives involving the dead
            peer resolve and the survivors keep running.
        """
        if on_peer_failure not in ("fail", "continue"):
            raise MachineError(
                f"unknown on_peer_failure policy {on_peer_failure!r}"
                " (expected 'fail' or 'continue')")
        self.on_peer_failure = on_peer_failure
        size = ntasks if ntasks is not None else self.nnodes
        if size > self.nnodes:
            raise MachineError(
                f"ntasks={size} exceeds cluster of {self.nnodes} nodes")
        stack_set = set(stacks)
        if ga_backend is not None:
            if ga_backend not in ("lapi", "mpl"):
                raise MachineError(f"unknown GA backend {ga_backend!r}")
            stack_set.add(ga_backend)
            # The GA-on-LAPI implementation uses MPL-free bootstrap, but
            # GA collectives (broker-less create) piggyback on its own
            # stack, so nothing further is needed here.
        unknown = stack_set - {"lapi", "mpl"}
        if unknown:
            raise MachineError(f"unknown stacks: {sorted(unknown)}")

        tasks = [Task(self, rank, size, self.nodes[rank])
                 for rank in range(size)]

        if "lapi" in stack_set:
            from ..core.api import Lapi
            for task in tasks:
                task.lapi = Lapi(task, interrupt_mode=interrupt_mode,
                                 error_handler=error_handler)
        if "mpl" in stack_set:
            from ..mpl.api import Mpl
            for task in tasks:
                task.mpl = Mpl(task, interrupt_mode=interrupt_mode,
                               eager_limit=eager_limit)
        if ga_backend is not None:
            from ..ga.api import GlobalArrays
            from ..ga.config import GA_DEFAULTS
            gcfg = ga_config if ga_config is not None else GA_DEFAULTS
            for task in tasks:
                task.ga = GlobalArrays(task, backend=ga_backend,
                                       gcfg=gcfg)

        def main_body(task: Task):
            def body(thread):
                task.thread = thread
                if task.lapi is not None:
                    yield from task.lapi.init()
                if task.mpl is not None:
                    yield from task.mpl.init()
                if task.ga is not None:
                    yield from task.ga.init()
                result = yield from fn(task)
                if task.ga is not None:
                    yield from task.ga.terminate()
                if task.lapi is not None:
                    yield from task.lapi.term()
                if task.mpl is not None:
                    yield from task.mpl.term()
                return result
            return body

        threads = [task.node.cpu.spawn(main_body(task),
                                       name=f"task{task.rank}.main")
                   for task in tasks]
        sim = self.sim
        sim.fatal = None
        self._job_running = True
        try:
            reason = sim.drive(sim.all_of([t.process for t in threads]),
                               until, max_events)
        finally:
            self._job_running = False
            fatal, sim.fatal = sim.fatal, None
        if fatal is not None:
            raise fatal
        if reason == "until":
            raise MachineError(
                f"job exceeded virtual-time budget of {until}us")
        if reason == "budget":
            raise MachineError(f"job exceeded max_events={max_events}")
        if reason == "empty":
            alive = [t.process.name for t in threads
                     if t.process.is_alive]
            raise MachineError(
                f"job deadlocked; unfinished tasks: {alive}")
        for t in threads:
            if t.process.triggered and not t.process.ok:
                raise t.process.value
        return [t.process.value for t in threads]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Cluster {self.nnodes} nodes, t={self.sim.now:.1f}us>"
