"""Satin worker process.

One worker runs on each grid node taking part in the computation. Its main
loop implements the work-first principle:

1. pop a frame from the own deque (LIFO) and execute it — the divide or
   leaf phase for READY frames, the combine phase for COMBINE_READY ones;
2. if the deque is empty, steal: under CRS, fire one asynchronous
   wide-area steal (if none is outstanding) and synchronously steal within
   the cluster; under plain RS, synchronously steal from any peer;
3. if no work could be found, back off (bounded exponential, jittered) —
   this models the pacing a real implementation gets from communication
   latency and keeps the event rate bounded — and try again. An arriving
   frame (stolen asynchronously, delivered result, hand-off) wakes the
   worker immediately.

Time accounting matches the paper's monitoring (Section 3.2): execution
time is *busy*, synchronous steal round-trips and result returns are
*communication* (split intra/inter-cluster by the peer's location), the
back-off waits are *idle*, and benchmark runs are *bench*. Asynchronous
wide-area steal traffic is intentionally **not** charged to the worker —
overlapping it with local work is exactly CRS's point; the idle time it
fails to cover shows up as idle.

The worker is interrupt-driven for departures: the runtime interrupts the
worker process with cause ``"leave"`` (graceful: queued frames and waiting
frames are handed off to live workers, with their data shipped over the
network) or ``"crash"`` (everything on the node is lost; recovery is the
runtime's job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Protocol

import numpy as np

from ..obs import MonitoringPeriod, Observability, StealAttempt
from ..simgrid.engine import AnyOf, Environment, Event, Interrupt
from ..simgrid.network import Network
from ..simgrid.resources import Host
from .accounting import TimeAccount
from .benchmarking import BenchmarkConfig, SpeedBenchmark
from .deque import WorkDeque
from .stealing import PeerDirectory, StealPolicy, steal_scope
from .task import Frame, FrameState
from .taskrate import TaskRateConfig, TaskRateSpeedEstimator

__all__ = ["Worker", "WorkerConfig", "RuntimeServices"]


@dataclass(frozen=True)
class WorkerConfig:
    """Tunables shared by all workers of a run."""

    steal_request_bytes: float = 128.0
    steal_reply_bytes: float = 128.0
    result_header_bytes: float = 128.0
    stats_bytes: float = 2048.0
    backoff_min: float = 0.002
    backoff_max: float = 0.064
    monitoring_period: float = 180.0
    #: collect per-period statistics and report them (monitoring-only and
    #: adaptive variants); the paper's plain non-adaptive runs have this off.
    collect_stats: bool = False
    #: benchmark configuration; None disables speed benchmarking entirely.
    benchmark: Optional[BenchmarkConfig] = None
    #: alternative zero-overhead speed source for *regular* workloads
    #: (paper §3.2): estimate speed by counting completed leaf tasks.
    #: Takes effect when no benchmark is configured.
    task_rate: Optional[TaskRateConfig] = None

    def __post_init__(self) -> None:
        for field_name in (
            "steal_request_bytes",
            "steal_reply_bytes",
            "result_header_bytes",
            "stats_bytes",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")
        if not 0 < self.backoff_min <= self.backoff_max:
            raise ValueError("need 0 < backoff_min <= backoff_max")
        if self.monitoring_period <= 0:
            raise ValueError("monitoring_period must be > 0")


class RuntimeServices(Protocol):
    """The runtime facilities a worker needs (implemented by SatinRuntime)."""

    env: Environment
    network: Network
    peers: PeerDirectory
    #: telemetry bundle; minimal fakes may omit it (the worker falls back
    #: to a disabled Observability).
    obs: Observability

    def worker_alive(self, name: str) -> bool: ...
    def host(self, name: str) -> Host: ...
    def try_steal(self, victim: str, thief: str) -> Optional[Frame]: ...
    def return_stolen(self, frame: Frame, victim: str) -> None: ...
    def deliver_result(self, frame: Frame) -> None: ...
    def root_done(self, frame: Frame) -> None: ...
    def waiting_add(self, worker: str, frame: Frame) -> None: ...
    def waiting_remove(self, worker: str, frame: Frame) -> None: ...
    def handoff(self, frame: Frame, from_worker: str) -> Optional[str]: ...
    def report_stats(self, worker: "Worker", report: Any) -> None: ...
    def worker_departed(self, worker: "Worker", cause: str) -> None: ...


class _Backoff:
    """Bounded exponential back-off with multiplicative jitter."""

    def __init__(self, lo: float, hi: float, rng: np.random.Generator) -> None:
        self.lo, self.hi = lo, hi
        self._rng = rng
        self._current = lo

    def next(self) -> float:
        delay = self._current * float(self._rng.uniform(0.75, 1.25))
        self._current = min(self._current * 2.0, self.hi)
        return delay

    def reset(self) -> None:
        self._current = self.lo


class Worker:
    """The per-node execution engine (one per live grid node)."""

    def __init__(
        self,
        runtime: RuntimeServices,
        host: Host,
        policy: StealPolicy,
        config: WorkerConfig,
        rng: np.random.Generator,
    ) -> None:
        self.runtime = runtime
        self.env = runtime.env
        self.host = host
        self.name = host.name
        self.cluster = host.cluster
        self.policy = policy
        self.config = config
        self.rng = rng

        self.deque = WorkDeque()
        self.account = TimeAccount(start_time=self.env.now)
        self.bench: Optional[SpeedBenchmark] = (
            SpeedBenchmark(config.benchmark, rng) if config.benchmark else None
        )
        self.task_rate: Optional[TaskRateSpeedEstimator] = (
            TaskRateSpeedEstimator(config.task_rate) if config.task_rate else None
        )
        self.alive = True
        #: set at departure: "leave" (graceful — results for frames owned
        #: here are still valid, the frames get re-homed) or "crash"
        #: (results are lost).
        self.departure_cause: Optional[str] = None
        self.process = None  # set by start()
        self._wake: Optional[Event] = None
        self._backoff = _Backoff(config.backoff_min, config.backoff_max, rng)
        self._remote_outstanding = False
        self._helper_procs: list[Any] = []
        self._current: Optional[Frame] = None
        #: peer → "comm_intra"/"comm_inter" memo (cluster membership of a
        #: named node never changes, so entries are valid for the run).
        self._comm_cat: dict[str, str] = {}
        #: counters for tests and reports
        self.executed_leaves = 0
        self.executed_tasks = 0
        self.steals_attempted = 0
        self.steals_successful = 0

        # Bound telemetry instruments (no-ops when telemetry is disabled);
        # getattr keeps minimal RuntimeServices fakes in tests working.
        self.obs: Observability = (
            getattr(runtime, "obs", None) or Observability.disabled()
        )
        metrics = self.obs.metrics
        self._m_steal_attempted = {
            mode: metrics.counter("steals_attempted", worker=self.name, mode=mode)
            for mode in ("sync", "async")
        }
        self._m_steal_successful = {
            mode: metrics.counter("steals_successful", worker=self.name, mode=mode)
            for mode in ("sync", "async")
        }
        self._h_steal_latency = {
            mode: metrics.histogram("steal_latency_seconds", mode=mode)
            for mode in ("sync", "async")
        }
        self._m_reports = metrics.counter("monitoring_reports", worker=self.name)
        # Profiling handles: the span tracker is shared, the attribution
        # recorder is per-incarnation (a node that rejoins gets a fresh
        # one). Both are shared no-ops unless profiling is on.
        self._spans = self.obs.spans
        self._ledger = self.obs.attribution.recorder(
            self.name, self.cluster, start=self.env.now
        )
        #: next time the main loop must run its periodic bookkeeping —
        #: the earlier of the monitoring-period rollover and the bench
        #: probe's schedule, coalesced into one float compare per loop
        #: iteration (the slow path re-derives it; see _refresh_periodic).
        self._next_periodic = 0.0

    # ------------------------------------------------------------------ api
    def start(self) -> None:
        self.process = self.env.process(self._run(), name=f"worker:{self.name}")

    def push_frame(self, frame: Frame) -> None:
        """Hand a frame to this worker (external: steal return, result,
        recovery, hand-off). Wakes the worker if it is idle."""
        if not self.alive:
            # Raced with departure: bounce to the runtime for re-placement.
            self.runtime.handoff(frame, self.name)
            return
        self.deque.push(frame)
        self.notify()

    def notify(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    @property
    def reported_speed(self) -> float:
        """Speed to include in statistics reports.

        Priority: the last benchmark measurement; else the task-rate
        estimate (regular workloads, paper §3.2); else the host's true
        effective speed (tests/diagnostics only — the paper's system never
        reports unmeasured speeds).
        """
        if self.bench is not None and self.bench.last_speed is not None:
            return self.bench.last_speed
        if self.task_rate is not None and self.task_rate.last_speed is not None:
            return self.task_rate.last_speed
        return self.host.effective_speed

    # ------------------------------------------------------------------ main
    def _run(self) -> Generator[Event, Any, None]:
        collect_stats = self.config.collect_stats  # config is frozen
        self._refresh_periodic()
        try:
            while True:
                # Coalesced periodic bookkeeping: the monitoring rollover
                # and the bench probe share one deadline check, so the
                # steady-state loop iteration pays a single float compare.
                # Both underlying checks are no-ops before their own
                # deadlines, so running them only past the coalesced
                # deadline is observationally identical to polling both
                # every iteration (order preserved: report, then bench).
                if self.env.now >= self._next_periodic:
                    if collect_stats:
                        self._maybe_report_stats()
                    if self.bench is not None and self.bench.should_run(
                        self.env.now, self.host.external_load
                    ):
                        yield from self._run_benchmark()
                        self._refresh_periodic()
                        continue
                    self._refresh_periodic()

                frame = self.deque.pop()
                if frame is not None:
                    yield from self._execute(frame)
                    self._backoff.reset()
                    continue

                # Idle: try to find work.
                if self.policy.wide_area_async and not self._remote_outstanding:
                    victim = self.policy.remote_victim(self.name, self.runtime.peers, self.rng)
                    if victim is not None:
                        self._spawn_remote_steal(victim)

                got = False
                victim = self.policy.local_victim(self.name, self.runtime.peers, self.rng)
                if victim is not None:
                    got = yield from self._sync_steal(victim)
                if got:
                    self._backoff.reset()
                    continue

                yield from self._idle_wait()
        except Interrupt as interrupt:
            yield from self._depart(str(interrupt.cause or "leave"))

    def _idle_wait(self) -> Generator[Event, Any, None]:
        t0 = self.env.now
        self._wake = self.env.event()
        ledger = self._ledger
        if ledger.enabled:
            ledger.enter("idle", t0)
        try:
            yield AnyOf(self.env, [self.env.timeout(self._backoff.next()), self._wake])
        finally:
            self._wake = None
            if ledger.enabled:
                ledger.exit(self.env.now)
            self.account.add_idle(self.env.now - t0)

    # ------------------------------------------------------------- execution
    def _execute(self, frame: Frame) -> Generator[Event, Any, None]:
        # _current stays set if an Interrupt lands mid-execution, so the
        # departure handler can recover the in-progress frame.
        #
        # The compute burst (sample the host's effective speed once, then
        # one pooled sleep charged as "work" or "recovery") is written out
        # in both branches below rather than delegated to a helper
        # generator: a generator per task on the execution hot path is
        # measurable.
        self._current = frame
        env = self.env
        spans = self._spans
        ledger = self._ledger
        prof = ledger.enabled
        account = self.account
        # Re-executed subtrees (crash recovery) charge "recovery", not "work".
        category = "recovery" if frame.recovered else "work"
        if frame.state is FrameState.READY:
            frame.state = FrameState.RUNNING
            frame.owner = self.name
            frame.executor = self.name
            is_leaf = frame.is_leaf
            phase = "leaf" if is_leaf else "divide"
            if spans.enabled:
                spans.exec_start(frame, env.now, self.name, phase)
            work = frame.node.work
            if work > 0:
                duration = work / self.host.effective_speed
                t0 = env.now
                if prof:
                    ledger.enter(category, t0)
                    try:
                        yield env.sleep(duration)
                    finally:
                        ledger.exit(env.now)
                else:
                    yield env.sleep(duration)
                account.add_busy(env.now - t0)
            if spans.enabled:
                spans.exec_end(frame, env.now, phase)
            self.executed_tasks += 1
            if is_leaf:
                self.executed_leaves += 1
                if self.task_rate is not None:
                    self.task_rate.note_task_completed()
                # Local completion (parent on this node) needs no network
                # leg — skip the _complete generator for the common case.
                parent = frame.parent
                if parent is not None and parent.owner == self.name:
                    frame.state = FrameState.DONE
                    self.runtime.deliver_result(frame)
                else:
                    yield from self._complete(frame)
            else:
                children = frame.child_frames()
                frame.pending_children = len(children)
                frame.state = FrameState.WAITING
                self.runtime.waiting_add(self.name, frame)
                deque_push = self.deque.push
                for child in children:
                    deque_push(child)
                    if spans.enabled:
                        spans.spawn(child, env.now, self.name)
        elif frame.state is FrameState.COMBINE_READY:
            frame.state = FrameState.COMBINING
            if spans.enabled:
                spans.exec_start(frame, env.now, self.name, "combine")
            work = frame.node.combine_work
            if work > 0:
                duration = work / self.host.effective_speed
                t0 = env.now
                if prof:
                    ledger.enter(category, t0)
                    try:
                        yield env.sleep(duration)
                    finally:
                        ledger.exit(env.now)
                else:
                    yield env.sleep(duration)
                account.add_busy(env.now - t0)
            if spans.enabled:
                spans.exec_end(frame, env.now, "combine")
            parent = frame.parent
            if parent is not None and parent.owner == self.name:
                frame.state = FrameState.DONE
                self.runtime.deliver_result(frame)
            else:
                yield from self._complete(frame)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"cannot execute frame in state {frame.state}")
        self._current = None

    def _complete(self, frame: Frame) -> Generator[Event, Any, None]:
        frame.state = FrameState.DONE
        parent = frame.parent
        if parent is None:
            self.runtime.root_done(frame)
            return
        dest = parent.owner
        if dest == self.name:
            self.runtime.deliver_result(frame)
            return
        # Result travels back to the parent frame's owner.
        if dest is not None and self.runtime.worker_alive(dest):
            nbytes = self.config.result_header_bytes + frame.result_bytes
            category = self._comm_category(dest)
            t0 = self.env.now
            ledger = self._ledger
            if ledger.enabled:
                ledger.enter(category, t0)
                try:
                    yield from self.runtime.network.transfer(self.name, dest, nbytes)
                finally:
                    ledger.exit(self.env.now)
                    self.account.add_comm(category, self.env.now - t0)
            else:
                try:
                    yield from self.runtime.network.transfer(self.name, dest, nbytes)
                finally:
                    self.account.add_comm(category, self.env.now - t0)
        self.runtime.deliver_result(frame)

    # ---------------------------------------------------------------- stealing
    def _comm_category(self, peer: str) -> str:
        cat = self._comm_cat.get(peer)
        if cat is None:
            cat = f"comm_{steal_scope(self.cluster, self.runtime.host(peer).cluster)}"
            self._comm_cat[peer] = cat
        return cat

    def _note_steal(
        self, victim: str, mode: str, category: str, success: bool, latency: float
    ) -> None:
        self._m_steal_attempted[mode].inc()
        if success:
            self._m_steal_successful[mode].inc()
        self._h_steal_latency[mode].observe(latency)
        bus = self.obs.bus
        if bus.wants(StealAttempt.kind):
            bus.emit(StealAttempt(
                time=self.env.now, thief=self.name, victim=victim, mode=mode,
                scope="intra" if category == "comm_intra" else "inter",
                success=success,
            ))

    def _sync_steal(self, victim: str) -> Generator[Event, Any, bool]:
        """One synchronous steal attempt; True if a frame was obtained."""
        self.steals_attempted += 1
        category = self._comm_category(victim)
        net = self.runtime.network
        t0 = self.env.now
        frame: Optional[Frame] = None
        ledger = self._ledger
        prof = ledger.enabled
        if prof:
            ledger.enter(category, t0)
        try:
            yield from net.transfer(self.name, victim, self.config.steal_request_bytes)
            frame = self.runtime.try_steal(victim, self.name)
            nbytes = self.config.steal_reply_bytes + (
                frame.node.data_in if frame is not None else 0.0
            )
            if self.runtime.worker_alive(victim):
                yield from net.transfer(victim, self.name, nbytes)
        except Interrupt:
            if frame is not None:
                self.runtime.return_stolen(frame, victim)
            raise
        finally:
            if prof:
                ledger.exit(self.env.now)
            self.account.add_comm(category, self.env.now - t0)
        self._note_steal(victim, "sync", category, frame is not None, self.env.now - t0)
        if frame is None:
            return False
        self.steals_successful += 1
        self.deque.push(frame)
        return True

    def _spawn_remote_steal(self, victim: str) -> None:
        self._remote_outstanding = True
        proc = self.env.process(
            self._remote_steal(victim), name=f"crs:{self.name}->{victim}"
        )
        self._helper_procs.append(proc)

    def _remote_steal(self, victim: str) -> Generator[Event, Any, None]:
        """CRS asynchronous wide-area steal (runs as a helper process).

        The request round-trip is *not* charged to the worker — hiding that
        latency behind local work is CRS's point. Receiving the stolen
        job's data, however, is real communication the node observes, and
        is charged as inter-cluster overhead; this is what lets the
        coordinator see that a cluster feeds on a starved uplink.
        """
        self.steals_attempted += 1
        net = self.runtime.network
        frame: Optional[Frame] = None
        delivered = False
        t_start = self.env.now
        try:
            yield from net.transfer(self.name, victim, self.config.steal_request_bytes)
            frame = self.runtime.try_steal(victim, self.name)
            nbytes = self.config.steal_reply_bytes + (
                frame.node.data_in if frame is not None else 0.0
            )
            if self.runtime.worker_alive(victim):
                if frame is not None:
                    cat = self._comm_category(victim)
                    t0 = self.env.now
                    try:
                        yield from net.transfer(victim, self.name, nbytes)
                    finally:
                        # The helper runs concurrently with the main loop,
                        # so this is overlap, not serial ledger time.
                        self.account.add_comm(cat, self.env.now - t0)
                        self._ledger.charge_overlap(cat, t0, self.env.now)
                else:
                    yield from net.transfer(victim, self.name, nbytes)
            if frame is not None:
                delivered = True
                self.steals_successful += 1
                if self.alive:
                    self.deque.push(frame)
                    self.notify()
                else:
                    self.runtime.handoff(frame, self.name)
        except Interrupt:
            if frame is not None and not delivered:
                self.runtime.return_stolen(frame, victim)
        finally:
            self._note_steal(
                victim, "async", self._comm_category(victim), delivered,
                self.env.now - t_start,
            )
            self._remote_outstanding = False
            proc = self.env.active_process
            if proc in self._helper_procs:
                self._helper_procs.remove(proc)

    # -------------------------------------------------------------- monitoring
    def _refresh_periodic(self) -> None:
        """Re-derive the coalesced periodic deadline for the main loop.

        Called whenever either source deadline may have moved: after a
        monitoring rollover (period_start advances) and after a bench
        run or stable-load skip (the probe reschedules itself).
        """
        nxt = float("inf")
        if self.config.collect_stats:
            nxt = self.account.period_start + self.config.monitoring_period
        bench = self.bench
        if bench is not None and bench.next_due < nxt:
            nxt = bench.next_due
        self._next_periodic = nxt

    def _maybe_report_stats(self) -> None:
        if not self.config.collect_stats:
            return
        now = self.env.now
        if now - self.account.period_start < self.config.monitoring_period:
            return
        if self.task_rate is not None:
            # close the counting window against this period's busy time
            self.task_rate.rollover(self.account.total("busy"))
        report = self.account.rollover(
            now, worker=self.name, cluster=self.cluster, speed=self.reported_speed
        )
        self._ledger.rollover(now)
        self._m_reports.inc()
        bus = self.obs.bus
        if bus.wants(MonitoringPeriod.kind):
            bus.emit(MonitoringPeriod(
                time=now, worker=self.name, cluster=self.cluster,
                speed=report.speed, overhead=report.overhead,
                ic_overhead=report.ic_overhead, period=report.period_index,
            ))
        self.runtime.report_stats(self, report)

    def _run_benchmark(self) -> Generator[Event, Any, None]:
        assert self.bench is not None
        load = self.host.external_load
        duration = self.bench.duration(self.host.effective_speed)
        t0 = self.env.now
        self._ledger.enter("bench", t0)
        try:
            yield self.env.sleep(duration)
        finally:
            self._ledger.exit(self.env.now)
        self.account.add_bench(self.env.now - t0)
        self.bench.record(self.env.now, self.env.now - t0)
        self.bench.note_load(load)

    # --------------------------------------------------------------- departure
    def interrupt_helpers(self) -> None:
        """Stop any in-flight asynchronous steal helpers."""
        for proc in list(self._helper_procs):
            if proc.is_alive:
                proc.interrupt("departed")
        self._helper_procs.clear()

    @property
    def leaving(self) -> bool:
        """True once a graceful departure has started."""
        return self.departure_cause == "leave"

    def _depart(self, cause: str) -> Generator[Event, Any, None]:
        self.alive = False
        self.departure_cause = cause
        self.interrupt_helpers()

        if cause == "leave":
            # Graceful: hand queued and in-progress work to live workers,
            # paying the network cost of shipping each frame's data.
            frames = self.deque.drain()
            current = self._current
            if current is not None:
                if current.state is FrameState.RUNNING:
                    current.state = FrameState.READY
                    frames.append(current)
                elif current.state is FrameState.COMBINING:
                    current.state = FrameState.COMBINE_READY
                    frames.append(current)
                elif current.state is FrameState.DONE:
                    # Interrupted mid result-transfer: the computation is
                    # finished, make sure the parent still learns about it.
                    self.runtime.deliver_result(current)
                self._current = None
            for frame in frames:
                target = self.runtime.choose_handoff_target(frame, exclude={self.name})
                if target is None:
                    continue  # no live workers; the frame is lost with us
                # Ship the frame's data first, then make it runnable there.
                # The hand-off traffic goes to the ledger only: the paper's
                # accounting stops at departure, but the attribution ledger
                # keeps conservation over the full participation window.
                self._ledger.enter(self._comm_category(target), self.env.now)
                try:
                    yield from self.runtime.network.transfer(
                        self.name, target, frame.node.data_in
                    )
                finally:
                    self._ledger.exit(self.env.now)
                if self.runtime.worker_alive(target):
                    self.runtime.place_frame(frame, target)
                else:
                    self.runtime.handoff(frame, self.name)
        # For "crash" everything on the node is simply lost; the runtime's
        # recovery (driven by the registry's crash notification) re-queues
        # whatever other nodes are still waiting for. The local frames die
        # here, so their open spans close as aborted now (a tracked frame
        # gets a successor span when recovery restarts it).
        elif self._spans.enabled:
            lost = self.deque.drain()
            if self._current is not None:
                lost.append(self._current)
            for frame in lost:
                self._spans.aborted(frame, self.env.now)
        self._ledger.finalize(self.env.now)
        self.runtime.worker_departed(self, cause)
