"""Micro-benchmark harness behind ``repro bench``.

One workload per substrate hot path — the same callables the
pytest-benchmark suite in ``benchmarks/test_micro_simulator.py`` runs, so
the CI smoke gate, the committed ``BENCH_<n>.json`` artifacts, and the
interactive suite all measure the identical code paths:

* ``engine_timeouts``  — event throughput of the bare DES engine;
* ``store_pingpong``   — producer/consumer messaging through a Store;
* ``worksteal``        — tasks/second through the full runtime + network;
* ``octree_build``     — flat Barnes-Hut octree construction (2048 bodies);
* ``traversal``        — Barnes-Hut interaction counts, production path
  (frontier-batched kernel over the flat octree);
* ``traversal_flat``   — the full frontier kernel including force
  accumulation (``bh_accelerations`` on the flat tree, 1024 bodies);
* ``leaf_batch``       — the batched leaf–body interaction micro-kernel
  on a synthetic (leaf, body) frontier;
* ``scenario_e2e``     — a complete small scenario (grid build, workers,
  monitoring, adaptation coordinator) through
  ``experiments.runner.run_scenario`` — the end-to-end number the
  substrate workloads exist to improve;
* ``coordinator_decide``       — the streaming decision path
  (incremental WAE + top-k badness) over a 10k-node report stream with
  1% of nodes changing per period;
* ``coordinator_decide_batch`` — the same stream through the retained
  batch spec (full snapshot + re-fold every period), the "before" the
  streaming path is measured against;
* ``grid_monitoring_period``   — full monitoring periods at 10^4 nodes
  on the struct-of-arrays path: one ``GridState.ingest_arrays`` per
  cluster, one vectorized fold, WAE, and a policy decision per period;
* ``grid_monitoring_period_scalar`` — the identical periods through the
  retained scalar spec: one ``NodeReport`` ingest per node, the
  pure-Python ``fold_scalar``, and the batch policy on ``NodeView``
  tuples — the "before" the SoA path is measured against;
* ``sweep_warm_pool``   — a 32-job sweep of tiny scenarios through an
  already-warm :class:`~repro.serving.pool.WarmPool` (2 workers): only
  job dispatch, simulation, and result IPC are on the timed path;
* ``sweep_cold_spawn``  — the identical 32-job sweep paying the full
  worker spawn + interpreter + import cost per batch, the "before" the
  serving layer's persistent pool removes;
* ``cache_requery``     — 6 scenario jobs re-queried through the
  simulation service with a warmed content-addressed result cache:
  the timed path is key derivation + lookup, no simulation;
* ``cache_requery_uncached`` — the identical 6 jobs through a service
  with the cache disabled, i.e. simulated from scratch every call —
  the "before" a cache hit is measured against.

The two members of each before/after pair fold identical streams, so
``--interleave`` can alternate them call-by-call within one session:
interleaving removes the session drift (CPU contention, frequency
scaling) that makes cross-session A/B ratios unreliable, which is how
the headline speedups in ``BENCH_<n>.json`` are taken.

Every workload times only its returned callable: input generation and
octree construction happen in ``prepare`` and are excluded (pinned by
``tests/experiments/test_microbench.py``).

Results JSON schema (also embedded in every file under ``"_schema"``):

```
{
  "_schema": {...this description...},
  "quick": bool,            # --quick run (fewer repeats)?
  "repeats": int,           # timed repetitions per workload
  "canary_median_ms": float,# fixed pure-python canary (machine speed)
  "benchmarks": {
    "<workload>": {
      "median_ms": float,   # median of the timed repetitions
      "min_ms": float,
      "description": str,
      # present when a baseline file was given:
      "baseline_median_ms": float,
      "speedup": float,     # baseline_median_ms / median_ms
      # present when the baseline also recorded a canary:
      "speedup_normalized": float   # speedup x canary drift correction
    }, ...
  },
  # present when --interleave was given: same-session A/B pairs, timed
  # strictly alternately so machine drift cancels out of the ratio
  "interleaved": {
    "<cand>_vs_<base>": {
      "candidate": str, "baseline": str,
      "candidate_median_ms": float, "baseline_median_ms": float,
      "speedup": float,             # baseline / candidate, drift-free
      "repeats": int
    }, ...
  }
}
```

The **canary** is a fixed pure-python workload that never touches repo
code, so its median measures the *session*, not the PR: two bench runs
on the same machine minutes apart drift ±10–40% (CPU contention,
frequency scaling), which is exactly the artefact that made every
untouched workload in BENCH_4.json read 0.85–0.93x. With a canary in
both files the drift is observable: ``speedup_normalized`` multiplies
the raw speedup by ``canary_now / canary_baseline`` (if this session's
canary runs 15% slower, every workload's raw speedup is deflated by the
same 15%, and the correction undoes it). The ``--gate`` check stays on
the *raw* ratio — the canary is diagnostic, the gate conservative.

The committed ``BENCH_<n>.json`` artifacts are exactly this format with a
baseline: ``baseline_median_ms`` is the pre-PR measurement ("before"),
``median_ms`` the post-PR one ("after"), both taken by this harness on
the same machine.

Timing protocol: one warm-up call, then ``repeats`` timed single calls
(``time.perf_counter``) with the garbage collector run between and
disabled during each call; the median is the headline number. Workloads
run 5–20 ms each, so single calls are well above timer resolution and
the median shrugs off scheduler noise. This matches pytest-benchmark's
medians closely but needs no plugin, which keeps the CI gate dependency-
free.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Optional, Sequence

__all__ = [
    "Workload",
    "WORKLOADS",
    "INTERLEAVE_PAIRS",
    "canary_run",
    "engine_timeout_churn",
    "store_pingpong",
    "worksteal_run",
    "octree_inputs",
    "coordinator_stream_inputs",
    "grid_period_inputs",
    "scenario_e2e_spec",
    "sweep_job_inputs",
    "cache_requery_inputs",
    "run_bench",
    "run_interleaved",
    "check_against_baseline",
]


# -- machine-speed canary ----------------------------------------------------


def canary_run() -> int:
    """Fixed pure-python workload measuring the interpreter, not the repo.

    Integer arithmetic, dict stores and list churn in a tight loop — the
    same instruction mix the simulator's hot paths execute, but frozen:
    this function must never change (a change would silently invalidate
    every cross-file canary comparison). ~10 ms on the reference box.
    """
    acc = 0
    table: dict[int, int] = {}
    stack: list[int] = []
    for i in range(30000):
        acc = (acc + i * 7) & 0xFFFFF
        if i & 7 == 0:
            table[acc & 1023] = i
            stack.append(acc)
        elif i & 31 == 1 and stack:
            acc ^= stack.pop()
    for k in range(1024):
        acc += table.get(k, 0)
    return acc


# -- workloads ---------------------------------------------------------------
# Import lazily inside the functions so `import repro.cli` stays cheap.


def engine_timeout_churn() -> int:
    """Five processes × 2000 timeouts through the bare engine."""
    from ..simgrid import Environment

    env = Environment()

    def ticker(env):
        for _ in range(2000):
            yield env.timeout(1.0)

    for _ in range(5):
        env.process(ticker(env))
    env.run()
    return env.event_count


def store_pingpong() -> int:
    """3000 request/reply round trips between two Stores."""
    from ..simgrid import Environment
    from ..simgrid.queues import Store

    env = Environment()
    a, b = Store(env), Store(env)

    def producer(env):
        for i in range(3000):
            a.put(i)
            yield b.get()

    def consumer(env):
        for _ in range(3000):
            item = yield a.get()
            b.put(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    return env.event_count


def worksteal_run() -> int:
    """A 1023-task divide-and-conquer run on an 8-node cluster."""
    from ..apps.dctree import SyntheticIterativeApp, balanced_tree
    from ..registry import Registry
    from ..satin import AppDriver, SatinRuntime, WorkerConfig
    from ..simgrid import Environment, Network, RngStreams
    from ..simgrid.resources import ClusterSpec, GridSpec, NodeSpec

    env = Environment()
    grid = GridSpec(
        clusters=(
            ClusterSpec(
                name="c0",
                nodes=tuple(NodeSpec(f"c0/n{i}", "c0") for i in range(8)),
            ),
        )
    )
    network = Network(env, grid)
    runtime = SatinRuntime(
        env=env,
        network=network,
        registry=Registry(env),
        config=WorkerConfig(),
        rng=RngStreams(0),
    )
    runtime.add_nodes([h.name for h in network.hosts.values()])
    app = SyntheticIterativeApp(
        balanced_tree(depth=9, fanout=2, leaf_work=0.01), n_iterations=1
    )
    driver = AppDriver(runtime, app)
    done = driver.start()
    env.run(until=done)
    return runtime.total_executed_tasks()


def octree_inputs():
    """The 2048-body Plummer sphere the octree workloads run on."""
    import numpy as np

    from ..apps.barneshut import plummer_sphere

    rng = np.random.default_rng(0)
    pos, _, mass = plummer_sphere(2048, rng)
    return pos, mass


def scenario_e2e_spec():
    """The small-but-complete scenario the end-to-end workload runs.

    Three clusters x four nodes of the scaled DAS-2 grid, a 64-leaf
    iterative divide-and-conquer app for five iterations, adaptation
    enabled — every subsystem (engine, stores, workers, monitoring,
    WAE, coordinator) is on the timed path, weighted as a real run
    weights it.
    """
    from ..apps.dctree import SyntheticIterativeApp, balanced_tree
    from .scenarios import ScenarioSpec, scaled_das2

    return ScenarioSpec(
        id="bench_e2e",
        paper_ref="microbench",
        description="end-to-end scenario microbench",
        grid=scaled_das2(nodes_per_cluster=4, clusters=3),
        initial_layout=(("vu", 4), ("uva", 4)),
        app_factory=lambda: SyntheticIterativeApp(
            balanced_tree(depth=6, fanout=2, leaf_work=0.15),
            n_iterations=5,
        ),
        monitoring_period=10.0,
        max_sim_time=1200.0,
    )


def coordinator_stream_inputs():
    """The 10k-node report stream the decision-path workloads consume.

    25 clusters × 400 nodes, 12 decision periods, 100 changed reports
    (1% of the grid) per period — everything seeded, so both workloads
    fold the identical stream. Returns ``(names, initial, periods)``:
    one full first-period report per node, then per-period change lists.
    """
    import numpy as np

    from ..satin.accounting import NodeReport

    n_nodes, n_clusters = 10_000, 25
    n_periods, n_changed = 12, 100
    rng = np.random.default_rng(7)
    names = [f"c{i % n_clusters}/n{i}" for i in range(n_nodes)]

    def make_report(i: int, period: int) -> NodeReport:
        speed = float(rng.uniform(0.5, 4.0))
        overhead = float(rng.uniform(0.05, 0.6))
        ic = float(rng.uniform(0.0, min(overhead, 0.3)))
        return NodeReport(
            worker=names[i],
            cluster=names[i].partition("/")[0],
            period_index=period,
            sent_at=60.0 * (period + 1),
            period_seconds=60.0,
            busy=(1.0 - overhead) * 60.0,
            idle=(overhead - ic) * 60.0,
            comm_intra=0.0,
            comm_inter=ic * 60.0,
            bench=0.0,
            speed=speed,
        )

    initial = [make_report(i, 0) for i in range(n_nodes)]
    periods = [
        [
            make_report(int(i), p + 1)
            for i in rng.choice(n_nodes, size=n_changed, replace=False)
        ]
        for p in range(n_periods)
    ]
    return names, initial, periods


def grid_period_inputs():
    """Inputs for the monitoring-period pair: 10^4 nodes, 4 periods.

    100 clusters × 100 nodes of the synthetic grid, with per-period
    measurement arrays (speed/busy/inter-cluster seconds, all seeded).
    Returns ``(clusters, periods)`` where ``clusters`` is a list of
    ``(cluster_name, node_names)`` and ``periods`` a list of per-period
    ``{cluster_name: (speed, busy, comm_inter)}`` dicts — both workloads
    fold exactly these numbers.
    """
    import numpy as np

    from ..simgrid.resources import synthetic_grid

    n_periods, period = 4, 60.0
    grid = synthetic_grid(100, 100)
    clusters = [
        (c.name, [n.name for n in c.nodes]) for c in grid.clusters
    ]
    rng = np.random.default_rng(11)
    periods = []
    for p in range(n_periods):
        busy_mean = 0.8 - 0.1 * p
        batch = {}
        for name, nodes in clusters:
            n = len(nodes)
            speed = rng.uniform(0.5, 4.0, n)
            ic = np.clip(rng.normal(0.01, 0.004, n), 0.0, 0.25)
            busy = np.clip(rng.normal(busy_mean, 0.08, n), 0.02, 0.98)
            busy = np.minimum(busy, 1.0 - ic)
            batch[name] = (speed, busy * period, ic * period)
        periods.append(batch)
    return clusters, periods


def _prepare_grid_monitoring_period() -> Callable[[], object]:
    """The SoA path: one ``ingest_arrays`` per cluster, one vector fold."""
    import itertools

    import numpy as np

    from ..core.streaming import StreamingDecisionState
    from .largegrid import LARGE_GRID_POLICY

    clusters, periods = grid_period_inputs()
    period_seconds = {
        name: np.full(len(nodes), 60.0) for name, nodes in clusters
    }
    state = StreamingDecisionState()
    grid = state.grid
    slots = {
        name: np.fromiter(
            (grid.ensure(n, name) for n in nodes),
            dtype=np.intp,
            count=len(nodes),
        )
        for name, nodes in clusters
    }
    order = [n for _, nodes in clusters for n in nodes]
    version = itertools.count()

    def run() -> list:
        decisions = []
        for p, batch in enumerate(periods):
            for name, (speed, busy, comm_inter) in batch.items():
                grid.ingest_arrays(
                    slots[name],
                    speed=speed,
                    busy=busy,
                    comm_inter=comm_inter,
                    period_seconds=period_seconds[name],
                    period_index=float(p),
                )
            state.sync(next(version), lambda: order)
            state.weighted_wae()
            decisions.append(state.decide((), LARGE_GRID_POLICY))
        return decisions

    return run


def _prepare_grid_monitoring_period_scalar() -> Callable[[], object]:
    """The retained scalar spec folding the identical periods.

    Per node: one ``NodeReport`` ingest (scalar validation + stores),
    then the pure-Python ``fold_scalar`` and the batch policy over
    ``NodeView`` tuples — node-at-a-time state, exactly what every
    monitoring period cost before the struct-of-arrays rebuild.
    """
    from ..core.gridstate import GridState
    from ..core.policy import AdaptationPolicy, GridSnapshot, NodeView
    from ..satin.accounting import NodeReport
    from .largegrid import LARGE_GRID_POLICY

    clusters, periods = grid_period_inputs()
    order = [n for _, nodes in clusters for n in nodes]
    # reports are pre-built: input generation stays untimed, per the
    # harness convention (this under-counts the scalar path's true cost)
    report_periods = []
    for p, batch in enumerate(periods):
        reports = []
        for name, nodes in clusters:
            speed, busy, comm_inter = batch[name]
            for i, node in enumerate(nodes):
                reports.append(
                    NodeReport(
                        worker=node,
                        cluster=name,
                        period_index=p,
                        sent_at=60.0 * (p + 1),
                        period_seconds=60.0,
                        busy=float(busy[i]),
                        idle=0.0,
                        comm_intra=0.0,
                        comm_inter=float(comm_inter[i]),
                        bench=0.0,
                        speed=float(speed[i]),
                    )
                )
        report_periods.append(reports)
    policy = AdaptationPolicy(LARGE_GRID_POLICY)
    grid = GridState()

    def run() -> list:
        decisions = []
        for p, reports in enumerate(report_periods):
            for report in reports:
                grid.ingest(report)
            fold = grid.fold_scalar(order)
            views = tuple(
                NodeView(
                    name=fold.order[i],
                    cluster=fold.cluster_of[i],
                    speed=float(fold.speed[i]),
                    overhead=float(fold.overhead[i]),
                    ic_overhead=float(fold.ic[i]),
                )
                for i in range(len(fold.order))
            )
            snap = GridSnapshot(time=60.0 * (p + 1), nodes=views)
            snap.wae()
            decisions.append(policy.decide(snap, ()))
        return decisions

    return run


def _prepare_coordinator_decide() -> Callable[[], object]:
    from ..core.policy import PolicyConfig
    from ..core.streaming import StreamingDecisionState

    names, initial, periods = coordinator_stream_inputs()
    cfg = PolicyConfig()
    state = StreamingDecisionState()
    for report in initial:
        state.observe(report)
    state.sync(0, lambda: names)  # initial O(n) fold happens untimed

    def run() -> list:
        decisions = []
        for batch in periods:
            for report in batch:
                state.observe(report)
            state.sync(0, lambda: names)
            state.weighted_wae()
            decisions.append(state.decide((), cfg))
        return decisions

    return run


def _prepare_coordinator_decide_batch() -> Callable[[], object]:
    from ..core.policy import (
        AdaptationPolicy,
        GridSnapshot,
        NodeView,
        PolicyConfig,
    )

    names, initial, periods = coordinator_stream_inputs()
    policy = AdaptationPolicy(PolicyConfig())
    latest = {r.worker: r for r in initial}

    def run() -> list:
        decisions = []
        for p, batch in enumerate(periods):
            for report in batch:
                latest[report.worker] = report
            # the batch spec's per-period work: materialize the full
            # snapshot and re-fold everything from scratch
            views = tuple(
                NodeView(
                    name=name,
                    cluster=r.cluster,
                    speed=r.speed,
                    overhead=r.overhead,
                    ic_overhead=r.ic_overhead,
                )
                for name in names
                for r in (latest[name],)
            )
            snap = GridSnapshot(time=60.0 * (p + 1), nodes=views)
            snap.wae()
            decisions.append(policy.decide(snap, ()))
        return decisions

    return run


def _prepare_scenario_e2e() -> Callable[[], object]:
    from .runner import run_scenario

    spec = scenario_e2e_spec()
    return lambda: run_scenario(spec, "adapt", seed=0)


class _TinySweepFactory:
    """Picklable app factory for the sweep pair's tiny jobs.

    A module-level class (not a lambda) because the warm/cold pool
    workloads ship the spec to spawn workers, and pickling resolves the
    factory by reference.
    """

    def __call__(self):
        from ..apps.dctree import SyntheticIterativeApp, balanced_tree

        return SyntheticIterativeApp(
            balanced_tree(depth=4, fanout=2, leaf_work=0.05), n_iterations=2
        )


class _MiniCacheFactory:
    """Picklable app factory for the cache pair's mid-size jobs."""

    def __call__(self):
        from ..apps.dctree import SyntheticIterativeApp, balanced_tree

        return SyntheticIterativeApp(
            balanced_tree(depth=6, fanout=2, leaf_work=0.15), n_iterations=5
        )


def sweep_job_inputs() -> list:
    """The 32-job batch both sweep workloads run: tiny scenarios.

    One ~2 ms scenario (two clusters × two nodes, 16-leaf tree, two
    iterations) across 32 seeds: small enough that per-batch pool spawn
    dominates the cold path — exactly the regime the warm pool exists
    for (many short jobs amortizing one spawn).
    """
    from .scenarios import ScenarioSpec, scaled_das2

    spec = ScenarioSpec(
        id="bench_sweep",
        paper_ref="microbench",
        description="tiny sweep job for the warm/cold pool pair",
        grid=scaled_das2(nodes_per_cluster=2, clusters=2),
        initial_layout=(("vu", 2),),
        app_factory=_TinySweepFactory(),
        monitoring_period=10.0,
        max_sim_time=600.0,
    )
    return [(spec, "none", seed) for seed in range(32)]


def cache_requery_inputs() -> list:
    """The 6 jobs the cache pair re-queries: ~45 ms full scenarios.

    The same shape as ``scenario_e2e`` (three clusters, adaptation on)
    across six seeds, so the uncached side weighs every subsystem like
    a real run while the cached side answers from key + lookup alone.
    """
    from ..serving.service import SweepJob
    from .scenarios import ScenarioSpec, scaled_das2

    spec = ScenarioSpec(
        id="bench_cache",
        paper_ref="microbench",
        description="mid-size job for the cache re-query pair",
        grid=scaled_das2(nodes_per_cluster=4, clusters=3),
        initial_layout=(("vu", 4), ("uva", 4)),
        app_factory=_MiniCacheFactory(),
        monitoring_period=10.0,
        max_sim_time=1200.0,
    )
    return [SweepJob(spec, "adapt", seed) for seed in range(6)]


def _prepare_sweep_warm_pool() -> Callable[[], object]:
    """32 tiny jobs through an already-warm 2-worker pool.

    The pool spawns (and pays its interpreter/import cost) in prepare,
    untimed, plus one warm-up batch so worker-side module imports are
    done; the timed call is dispatch + simulate + collect only.
    """
    from ..serving.pool import WarmPool
    from .runner import _RUN_JOB_PATH

    jobs = sweep_job_inputs()
    pool = WarmPool(2).start()
    pool.map(_RUN_JOB_PATH, jobs[:2])  # worker-side imports, untimed

    def run() -> int:
        return len(pool.map(_RUN_JOB_PATH, jobs))

    return run


def _prepare_sweep_cold_spawn() -> Callable[[], object]:
    """The identical 32 jobs with a fresh pool spawned per batch.

    What every batch cost before the serving layer: two process spawns,
    two interpreter starts, two full package imports — then the same
    simulations. The pair's ratio is the warm pool's amortization win.
    """
    from ..serving.pool import WarmPool
    from .runner import _RUN_JOB_PATH

    jobs = sweep_job_inputs()

    def run() -> int:
        with WarmPool(2) as pool:
            return len(pool.map(_RUN_JOB_PATH, jobs))

    return run


def _prepare_cache_requery() -> Callable[[], object]:
    """6 jobs re-queried from a warmed content-addressed cache.

    The service runs inline (no pool) with an in-memory cache filled in
    prepare; every timed query derives the content key and returns the
    stored summary — the serving layer's hot path for repeated sweeps.
    """
    from ..serving.cache import ResultCache
    from ..serving.service import SimulationService

    jobs = cache_requery_inputs()
    service = SimulationService(n_workers=0, cache=ResultCache())
    service.sweep(jobs)  # fill the cache, untimed

    def run() -> int:
        results = service.sweep(jobs)
        if not all(r.cache_hit for r in results):  # pragma: no cover
            raise RuntimeError("cache_requery expected all hits")
        return len(results)

    return run


def _prepare_cache_requery_uncached() -> Callable[[], object]:
    """The identical 6 jobs simulated from scratch (cache disabled)."""
    from ..serving.service import SimulationService

    jobs = cache_requery_inputs()
    service = SimulationService(n_workers=0, cache=None)

    def run() -> int:
        return len(service.sweep(jobs))

    return run


def _prepare_engine() -> Callable[[], object]:
    return engine_timeout_churn


def _prepare_store() -> Callable[[], object]:
    return store_pingpong


def _prepare_worksteal() -> Callable[[], object]:
    return worksteal_run


def _prepare_octree() -> Callable[[], object]:
    # build_flat_octree is what the production iteration loop calls;
    # build_octree (flat build + lazy OctreeNode view) is the test path.
    from ..apps.flatoctree import build_flat_octree

    pos, mass = octree_inputs()
    return lambda: build_flat_octree(pos, mass, 16)


def _prepare_traversal() -> Callable[[], object]:
    from ..apps.barneshut import interaction_counts
    from ..apps.flatoctree import build_flat_octree

    pos, mass = octree_inputs()
    tree = build_flat_octree(pos, mass, 16)
    return lambda: interaction_counts(tree, pos, mass, 0.5)


def _prepare_traversal_flat() -> Callable[[], object]:
    import numpy as np

    from ..apps.barneshut import bh_accelerations, plummer_sphere
    from ..apps.flatoctree import build_flat_octree

    # 1024 bodies: the force path touches every (leaf-member, body) pair,
    # so 2048 would run ~200 ms per call — too coarse for a microbench.
    rng = np.random.default_rng(0)
    pos, _, mass = plummer_sphere(1024, rng)
    tree = build_flat_octree(pos, mass, 16)
    return lambda: bh_accelerations(tree, pos, mass, 0.5)


def _prepare_leaf_batch() -> Callable[[], object]:
    import numpy as np

    from ..apps.flatoctree import _leaf_batch, build_flat_octree

    pos, mass = octree_inputs()
    tree = build_flat_octree(pos, mass, 16)
    posx = np.ascontiguousarray(pos[:, 0])
    posy = np.ascontiguousarray(pos[:, 1])
    posz = np.ascontiguousarray(pos[:, 2])
    # synthetic frontier: every leaf paired with the same 128 bodies —
    # the batch shape (many small member lists, shared targets) matches
    # what the traversal kernel feeds the leaf stage
    leaves = np.flatnonzero(tree.is_leaf)
    targets = np.arange(128, dtype=np.intp)
    leaf_ids = np.repeat(leaves, targets.size)
    body_ids = np.tile(targets, leaves.size)
    return lambda: _leaf_batch(
        tree, posx, posy, posz, mass, leaf_ids, body_ids, 1e-6
    )


@dataclass(frozen=True)
class Workload:
    """One named hot-path measurement.

    ``prepare`` does the untimed setup (building inputs) and returns the
    zero-argument callable that gets timed.
    """

    name: str
    description: str
    prepare: Callable[[], Callable[[], object]]


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "engine_timeouts",
        "events/s of the bare DES engine (timeout churn)",
        _prepare_engine,
    ),
    Workload(
        "store_pingpong",
        "producer/consumer messaging rate through a Store",
        _prepare_store,
    ),
    Workload(
        "worksteal",
        "tasks/s through the full runtime + network stack",
        _prepare_worksteal,
    ),
    Workload(
        "octree_build",
        "flat Barnes-Hut octree construction, 2048 bodies",
        _prepare_octree,
    ),
    Workload(
        "traversal",
        "Barnes-Hut interaction counts (frontier-batched flat kernel)",
        _prepare_traversal,
    ),
    Workload(
        "traversal_flat",
        "flat frontier kernel incl. force accumulation, 1024 bodies",
        _prepare_traversal_flat,
    ),
    Workload(
        "leaf_batch",
        "batched leaf-body interaction micro-kernel",
        _prepare_leaf_batch,
    ),
    Workload(
        "coordinator_decide",
        "streaming decision path, 10k nodes, 12 periods, 1% churn",
        _prepare_coordinator_decide,
    ),
    Workload(
        "coordinator_decide_batch",
        "batch-spec decision path on the same 10k-node stream",
        _prepare_coordinator_decide_batch,
    ),
    Workload(
        "grid_monitoring_period",
        "SoA monitoring periods: vector ingest + fold + decide, 10k nodes",
        _prepare_grid_monitoring_period,
    ),
    Workload(
        "grid_monitoring_period_scalar",
        "scalar-spec monitoring periods on the identical 10k-node stream",
        _prepare_grid_monitoring_period_scalar,
    ),
    Workload(
        "sweep_warm_pool",
        "32-job tiny-scenario sweep through an already-warm 2-worker pool",
        _prepare_sweep_warm_pool,
    ),
    Workload(
        "sweep_cold_spawn",
        "the identical 32-job sweep spawning a fresh pool per batch",
        _prepare_sweep_cold_spawn,
    ),
    Workload(
        "cache_requery",
        "6 jobs re-queried from a warm content-addressed result cache",
        _prepare_cache_requery,
    ),
    Workload(
        "cache_requery_uncached",
        "the identical 6 jobs simulated fresh with the cache disabled",
        _prepare_cache_requery_uncached,
    ),
    Workload(
        "scenario_e2e",
        "full small scenario end-to-end through run_scenario (adapt)",
        _prepare_scenario_e2e,
    ),
)

_BY_NAME = {w.name: w for w in WORKLOADS}

#: default --interleave pairs: (candidate, baseline) folding one stream.
INTERLEAVE_PAIRS: tuple[tuple[str, str], ...] = (
    ("grid_monitoring_period", "grid_monitoring_period_scalar"),
    ("coordinator_decide", "coordinator_decide_batch"),
    ("sweep_warm_pool", "sweep_cold_spawn"),
    ("cache_requery", "cache_requery_uncached"),
)


def _timed_samples(fn: Callable[[], object], repeats: int) -> list[float]:
    """One warm-up, then ``repeats`` timed single calls (ms each).

    GC pauses landing inside a single timed call are the dominant noise
    source at this scale; collect between, not during, repetitions
    (pytest-benchmark's protocol).
    """
    fn()  # warm-up: JIT-free Python, but fills caches/allocators
    samples = []
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1000.0)
            if gc_was_enabled:
                gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
    return samples


def run_bench(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    baseline: Optional[dict] = None,
) -> dict:
    """Run the selected workloads and return the results document."""
    if names:
        unknown = sorted(set(names) - set(_BY_NAME))
        if unknown:
            raise KeyError(
                f"unknown workload(s) {', '.join(unknown)}; "
                f"known: {', '.join(_BY_NAME)}"
            )
        selected = [_BY_NAME[n] for n in names]
    else:
        selected = list(WORKLOADS)
    if repeats is None:
        repeats = 7 if quick else 25

    base_rows = (baseline or {}).get("benchmarks", {})
    base_canary = (baseline or {}).get("canary_median_ms")
    canary_ms = round(median(_timed_samples(canary_run, repeats)), 4)
    # > 1 means this session runs slower than the baseline's session;
    # multiplying raw speedups by it removes the machine drift.
    drift = canary_ms / base_canary if base_canary else None
    rows: dict[str, dict] = {}
    for workload in selected:
        fn = workload.prepare()
        samples = _timed_samples(fn, repeats)
        row = {
            "median_ms": round(median(samples), 4),
            "min_ms": round(min(samples), 4),
            "description": workload.description,
        }
        base = base_rows.get(workload.name)
        if base is not None:
            before = base.get("median_ms")
            if before is not None:
                row["baseline_median_ms"] = before
                row["speedup"] = round(before / row["median_ms"], 3)
                if drift is not None:
                    row["speedup_normalized"] = round(
                        row["speedup"] * drift, 3
                    )
        rows[workload.name] = row

    return {
        "_schema": (
            "repro bench results: benchmarks[name].median_ms is the median "
            "of `repeats` timed calls (ms) after one warm-up; "
            "baseline_median_ms/speedup appear when a --baseline file was "
            "given (speedup = baseline/current). canary_median_ms is a "
            "fixed pure-python workload measuring the session's machine "
            "speed; speedup_normalized = speedup * (canary/baseline "
            "canary) corrects cross-session drift. See "
            "repro/experiments/microbench.py for the full schema and the "
            "timing protocol."
        ),
        "quick": quick,
        "repeats": repeats,
        "canary_median_ms": canary_ms,
        "benchmarks": rows,
    }


def run_interleaved(
    pairs: Sequence[tuple[str, str]],
    repeats: int = 25,
) -> dict[str, dict]:
    """A/B pairs timed alternately within one session.

    For each ``(candidate, baseline)`` pair the two callables are timed
    strictly alternately, sample by sample (cand, base, cand, base, …),
    so slow machine drift lands symmetrically on both sides and the
    speedup ratio is unbiased — the measurement the cross-session canary
    can only approximate. Returns rows keyed ``"<cand>_vs_<base>"``.
    """
    rows: dict[str, dict] = {}
    for cand_name, base_name in pairs:
        unknown = sorted({cand_name, base_name} - set(_BY_NAME))
        if unknown:
            raise KeyError(
                f"unknown workload(s) {', '.join(unknown)}; "
                f"known: {', '.join(_BY_NAME)}"
            )
        cand_fn = _BY_NAME[cand_name].prepare()
        base_fn = _BY_NAME[base_name].prepare()
        cand_fn()  # warm-up both sides before any timed sample
        base_fn()
        cand_samples: list[float] = []
        base_samples: list[float] = []
        gc_was_enabled = gc.isenabled()
        try:
            for _ in range(repeats):
                for fn, samples in (
                    (cand_fn, cand_samples),
                    (base_fn, base_samples),
                ):
                    gc.collect()
                    gc.disable()
                    t0 = time.perf_counter()
                    fn()
                    samples.append((time.perf_counter() - t0) * 1000.0)
                    if gc_was_enabled:
                        gc.enable()
        finally:
            if gc_was_enabled:
                gc.enable()
        cand_ms = round(median(cand_samples), 4)
        base_ms = round(median(base_samples), 4)
        rows[f"{cand_name}_vs_{base_name}"] = {
            "candidate": cand_name,
            "baseline": base_name,
            "candidate_median_ms": cand_ms,
            "baseline_median_ms": base_ms,
            "speedup": round(base_ms / cand_ms, 3),
            "repeats": repeats,
        }
    return rows


def check_against_baseline(results: dict, gate: float) -> list[str]:
    """Regression check: current median must stay under gate × baseline.

    Returns the list of violation messages (empty = pass). Workloads
    without a baseline row are skipped — a new benchmark can't regress.
    """
    violations = []
    for name, row in results["benchmarks"].items():
        before = row.get("baseline_median_ms")
        if before is None:
            continue
        if row["median_ms"] > gate * before:
            violations.append(
                f"{name}: {row['median_ms']:.2f} ms exceeds "
                f"{gate:g}x baseline ({before:.2f} ms)"
            )
    return violations


def format_bench(results: dict) -> str:
    """Human-readable table of a results document."""
    rows = results["benchmarks"]
    name_w = max(len(n) for n in rows)
    lines = [
        f"{'workload':<{name_w}} {'median':>10} {'min':>10}"
        "  speedup  normalized"
    ]
    for name, row in rows.items():
        speed = (
            f"{row['speedup']:.2f}x" if "speedup" in row else "-"
        )
        norm = (
            f"{row['speedup_normalized']:.2f}x"
            if "speedup_normalized" in row else "-"
        )
        lines.append(
            f"{name:<{name_w}} {row['median_ms']:>8.2f}ms "
            f"{row['min_ms']:>8.2f}ms  {speed:>7}  {norm:>10}"
        )
    interleaved = results.get("interleaved")
    if interleaved:
        lines.append("interleaved A/B (same-session, drift-free):")
        for row in interleaved.values():
            lines.append(
                f"  {row['candidate']} {row['candidate_median_ms']:.2f}ms"
                f" vs {row['baseline']} {row['baseline_median_ms']:.2f}ms"
                f"  -> {row['speedup']:.2f}x"
            )
    canary = results.get("canary_median_ms")
    if canary is not None:
        lines.append(f"(machine canary: {canary:.2f} ms)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.experiments.microbench``).

    ``repro bench`` wraps this; the standalone form exists so the harness
    can be pointed at an older checkout to take "before" numbers.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="repro bench")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI smoke mode)")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--only", default=None,
                        help="comma-separated workload names")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the results document as JSON")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="previous results JSON to compare against")
    parser.add_argument("--gate", type=float, default=None,
                        help="fail (exit 1) if any workload exceeds "
                             "GATE x its baseline median")
    parser.add_argument(
        "--interleave", nargs="?", const="default", default=None,
        metavar="CAND:BASE,...",
        help="also time A/B pairs alternately within this session "
             "(drift-free speedups); with no value, runs the default "
             "pairs: " + ", ".join(f"{c}:{b}" for c, b in INTERLEAVE_PAIRS),
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.baseline is not None:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    names = (
        [n.strip() for n in args.only.split(",") if n.strip()]
        if args.only else None
    )
    pairs: Optional[list[tuple[str, str]]] = None
    if args.interleave is not None:
        if args.interleave == "default":
            pairs = list(INTERLEAVE_PAIRS)
        else:
            pairs = []
            for token in args.interleave.split(","):
                token = token.strip()
                if not token:
                    continue
                cand, sep, base = token.partition(":")
                if not sep or not cand or not base:
                    raise SystemExit(
                        f"repro bench: --interleave pair {token!r} must be "
                        "CANDIDATE:BASELINE"
                    )
                pairs.append((cand, base))
            if not pairs:
                raise SystemExit("repro bench: --interleave got no pairs")
        # validate up front: a typo must not cost a full bench run first
        unknown = sorted(
            {name for pair in pairs for name in pair} - set(_BY_NAME)
        )
        if unknown:
            raise SystemExit(
                f"repro bench: unknown workload(s) {', '.join(unknown)}; "
                f"known: {', '.join(_BY_NAME)}"
            )
    try:
        results = run_bench(
            names=names, quick=args.quick, repeats=args.repeats,
            baseline=baseline,
        )
        if pairs is not None:
            results["interleaved"] = run_interleaved(
                pairs, repeats=results["repeats"]
            )
    except KeyError as exc:
        raise SystemExit(f"repro bench: {exc.args[0]}") from None
    print(format_bench(results))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.gate is not None:
        if baseline is None:
            raise SystemExit("repro bench: --gate requires --baseline")
        violations = check_against_baseline(results, args.gate)
        for v in violations:
            print(f"REGRESSION: {v}")
        if violations:
            return 1
        print(f"gate ok: all workloads within {args.gate:g}x of baseline")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
