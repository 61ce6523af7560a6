"""One way to build a wired simulation stack.

Historically every consumer — the experiment runner, the test suite, the
benchmarks — hand-assembled its own ``Environment`` + ``Network`` +
``Registry`` + ``RngStreams`` + ``SatinRuntime`` with slightly different
kwargs, so construction drift was a recurring source of "works in tests,
differs in experiments" bugs. :meth:`Harness.build` is the single
constructor they all share; the bundle keeps every layer reachable for
inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import RunConfig
from .obs import Observability
from .registry.registry import Registry
from .satin.runtime import SatinRuntime
from .satin.worker import WorkerConfig
from .simgrid.engine import Environment
from .simgrid.network import Network
from .simgrid.resources import ClusterSpec, GridSpec, NodeSpec
from .simgrid.rng import RngStreams
from .simgrid.trace import Trace

__all__ = ["Harness", "build_grid"]


def build_grid(
    cluster_sizes: tuple[int, ...] | list[int],
    speeds: Optional[dict[int, float]] = None,
    **link_kw,
) -> GridSpec:
    """GridSpec with clusters ``c0, c1, ...`` of the given sizes.

    ``speeds`` optionally maps cluster index → node speed (default 1.0);
    extra keyword arguments go to every :class:`ClusterSpec` (link
    bandwidth/latency overrides). For full control build the
    :class:`GridSpec` directly.
    """
    speeds = speeds or {}
    clusters = []
    for ci, size in enumerate(cluster_sizes):
        name = f"c{ci}"
        nodes = tuple(
            NodeSpec(f"{name}/n{i}", name, base_speed=speeds.get(ci, 1.0))
            for i in range(size)
        )
        clusters.append(ClusterSpec(name=name, nodes=nodes, **link_kw))
    return GridSpec(clusters=tuple(clusters))


@dataclass
class Harness:
    """Everything a wired simulation needs, one object per run."""

    env: Environment
    grid: GridSpec
    network: Network
    registry: Registry
    runtime: SatinRuntime
    rng: RngStreams
    obs: Observability
    #: the resolved configuration this stack was built from.
    run_config: Optional[RunConfig] = None

    @property
    def trace(self) -> Trace:
        return self.runtime.trace

    def all_node_names(self) -> list[str]:
        return [n.name for n in self.grid.iter_nodes()]

    def capture_engine_metrics(self) -> None:
        """Snapshot the engine's event-loop stats into the metrics registry."""
        self.obs.capture_engine(self.env)

    @classmethod
    def build(
        cls,
        spec: GridSpec,
        seed: int = 0,
        *,
        config: Optional[RunConfig] = None,
    ) -> "Harness":
        """Assemble a fresh, fully wired stack for ``spec``.

        Deterministic given ``seed``; no nodes are added — callers drive
        membership (``runtime.add_nodes``) themselves. How the stack is
        wired comes from one :class:`~repro.config.RunConfig`::

            Harness.build(spec, seed=1, config=RunConfig(profile=True))

        ``seed`` stays a direct parameter: it identifies the run, not the
        wiring, so seed sweeps share one config object.
        """
        if config is None:
            run = RunConfig()
        elif isinstance(config, RunConfig):
            run = config
        else:
            raise TypeError(
                f"config must be a RunConfig, got {type(config).__name__}"
            )
        env = Environment()
        network = Network(env, spec)
        registry = Registry(
            env,
            detection_delay=(
                run.detection_delay if run.detection_delay is not None else 1.0
            ),
        )
        rng = RngStreams(seed)
        obs_stack = run.obs
        if obs_stack is None:
            if run.profile:
                obs_stack = Observability.profiling()
            elif run.sinks:
                # streaming export needs a live bus
                obs_stack = Observability.enabled()
            else:
                obs_stack = Observability.disabled()
        for sink in run.sinks:
            obs_stack.bus.subscribe(sink.write)
        if obs_stack.attribution.enabled:
            obs_stack.attribution.watch(env)
        runtime = SatinRuntime(
            env=env,
            network=network,
            registry=registry,
            config=run.worker if run.worker is not None else WorkerConfig(),
            rng=rng,
            trace=run.trace,
            policy=run.steal,
            handoff=run.handoff,
            obs=obs_stack,
        )
        return cls(env, spec, network, registry, runtime, rng, obs_stack, run)
