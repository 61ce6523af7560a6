"""Network model: LAN/WAN latencies, bandwidths, and uplink contention.

The model follows the paper's resource assumptions:

* **intra-cluster** transfers use the site's LAN — low latency, high
  bandwidth, and (being a switched LAN) no modelled contention;
* **inter-cluster** transfers traverse ``source uplink → backbone →
  destination uplink``. The achievable bandwidth is the minimum along the
  path, and each cluster uplink is a *serialised directional resource*:
  while one transfer's bytes occupy the up-direction of a link, later
  transfers queue behind it. This is what turns a throttled uplink
  (scenario 4) into the paper's observable — wildly varying transfer, and
  hence iteration, times.

Uplink bandwidth is mutable at runtime (:meth:`Network.set_uplink_bandwidth`)
so scripted events can throttle or restore a site's connectivity mid-run.

All ``transfer`` methods are *generators* meant to be driven from within a
simulated process via ``yield from``; the calling process is blocked for
the duration of the transfer, which is exactly how the time is attributed
to that worker's communication overhead.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .engine import Environment, Event
from .queues import Resource, Store
from .resources import GridSpec, Host

__all__ = ["Network", "conservative_lookahead"]


def conservative_lookahead(grid: GridSpec) -> float:
    """The PDES-safe lookahead window of ``grid``: the minimum time any
    message needs to cross between two clusters.

    An inter-cluster message pays ``source uplink latency + backbone
    latency + destination uplink latency`` before its first byte lands,
    so no cluster can influence another sooner than the smallest such
    path. A sharded execution that exchanges cross-cluster traffic only
    at barriers spaced at most this far apart is *conservative*: it can
    never miss a causal dependency, and seeded runs stay byte-identical
    to the unsharded schedule. (The ``large_grid`` scenario's barrier is
    the monitoring period — orders of magnitude wider than this bound —
    because its clusters interact solely through per-period reports and
    coordinator commands.)
    """
    uplinks = sorted(c.uplink_latency for c in grid.clusters)
    if len(uplinks) < 2:
        return float("inf")
    return uplinks[0] + grid.backbone_latency + uplinks[1]


class _Uplink:
    """Mutable state of one cluster's link to the backbone."""

    __slots__ = ("bandwidth", "latency", "outbound", "inbound")

    def __init__(self, env: Environment, bandwidth: float, latency: float) -> None:
        self.bandwidth = bandwidth
        self.latency = latency
        # Directional serialisation: concurrent transfers in the same
        # direction queue; opposite directions do not interfere.
        self.outbound = Resource(env, capacity=1)
        self.inbound = Resource(env, capacity=1)


class Network:
    """The grid's communication fabric.

    Owns the :class:`~repro.simgrid.resources.Host` runtime objects (one per
    node in the :class:`~repro.simgrid.resources.GridSpec`) so that
    schedulers, the runtime, and scripted events all share one view of node
    state.
    """

    def __init__(self, env: Environment, grid: GridSpec) -> None:
        self.env = env
        self.grid = grid
        self.hosts: dict[str, Host] = {
            n.name: Host(n) for n in grid.iter_nodes()
        }
        self._uplinks: dict[str, _Uplink] = {
            c.name: _Uplink(env, c.uplink_bandwidth, c.uplink_latency)
            for c in grid.clusters
        }
        # Flat lookup tables for the transfer fast path: host → cluster and
        # cluster → immutable LAN parameters (cluster membership and LAN
        # specs never change at runtime; only uplink bandwidth is mutable).
        self._host_cluster: dict[str, str] = {
            name: h.cluster for name, h in self.hosts.items()
        }
        self._lan: dict[str, tuple[float, float]] = {
            c.name: (c.lan_latency, c.lan_bandwidth) for c in grid.clusters
        }
        #: cumulative (bytes, seconds) per ordered cluster pair, for the
        #: bandwidth estimation the coordinator uses when learning
        #: minimum-bandwidth requirements.
        self._pair_bytes: dict[tuple[str, str], float] = {}
        self._pair_seconds: dict[tuple[str, str], float] = {}
        #: optional hook ``(src_cluster, dst_cluster, nbytes, elapsed, t)``
        #: fired on every completed inter-cluster transfer (used by
        #: :class:`repro.core.bwestimator.BandwidthEstimator`).
        self.transfer_observer = None

    # -- host helpers ------------------------------------------------------
    def host(self, name: str) -> Host:
        return self.hosts[name]

    def hosts_in_cluster(self, cluster: str) -> list[Host]:
        return [h for h in self.hosts.values() if h.cluster == cluster]

    # -- static path properties ---------------------------------------------
    def same_cluster(self, a: str, b: str) -> bool:
        return self.hosts[a].cluster == self.hosts[b].cluster

    def latency(self, a: str, b: str) -> float:
        """One-way propagation latency between hosts ``a`` and ``b``."""
        ha, hb = self.hosts[a], self.hosts[b]
        if ha.cluster == hb.cluster:
            return self.grid.cluster(ha.cluster).lan_latency
        return (
            self._uplinks[ha.cluster].latency
            + self.grid.backbone_latency
            + self._uplinks[hb.cluster].latency
        )

    def bandwidth(self, a: str, b: str) -> float:
        """Path bandwidth (bytes/s) from host ``a`` to host ``b``, ignoring
        contention (the min-capacity along the path)."""
        ha, hb = self.hosts[a], self.hosts[b]
        if ha.cluster == hb.cluster:
            return self.grid.cluster(ha.cluster).lan_bandwidth
        return min(
            self._uplinks[ha.cluster].bandwidth,
            self.grid.backbone_bandwidth,
            self._uplinks[hb.cluster].bandwidth,
        )

    def uplink_bandwidth(self, cluster: str) -> float:
        return self._uplinks[cluster].bandwidth

    def set_uplink_bandwidth(self, cluster: str, bandwidth: float) -> None:
        """Throttle or restore a site's uplink (scenario 4's traffic shaping)."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        if cluster not in self._uplinks:
            raise KeyError(f"no cluster named {cluster!r}")
        self._uplinks[cluster].bandwidth = bandwidth

    # -- transfers -----------------------------------------------------------
    def transfer(
        self, src: str, dst: str, nbytes: float
    ) -> Generator[Event, Any, float]:
        """Move ``nbytes`` from host ``src`` to host ``dst``.

        Drive with ``duration = yield from net.transfer(...)`` inside a
        process. Blocks the caller for queuing + serialisation + latency
        and returns the total elapsed simulated time.

        The transfer is interrupt-safe: if the driving process is
        interrupted (crash, leave), any queued or held uplink capacity is
        relinquished.
        """
        if nbytes < 0:
            raise ValueError(f"cannot transfer negative bytes: {nbytes}")
        env = self.env
        t0 = env.now
        hc = self._host_cluster
        ca, cb = hc[src], hc[dst]

        if ca == cb:
            lan_latency, lan_bandwidth = self._lan[ca]
            # Pooled sleep: yielded immediately, never retained — the
            # dominant LAN case allocates no event object in steady state.
            yield env.sleep(lan_latency + nbytes / lan_bandwidth)
            return env.now - t0

        up, down = self._uplinks[ca], self._uplinks[cb]
        outbound, inbound = up.outbound, down.inbound
        # With both units free and nothing else due this instant, the two
        # grants would be the next two dispatches: take the units directly.
        inline = (
            outbound.in_use < outbound.capacity
            and inbound.in_use < inbound.capacity
            and env.owns_instant()
        )
        if inline:
            outbound.acquire()
            inbound.acquire()
        req_out = req_in = None
        try:
            if not inline:
                req_out = outbound.request()
                yield req_out
                req_in = inbound.request()
                yield req_in
            # Bandwidth is evaluated at serialisation start: a throttle that
            # lands mid-transfer affects the *next* transfer, which is a
            # fine approximation at our message sizes.
            path_bw = min(up.bandwidth, self.grid.backbone_bandwidth, down.bandwidth)
            yield env.sleep(nbytes / path_bw)
        finally:
            if inline:
                inbound.release_unit()
                outbound.release_unit()
            if req_in is not None:
                req_in.cancel()
            if req_out is not None:
                req_out.cancel()
        yield env.sleep(
            up.latency + self.grid.backbone_latency + down.latency
        )
        elapsed = env.now - t0
        key = (ca, cb)
        self._pair_bytes[key] = self._pair_bytes.get(key, 0.0) + nbytes
        self._pair_seconds[key] = self._pair_seconds.get(key, 0.0) + elapsed
        if self.transfer_observer is not None:
            self.transfer_observer(ca, cb, nbytes, elapsed, env.now)
        return elapsed

    def send(self, src: str, dst_mailbox: Store, nbytes: float, payload: Any) -> None:
        """Fire-and-forget message: transfer, then deposit ``payload``.

        The ``dst_mailbox`` store must belong to a host process; the sender
        is *not* blocked (a background process performs the transfer). Used
        for control messages such as statistics reports and leave signals.
        """
        dst = getattr(dst_mailbox, "owner", None)
        if dst is None:
            raise ValueError("send() requires a mailbox with an .owner host name")

        def _deliver() -> Generator[Event, Any, None]:
            yield from self.transfer(src, dst, nbytes)
            dst_mailbox.put(payload)

        self.env.process(_deliver(), name=f"send:{src}->{dst}")

    # -- measured bandwidth ----------------------------------------------------
    def observed_bandwidth(self, src_cluster: str, dst_cluster: str) -> Optional[float]:
        """Mean achieved bytes/s between two clusters over the whole run.

        This is the measurement the paper uses to tighten the learned
        minimum-bandwidth requirement when a badly connected cluster is
        removed. ``None`` if no inter-cluster traffic was observed.
        """
        key = (src_cluster, dst_cluster)
        secs = self._pair_seconds.get(key, 0.0)
        if secs <= 0:
            return None
        return self._pair_bytes[key] / secs
