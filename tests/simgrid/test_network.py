"""Unit tests for the network model."""

import pytest

from repro.simgrid.engine import Environment
from repro.simgrid.network import Network
from repro.simgrid.queues import Store
from repro.simgrid.resources import ClusterSpec, GridSpec, NodeSpec


def two_cluster_grid(
    lan_latency=1e-3,
    lan_bandwidth=1e6,
    uplink_latency=5e-3,
    uplink_bandwidth=1e5,
    backbone_bandwidth=1e7,
):
    def cluster(name):
        nodes = tuple(
            NodeSpec(name=f"{name}/n{i}", cluster=name) for i in range(2)
        )
        return ClusterSpec(
            name=name,
            nodes=nodes,
            lan_latency=lan_latency,
            lan_bandwidth=lan_bandwidth,
            uplink_latency=uplink_latency,
            uplink_bandwidth=uplink_bandwidth,
        )

    return GridSpec(
        clusters=(cluster("a"), cluster("b")),
        backbone_bandwidth=backbone_bandwidth,
    )


def run_transfer(net, src, dst, nbytes):
    results = {}

    def proc(env):
        dur = yield from net.transfer(src, dst, nbytes)
        results["duration"] = dur

    net.env.process(proc(net.env))
    net.env.run()
    return results["duration"]


def test_intra_cluster_transfer_time():
    env = Environment()
    net = Network(env, two_cluster_grid())
    dur = run_transfer(net, "a/n0", "a/n1", nbytes=1e6)
    # latency 1ms + 1e6 bytes / 1e6 B/s = 1.001 s
    assert dur == pytest.approx(1.001)


def test_inter_cluster_transfer_time():
    env = Environment()
    net = Network(env, two_cluster_grid())
    dur = run_transfer(net, "a/n0", "b/n0", nbytes=1e5)
    # serialisation 1e5/1e5 = 1s + latency 2*5ms = 1.01 s
    assert dur == pytest.approx(1.01)


def test_backbone_can_be_bottleneck():
    env = Environment()
    grid = two_cluster_grid(uplink_bandwidth=1e9, backbone_bandwidth=1e3)
    net = Network(env, grid)
    dur = run_transfer(net, "a/n0", "b/n0", nbytes=1e3)
    assert dur == pytest.approx(1.0 + 0.01)


def test_latency_lookup():
    env = Environment()
    net = Network(env, two_cluster_grid())
    assert net.latency("a/n0", "a/n1") == pytest.approx(1e-3)
    assert net.latency("a/n0", "b/n0") == pytest.approx(10e-3)


def test_bandwidth_lookup_and_throttle():
    env = Environment()
    net = Network(env, two_cluster_grid())
    assert net.bandwidth("a/n0", "b/n0") == pytest.approx(1e5)
    net.set_uplink_bandwidth("b", 1e3)
    assert net.bandwidth("a/n0", "b/n0") == pytest.approx(1e3)
    assert net.bandwidth("a/n0", "a/n1") == pytest.approx(1e6)  # LAN unaffected


def test_throttle_validation():
    env = Environment()
    net = Network(env, two_cluster_grid())
    with pytest.raises(ValueError):
        net.set_uplink_bandwidth("a", 0.0)
    with pytest.raises(KeyError):
        net.set_uplink_bandwidth("zz", 1.0)


def test_uplink_contention_serialises_same_direction():
    env = Environment()
    net = Network(env, two_cluster_grid())
    finish = {}

    def proc(env, tag, delay):
        if delay:
            yield env.timeout(delay)
        yield from net.transfer("a/n0", "b/n0", nbytes=1e5)  # 1 s serialisation
        finish[tag] = env.now

    env.process(proc(env, "t1", 0.0))
    env.process(proc(env, "t2", 0.0))
    env.run()
    # Second transfer queues behind the first: ~2 s serialisation total.
    assert finish["t1"] == pytest.approx(1.01)
    assert finish["t2"] == pytest.approx(2.01)


def test_free_uplinks_are_taken_without_grant_events():
    """A transfer that owns the instant takes both free uplink units
    directly; one that arrives while the link is busy queues as before.
    Both release their units when done."""
    env = Environment()
    net = Network(env, two_cluster_grid())
    finish = {}

    def proc(env, tag, delay):
        yield env.timeout(delay)
        yield from net.transfer("a/n0", "b/n0", nbytes=1e5)  # 1 s serialisation
        finish[tag] = env.now

    env.process(proc(env, "first", 0.5))
    env.process(proc(env, "queued", 1.0))
    env.run()
    assert finish["first"] == pytest.approx(1.51)
    assert finish["queued"] == pytest.approx(2.51)
    # Only the first transfer's two grants were inlined (plus the two
    # waiter-less completions); the queued one was granted by the heap.
    assert env.stats()["inlined"] == 4
    up = net._uplinks
    assert up["a"].outbound.in_use == 0 and up["b"].inbound.in_use == 0


def test_opposite_directions_do_not_contend():
    env = Environment()
    net = Network(env, two_cluster_grid())
    finish = {}

    def proc(env, tag, src, dst):
        yield from net.transfer(src, dst, nbytes=1e5)
        finish[tag] = env.now

    env.process(proc(env, "ab", "a/n0", "b/n0"))
    env.process(proc(env, "ba", "b/n0", "a/n0"))
    env.run()
    assert finish["ab"] == pytest.approx(1.01)
    assert finish["ba"] == pytest.approx(1.01)


def test_lan_transfers_do_not_contend():
    env = Environment()
    net = Network(env, two_cluster_grid())
    finish = {}

    def proc(env, tag):
        yield from net.transfer("a/n0", "a/n1", nbytes=1e6)
        finish[tag] = env.now

    env.process(proc(env, "t1"))
    env.process(proc(env, "t2"))
    env.run()
    assert finish["t1"] == pytest.approx(1.001)
    assert finish["t2"] == pytest.approx(1.001)


def test_negative_bytes_rejected():
    env = Environment()
    net = Network(env, two_cluster_grid())

    def proc(env):
        yield from net.transfer("a/n0", "b/n0", -5)

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()


def test_send_delivers_payload_to_mailbox():
    env = Environment()
    net = Network(env, two_cluster_grid())
    mailbox = Store(env, owner="b/n0")
    got = {}

    def receiver(env):
        msg = yield mailbox.get()
        got["msg"] = msg
        got["time"] = env.now

    env.process(receiver(env))
    net.send("a/n0", mailbox, nbytes=1e5, payload={"hello": 1})
    env.run()
    assert got["msg"] == {"hello": 1}
    assert got["time"] == pytest.approx(1.01)


def test_send_requires_owner():
    env = Environment()
    net = Network(env, two_cluster_grid())
    with pytest.raises(ValueError):
        net.send("a/n0", Store(env), nbytes=1, payload=None)


def test_observed_bandwidth_tracks_transfers():
    env = Environment()
    net = Network(env, two_cluster_grid())
    assert net.observed_bandwidth("a", "b") is None
    run_transfer(net, "a/n0", "b/n0", nbytes=1e5)
    bw = net.observed_bandwidth("a", "b")
    # ~1e5 bytes in ~1.01 s
    assert bw == pytest.approx(1e5 / 1.01, rel=1e-6)


def test_hosts_in_cluster():
    env = Environment()
    net = Network(env, two_cluster_grid())
    names = sorted(h.name for h in net.hosts_in_cluster("a"))
    assert names == ["a/n0", "a/n1"]
