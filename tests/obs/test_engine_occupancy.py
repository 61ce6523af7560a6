"""Engine occupancy counters through the observability layer.

The engine exposes ``scheduled`` / ``cancelled_tombstones`` / ``live``
in :meth:`Environment.stats`, and
:meth:`Observability.capture_engine` republishes every stats key as an
``engine_<name>`` gauge — so a tombstone leak (cancellations piling up
faster than pops surface them) is visible in metrics without touching
engine internals.
"""

from repro.obs import Observability
from repro.simgrid.engine import AnyOf, Environment


def _gauge(obs, name):
    return obs.metrics.gauge(name).value


def test_occupancy_counters_flow_through_obs():
    env = Environment()
    obs = Observability.enabled()

    # 10 timeouts scheduled, 3 cancelled while still queued.
    timeouts = [env.timeout(float(i + 1)) for i in range(10)]
    for t in timeouts[:3]:
        t.cancel()

    obs.capture_engine(env)
    assert _gauge(obs, "engine_scheduled") == 10.0
    assert _gauge(obs, "engine_queue_len") == 10.0  # tombstones still queued
    assert _gauge(obs, "engine_cancelled_tombstones") == 3.0
    assert _gauge(obs, "engine_live") == 7.0

    env.run()
    obs.capture_engine(env)
    # The pops surfaced and discarded every tombstone: the pending set is
    # empty, the cumulative cancellation count is unchanged.
    assert _gauge(obs, "engine_tombstones_pending") == 0.0
    assert _gauge(obs, "engine_cancelled_tombstones") == 3.0
    assert _gauge(obs, "engine_cancelled_skipped") == 3.0
    assert _gauge(obs, "engine_live") == 0.0
    assert _gauge(obs, "engine_events_processed") == 7.0


def test_tombstone_leak_is_observable():
    """A pathological workload that cancels far-future timeouts without
    ever draining them shows up as live << queue_len."""
    env = Environment()
    obs = Observability.enabled()
    for i in range(50):
        env.timeout(1e6 + i).cancel()
    env.timeout(1.0)
    obs.capture_engine(env)
    assert _gauge(obs, "engine_queue_len") == 51.0
    assert _gauge(obs, "engine_live") == 1.0
    assert _gauge(obs, "engine_cancelled_tombstones") == 50.0


def test_inlined_hops_are_counted_apart_from_dispatches():
    """Hops run inline (Environment.owns_instant) do not count as
    dispatched events; ``inlined`` counts them, and the two add up to
    the dispatches of the heap-only schedule."""
    env = Environment()
    obs = Observability.enabled()

    def idler(env):
        # The AnyOf's dispatch and the process's completion are each the
        # next event when they happen: both run inline.
        yield AnyOf(env, [env.timeout(1.0), env.timeout(2.0)])

    env.process(idler(env))
    env.run()
    obs.capture_engine(env)
    # Initialize, then the 1.0 and 2.0 timeouts.
    assert _gauge(obs, "engine_events_processed") == 3.0
    assert _gauge(obs, "engine_inlined") == 2.0
