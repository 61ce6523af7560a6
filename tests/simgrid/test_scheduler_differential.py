"""Hypothesis differential testing of the run loop against ``step()``.

Random op programs — schedule / cancel / same-deadline bursts / urgent
same-instant inserts landing among same-deadline events / wide floods /
inter-cluster transfers over free and contended uplinks / ``AnyOf``
waits / joins on a process completing in the same instant — are
replayed three ways on one engine: through ``env.run()`` (the inlined
hot loop), through ``env.run(until=t)`` in fixed-size chunks, and
through ``while env.peek() < inf: env.step()`` (the single-step
reference). Every replay must produce the identical dispatch sequence:
same callbacks, same firing times, same event count. This is the
contract the golden scenario summaries rest on, probed at the
scheduler-operation level instead of through whole scenarios.

The same programs are replayed once more with
:meth:`Environment.owns_instant` patched to return ``False``: every hop
then goes through the heap, which is the executable spec of the inline
hops. The trace must not change, and each inlined hop must account for
exactly one heap dispatch the spec makes.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.simgrid.engine import AnyOf, Environment, Interrupt
from repro.simgrid.network import Network
from repro.simgrid.resources import ClusterSpec, GridSpec, NodeSpec

INF = float("inf")

# Delays from a small grid plus awkward floats: exact ties (same-deadline
# events ordered by sequence number), jitter, and wide spreads.
_delay = st.one_of(
    st.sampled_from([0.0, 0.0625, 0.1, 0.25, 0.5, 1.0, 3.7, 40.0]),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False, width=32),
)

_op = st.one_of(
    # advance the driver clock
    st.tuples(st.just("sleep"), _delay),
    # one recorded timeout
    st.tuples(st.just("timeout"), _delay),
    # k same-deadline timeouts
    st.tuples(st.just("burst"), st.integers(2, 12), _delay),
    # cancel the j-th created timeout (may already have fired: a no-op)
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    # spawn a process (urgent Initialize at the current instant)
    st.tuples(st.just("spawn"), _delay),
    # k same-deadline timeouts whose middle callback spawns a process:
    # the urgent insert lands while that instant is dispatching
    # (preemption)
    st.tuples(st.just("chain_spawn"), st.integers(3, 8), _delay),
    # k timeouts spread over a span
    st.tuples(st.just("flood"), st.integers(30, 120), _delay),
    # one transfer (source host, destination host, bytes) started after a
    # delay: its uplink grants are free and taken at once, or queue
    # behind a transfer already holding the link
    st.tuples(
        st.just("transfer"), st.integers(0, 5), st.integers(0, 5),
        st.sampled_from([0.0, 10.0, 250.0, 1000.0]), _delay,
    ),
    # k transfers over one uplink pair started a gap apart: contended
    # grants (a zero gap starts them all in the same instant)
    st.tuples(
        st.just("contend"), st.integers(2, 5),
        st.sampled_from([10.0, 400.0]), st.sampled_from([0.0, 0.0625, 0.25]),
    ),
    # transfers from x and from z into y, the second a gap after the
    # first: its outbound is free but y's inbound may still be busy
    st.tuples(st.just("fanin"), st.sampled_from([10.0, 400.0]), _delay),
    # a transfer started after a delay and interrupted a further delay
    # later (it releases whatever it holds)
    st.tuples(st.just("cut"), st.sampled_from([100.0, 1000.0]), _delay, _delay),
    # a process waiting on AnyOf(timeout, wake), woken after a delay; the
    # wake-up may carry a second callback, registered after the AnyOf's
    st.tuples(st.just("anyof"), _delay, _delay, st.booleans()),
    # a child completing after a delay, joined by a process whose wake-up
    # is due in the same instant before or after the completion, or just
    # after it (attaching to an already-processed completion)
    st.tuples(st.just("join"), _delay, st.sampled_from(["before", "after", "later"])),
)

#: three clusters of two hosts; slow uplinks so transfers overlap
_GRID = GridSpec(
    clusters=tuple(
        ClusterSpec(
            name=c,
            nodes=(NodeSpec(f"{c}/n0", c), NodeSpec(f"{c}/n1", c)),
            uplink_latency=0.0625,
            uplink_bandwidth=1000.0,
        )
        for c in ("x", "y", "z")
    ),
)
_HOSTS = tuple(n.name for n in _GRID.iter_nodes())


#: ``run(until=t)`` chunk sizes; 0.25 lands chunk ends on event times
_chunk = st.sampled_from([0.25, 1.0, 7.5])


def _replay(ops, drive="run", chunk=1.0):
    env = Environment()
    net = Network(env, _GRID)
    trace = []
    created = []

    def fire(tag):
        def cb(ev):
            trace.append((tag, env.now))
        return cb

    def child(env, tag, delay):
        trace.append((tag + ":start", env.now))
        yield env.timeout(delay)
        trace.append((tag + ":done", env.now))
        return tag

    def mover(env, tag, src, dst, nbytes, start):
        try:
            yield env.timeout(start)
            trace.append((tag + ":start", env.now))
            elapsed = yield from net.transfer(src, dst, nbytes)
        except Interrupt:
            trace.append((tag + ":cut", env.now))
            return
        trace.append((tag + ":done", env.now, elapsed))

    def cutter(proc):
        def cb(ev):
            if proc.is_alive:
                proc.interrupt("cut")
        return cb

    def idler(env, tag, patience, wake):
        got = yield AnyOf(env, [env.timeout(patience), wake])
        trace.append((tag, env.now, wake in got))

    def waker(tag, wake, fanout):
        def cb(ev):
            if not wake.triggered:
                if fanout:
                    wake.add_callback(fire(tag + ":woke"))
                wake.succeed("wake")
        return cb

    def joiner(env, tag, delay, cell):
        yield env.timeout(delay)
        value = yield cell[0]
        trace.append((tag, env.now, value))

    def driver(env):
        for k, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield env.sleep(op[1])
                trace.append(("drv", env.now))
            elif kind == "timeout":
                t = env.timeout(op[1])
                t.add_callback(fire(f"t{k}"))
                created.append(t)
            elif kind == "burst":
                for j in range(op[1]):
                    t = env.timeout(op[2])
                    t.add_callback(fire(f"b{k}.{j}"))
                    created.append(t)
            elif kind == "cancel":
                if created:
                    created[op[1] % len(created)].cancel()
            elif kind == "spawn":
                env.process(child(env, f"p{k}", op[1]))
            elif kind == "chain_spawn":
                n, d = op[1], op[2]
                mid = n // 2
                for j in range(n):
                    t = env.timeout(d)
                    if j == mid:
                        t.add_callback(
                            lambda ev, k=k, d=d: env.process(
                                child(env, f"c{k}", d)
                            )
                        )
                    else:
                        t.add_callback(fire(f"c{k}.{j}"))
                    created.append(t)
            elif kind == "flood":
                n, span = op[1], op[2]
                step = span / n if n else 0.0
                for j in range(n):
                    t = env.timeout(j * step)
                    t.add_callback(fire(f"f{k}.{j}"))
                    created.append(t)
            elif kind == "transfer":
                src, dst = _HOSTS[op[1]], _HOSTS[op[2]]
                env.process(mover(env, f"m{k}", src, dst, op[3], op[4]))
            elif kind == "contend":
                n, nbytes, gap = op[1], op[2], op[3]
                for j in range(n):
                    env.process(
                        mover(env, f"m{k}.{j}", "x/n0", "y/n1", nbytes, j * gap)
                    )
            elif kind == "fanin":
                nbytes, gap = op[1], op[2]
                env.process(mover(env, f"m{k}.0", "x/n0", "y/n0", nbytes, 0.5))
                env.process(mover(env, f"m{k}.1", "z/n0", "y/n1", nbytes, 0.5 + gap))
            elif kind == "cut":
                nbytes, start, after = op[1], op[2], op[3]
                proc = env.process(mover(env, f"m{k}", "y/n0", "z/n0", nbytes, start))
                env.timeout(start + after).add_callback(cutter(proc))
            elif kind == "anyof":
                wake = env.event()
                env.process(idler(env, f"a{k}", op[1], wake))
                env.timeout(op[2]).add_callback(waker(f"a{k}", wake, op[3]))
            elif kind == "join":
                delay, when = op[1], op[2]
                cell = []
                if when == "before":
                    # Spawned first, the joiner's timeout is armed first:
                    # it attaches before the child completes.
                    env.process(joiner(env, f"j{k}", delay, cell))
                    cell.append(env.process(child(env, f"k{k}", delay)))
                else:
                    cell.append(env.process(child(env, f"k{k}", delay)))
                    if when == "later":
                        delay += 0.0625
                    env.process(joiner(env, f"j{k}", delay, cell))

    env.process(driver(env))
    if drive == "run":
        env.run()
    elif drive == "chunks":
        until = 0.0
        while env.peek() < INF:
            until += chunk
            env.run(until=until)
    else:
        while env.peek() < INF:
            env.step()
    assert env.stats()["queue_len"] == 0
    return trace, env.event_count, int(env.stats()["inlined"])


def _heap_only():
    """Every hop through the heap: the spec the inline hops must match."""
    return mock.patch.object(Environment, "owns_instant", lambda self: False)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=25), chunk=_chunk)
def test_run_loop_matches_step(ops, chunk):
    reference = _replay(ops, "step")
    assert _replay(ops, "run") == reference
    assert _replay(ops, "chunks", chunk) == reference

    trace, events, inlined = reference
    with _heap_only():
        for drive in ("run", "chunks", "step"):
            # Each inlined hop is exactly one dispatch the spec makes.
            assert _replay(ops, drive, chunk) == (trace, events + inlined, 0)


@pytest.mark.parametrize("op, inlined", [
    # both uplink grants + the mover's completion
    (("transfer", 0, 2, 250.0, 0.5), 3),
    # the first mover's two grants; the others queue; three completions
    (("contend", 3, 400.0, 0.0625), 5),
    # all three start in one instant: every grant goes through the heap
    (("contend", 3, 400.0, 0.0), 3),
    # the second finds y's inbound busy and queues for it
    (("fanin", 400.0, 0.25), 4),
    # interrupted while holding both units taken inline
    (("cut", 1000.0, 0.5, 0.1), 3),
    # the AnyOf resumes its idler, woken or timed out; its completion
    (("anyof", 0.5, 0.25, False), 2),
    (("anyof", 0.25, 0.5, False), 2),
    # a second callback on the wake-up is still to run after the AnyOf's
    # check: the AnyOf goes through the heap, after that callback
    (("anyof", 0.5, 0.25, True), 1),
    (("spawn", 1.0), 1),
    # a waiter on the completion, or a wake-up due in its instant, keeps
    # the completion in the heap; only the joiner's own end is inlined
    (("join", 0.25, "before"), 1),
    (("join", 0.25, "after"), 1),
    # the child ends alone, then the joiner attaches to it
    (("join", 0.25, "later"), 2),
])
def test_each_inline_site_is_taken(op, inlined):
    trace, events, got = _replay([op])
    assert got == inlined
    with _heap_only():
        assert _replay([op]) == (trace, events + inlined, 0)


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=25))
def test_replay_is_deterministic(ops):
    assert _replay(ops) == _replay(ops)
