"""Edge-case tests for the engine's fast paths.

The hot-path overhaul (pooled timeouts, single-callback slots, lazy
cancellation, inlined run loop) must not change any observable
semantics; these tests pin the corners that the inlining touched:
``run(until=...)`` over already settled events, conditions over
duplicate sub-events, the timeout free list surviving an interrupt
mid-wait or a cancellation, callback removal, urgent preemption at one
instant, and ``peek``/``step`` over tombstones.
"""

import pytest

from repro.simgrid.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


# -- run(until=...) over settled events --------------------------------------


def test_run_until_already_failed_event_raises():
    env = Environment()
    boom = RuntimeError("already failed")
    ev = env.event()
    ev.fail(boom)
    ev.defuse()
    env.run()  # processes the failure (defused, so the run survives)
    assert ev.processed and not ev.ok
    with pytest.raises(RuntimeError, match="already failed"):
        env.run(until=ev)


def test_run_until_already_succeeded_event_returns_value():
    env = Environment()
    ev = env.event()
    ev.succeed("done early")
    env.run()
    assert ev.processed
    # No queue activity needed: the settled value comes back immediately.
    assert env.run(until=ev) == "done early"


def test_run_until_failing_event_raises_at_fire_time():
    env = Environment()
    ev = env.event()

    def failer(env):
        yield env.timeout(2.0)
        ev.fail(ValueError("fired sour"))

    env.process(failer(env))
    with pytest.raises(ValueError, match="fired sour"):
        env.run(until=ev)
    assert env.now == 2.0


# -- conditions over duplicate sub-events ------------------------------------


def test_all_of_duplicate_events_fires_once_event_fires():
    env = Environment()
    t = env.timeout(1.0, value="v")

    def waiter(env):
        got = yield AllOf(env, [t, t])
        return got

    p = env.process(waiter(env))
    env.run()
    # The duplicate counts as two fired sub-events; the value dict
    # naturally collapses to the one distinct event.
    assert p.value == {t: "v"}
    assert env.now == 1.0


def test_any_of_duplicate_events():
    env = Environment()
    t = env.timeout(3.0, value=7)

    def waiter(env):
        got = yield AnyOf(env, [t, t])
        return got

    p = env.process(waiter(env))
    env.run()
    assert p.value == {t: 7}
    assert env.now == 3.0


# -- timeout pool vs interrupts ----------------------------------------------


def test_pooled_timeout_reused_after_interrupt_mid_wait():
    """An interrupt orphans the pooled sleep; the orphan must fire
    harmlessly, return to the free list, and be reusable."""
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.sleep(10.0)
            log.append("full sleep")  # pragma: no cover - must not happen
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.sleep(5.0)
        log.append(("slept again", env.now))

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt("wake up")

    p = env.process(sleeper(env))
    env.process(interrupter(env, p))
    env.run()
    assert log == [("interrupted", 1.0), ("slept again", 6.0)]
    # The orphaned t=10 timeout fired with no callbacks and was recycled.
    assert env.now == 10.0
    assert env.stats()["timeout_pool_size"] >= 1


def test_timeout_pool_reuse_counter():
    env = Environment()

    def serial_sleeper(env):
        for _ in range(5):
            yield env.sleep(1.0)

    env.process(serial_sleeper(env))
    env.run()
    # A timeout returns to the free list only after its callbacks finish,
    # and the resumed process requests its next sleep *inside* that
    # callback — so two pooled objects ping-pong: sleeps 1 and 2 allocate,
    # sleeps 3..5 reuse.
    assert env.stats()["timeout_pool_reuses"] == 3
    assert env.stats()["timeout_pool_size"] == 2


def test_public_timeout_is_never_pooled():
    env = Environment()
    timeouts = []

    def proc(env):
        for _ in range(3):
            t = env.timeout(1.0)
            timeouts.append(t)
            yield t

    env.process(proc(env))
    env.run()
    # Retaining public timeouts is allowed: each is a distinct object and
    # keeps its value after processing.
    assert len({id(t) for t in timeouts}) == 3
    assert env.stats()["timeout_pool_size"] == 0


# -- callback removal ---------------------------------------------------------


def test_remove_callback_all_positions():
    env = Environment()
    fired = []

    def make(tag):
        def cb(ev):
            fired.append(tag)
        return cb

    a, b, c = make("a"), make("b"), make("c")
    ev = env.event()
    ev.add_callback(a)
    ev.add_callback(b)
    ev.add_callback(c)
    ev.remove_callback(b)       # overflow-list removal
    ev.remove_callback(a)       # head-slot removal promotes c
    ev.remove_callback(make("x"))  # absent: a silent no-op
    ev.succeed(None)
    env.run()
    assert fired == ["c"]


def test_remove_callback_after_processed_is_noop():
    env = Environment()
    ev = env.event()
    cb = lambda e: None
    ev.add_callback(cb)
    ev.succeed(None)
    env.run()
    assert ev.processed
    ev.remove_callback(cb)  # must not raise


# -- determinism of the inlined run loop --------------------------------------


def test_same_seed_same_trace():
    """Two identical runs produce the identical event interleaving."""

    def run_once():
        import numpy as np

        env = Environment()
        rng = np.random.default_rng(123)
        trace = []

        def jittery(env, tag):
            for _ in range(50):
                yield env.sleep(float(rng.uniform(0.1, 1.0)))
                trace.append((tag, env.now))

        for tag in ("a", "b", "c"):
            env.process(jittery(env, tag))
        env.run()
        return trace, env.event_count

    first = run_once()
    second = run_once()
    assert first == second


def test_urgent_insert_preempts_same_instant_chain():
    """A process created while same-deadline events dispatch must start
    before the remaining events of that instant (URGENT sorts first)."""
    env = Environment()
    order = []

    def starter(env):
        yield env.timeout(1.0)
        order.append("starter")

        def child(env):
            order.append("child-start")
            yield env.timeout(1.0)

        env.process(child(env))

    def other(env):
        yield env.timeout(1.0)
        order.append("other")

    env.process(starter(env))
    env.process(other(env))
    env.run()
    assert order == ["starter", "child-start", "other"]


# -- lazy cancellation / free-list interaction -------------------------------


def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []
    doomed = env.timeout(1.0)
    doomed.add_callback(lambda ev: fired.append("doomed"))
    keeper = env.timeout(2.0)
    keeper.add_callback(lambda ev: fired.append("keeper"))
    doomed.cancel()
    env.run()
    assert fired == ["keeper"]
    assert env.stats()["cancelled_skipped"] == 1
    assert env.stats()["tombstones_pending"] == 0


def test_cancelled_pooled_timeout_is_recycled_without_stale_callback():
    """Cancel a queued pooled sleep: its callback must never run, the
    object must return to the free list at the skip, and the *next*
    incarnation (free-list reuse) must fire only its new callback."""
    env = Environment()
    stale_fired = []
    t = env.sleep(1.0)
    assert t._pooled
    t.add_callback(lambda ev: stale_fired.append("stale"))
    t.cancel()
    # Something live so run() has work: lets the loop surface the tombstone.
    env.timeout(3.0)
    env.run()
    assert stale_fired == []
    assert env.stats()["cancelled_skipped"] == 1
    assert env.stats()["timeout_pool_size"] == 1

    woke = []

    def sleeper(env):
        s = env.sleep(2.0)
        # Free-list reuse: the recycled object is the cancelled one.
        assert s is t
        yield s
        woke.append(env.now)

    env.process(sleeper(env))
    env.run()
    # The reused incarnation fired normally: new waiter woke, the stale
    # callback (registered against the cancelled incarnation) never ran.
    assert woke == [5.0]
    assert stale_fired == []


def test_cancel_after_fire_is_noop_and_does_not_sabotage_reuse():
    """cancel() on an already-fired pooled timeout must do nothing: the
    stale reference's next incarnation fires untouched."""
    env = Environment()
    stale = []

    def first(env):
        s = env.sleep(1.0)
        stale.append(s)
        yield s

    env.process(first(env))
    env.run()

    stale[0].cancel()  # fired long ago: a documented no-op
    assert env.stats()["tombstones_pending"] == 0

    woke = []

    def second(env):
        s = env.sleep(1.0)
        assert s is stale[0]
        yield s
        woke.append(env.now)

    env.process(second(env))
    env.run()
    assert woke == [2.0]
    assert env.stats()["cancelled_skipped"] == 0


def test_interrupt_orphaned_sleep_then_cancel():
    """An interrupt orphans a pooled sleep; cancelling the orphan reclaims
    it early instead of letting it fire as a no-op at its deadline."""
    env = Environment()
    log = []

    def sleeper(env):
        orphan = env.sleep(10.0)
        try:
            yield orphan
        except Interrupt:
            log.append(("interrupted", env.now))
            orphan.cancel()
        yield env.sleep(1.0)
        log.append(("again", env.now))

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt("up")

    p = env.process(sleeper(env))
    env.process(interrupter(env, p))
    env.run()
    assert log == [("interrupted", 1.0), ("again", 2.0)]
    # The orphan was reclaimed at pop: the clock never ran out to t=10.
    assert env.now == 2.0
    assert env.stats()["cancelled_skipped"] == 1


# -- peek / step ----------------------------------------------------------------


def test_peek_skips_tombstones():
    env = Environment()
    first = env.timeout(1.0)
    env.timeout(2.0)
    first.cancel()
    assert env.peek() == 2.0
    assert env.stats()["cancelled_skipped"] == 1


def test_step_dispatches_in_order():
    env = Environment()
    fired = []
    for delay, tag in ((2.0, "late"), (1.0, "early"), (1.0, "early2")):
        env.timeout(delay).add_callback(lambda ev, tag=tag: fired.append(tag))
    env.step()
    assert (fired, env.now) == (["early"], 1.0)
    env.step()
    assert fired == ["early", "early2"]
    env.step()
    assert (fired, env.now) == (["early", "early2", "late"], 2.0)
    with pytest.raises(SimulationError):
        env.step()
