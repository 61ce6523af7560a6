"""Unit tests for stores and resources."""

import pytest

from repro.simgrid.engine import Environment, Interrupt, SimulationError
from repro.simgrid.queues import PriorityStore, Resource, Store


# ---------------------------------------------------------------- Store
def test_put_then_get_immediate():
    env = Environment()
    store = Store(env)
    store.put("a")

    def proc(env):
        item = yield store.get()
        return item

    p = env.process(proc(env))
    env.run()
    assert p.value == "a"


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return (env.now, item)

    def producer(env):
        yield env.timeout(3.0)
        store.put("msg")

    c = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert c.value == (3.0, "msg")


def test_fifo_order():
    env = Environment()
    store = Store(env)
    for i in range(5):
        store.put(i)
    received = []

    def consumer(env):
        for _ in range(5):
            item = yield store.get()
            received.append(item)

    env.process(consumer(env))
    env.run()
    assert received == [0, 1, 2, 3, 4]


def test_multiple_getters_served_in_order():
    env = Environment()
    store = Store(env)
    results = []

    def consumer(env, tag):
        item = yield store.get()
        results.append((tag, item))

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))

    def producer(env):
        yield env.timeout(1.0)
        store.put("x")
        store.put("y")

    env.process(producer(env))
    env.run()
    assert results == [("first", "x"), ("second", "y")]


def test_try_get():
    env = Environment()
    store = Store(env)
    assert store.try_get() is None
    store.put(7)
    assert store.try_get() == 7
    assert store.try_get() is None


def test_clear_drains_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert store.clear() == [1, 2]
    assert len(store) == 0


def test_cancelled_getter_skipped():
    env = Environment()
    store = Store(env)
    got = []

    def waiter(env, tag):
        try:
            item = yield store.get()
            got.append((tag, item))
        except Interrupt:
            got.append((tag, "interrupted"))

    def interrupted_waiter(env, tag):
        get_ev = store.get()
        try:
            item = yield get_ev
            got.append((tag, item))
        except Interrupt:
            if not get_ev.triggered:
                get_ev.cancel()
            got.append((tag, "interrupted"))

    v = env.process(interrupted_waiter(env, "victim"))
    env.process(waiter(env, "survivor"))

    def script(env):
        yield env.timeout(1.0)
        v.interrupt()
        yield env.timeout(1.0)
        store.put("item")

    env.process(script(env))
    env.run()
    # Item must go to the survivor, not be lost on the cancelled get.
    assert ("victim", "interrupted") in got
    assert ("survivor", "item") in got


def test_cancel_satisfied_get_rejected():
    env = Environment()
    store = Store(env)
    store.put("x")
    ev = store.get()
    with pytest.raises(SimulationError):
        ev.cancel()


def test_owner_attribute():
    env = Environment()
    assert Store(env).owner is None
    assert Store(env, owner="host0").owner == "host0"


# ---------------------------------------------------------- PriorityStore
def test_priority_store_orders_items():
    env = Environment()
    ps = PriorityStore(env)
    for item in [(3, "c"), (1, "a"), (2, "b")]:
        ps.put(item)
    received = []

    def consumer(env):
        for _ in range(3):
            item = yield ps.get()
            received.append(item[1])

    env.process(consumer(env))
    env.run()
    assert received == ["a", "b", "c"]


def test_priority_store_waiting_getter():
    env = Environment()
    ps = PriorityStore(env)

    def consumer(env):
        item = yield ps.get()
        return item

    c = env.process(consumer(env))

    def producer(env):
        yield env.timeout(1.0)
        ps.put((5, "only"))

    env.process(producer(env))
    env.run()
    assert c.value == (5, "only")


def test_priority_store_len_and_clear():
    env = Environment()
    ps = PriorityStore(env)
    ps.put(2)
    ps.put(1)
    assert len(ps) == 2
    assert ps.items == (1, 2)
    assert ps.clear() == [1, 2]
    assert len(ps) == 0


# -------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2 = res.request(), res.request()
    assert r1.triggered and r2.triggered
    r3 = res.request()
    assert not r3.triggered
    assert res.in_use == 2
    assert res.queued == 1


def test_resource_release_wakes_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    timeline = []

    def user(env, tag, hold):
        req = res.request()
        yield req
        timeline.append((env.now, tag, "acquired"))
        yield env.timeout(hold)
        res.release(req)

    env.process(user(env, "a", 2.0))
    env.process(user(env, "b", 1.0))
    env.run()
    assert timeline == [(0.0, "a", "acquired"), (2.0, "b", "acquired")]


def test_resource_fifo_among_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, tag):
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(1.0)
        res.release(req)

    for tag in ["first", "second", "third"]:
        env.process(user(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    r3 = res.request()
    r2.cancel()
    res.release(r1)
    env.run()
    assert r3.triggered  # r2 skipped
    assert res.in_use == 1


def test_resource_cancel_held_request_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    r1.cancel()  # held -> behaves as release
    env.run()
    assert r2.triggered
    assert res.in_use == 1


def test_release_unheld_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    r2 = res.request()
    with pytest.raises(SimulationError):
        res.release(r2)


def test_acquire_takes_a_unit_without_an_event():
    env = Environment()
    res = Resource(env, capacity=1)
    res.acquire()
    assert res.in_use == 1
    assert env.peek() == float("inf")  # nothing scheduled
    with pytest.raises(SimulationError):
        res.acquire()
    res.release_unit()
    assert res.in_use == 0


def test_release_unit_hands_over_to_the_oldest_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    res.acquire()
    r1, r2 = res.request(), res.request()
    r1.cancel()
    res.release_unit()
    assert r2.triggered and not r1.triggered
    assert res.in_use == 1
    env.run()
    res.release(r2)
    assert res.in_use == 0


def test_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)
