"""Tests for the kernel's shared resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)

    def test_release_without_hold_raises(self):
        with pytest.raises(SimulationError):
            Resource(Environment()).release()

    def test_mutual_exclusion_and_fifo(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def user(env, res, name, hold):
            yield res.request()
            log.append((f"{name}+", env.now))
            yield env.timeout(hold)
            log.append((f"{name}-", env.now))
            res.release()

        env.process(user(env, res, "a", 3))
        env.process(user(env, res, "b", 2))
        env.process(user(env, res, "c", 1))
        env.run()
        assert log == [
            ("a+", 0.0),
            ("a-", 3.0),
            ("b+", 3.0),
            ("b-", 5.0),
            ("c+", 5.0),
            ("c-", 6.0),
        ]

    def test_parallel_slots(self):
        env = Environment()
        res = Resource(env, capacity=2)
        done = []

        def user(env, res, name):
            yield res.request()
            yield env.timeout(4)
            res.release()
            done.append((name, env.now))

        for name in ("a", "b", "c"):
            env.process(user(env, res, name))
        env.run()
        assert done == [("a", 4.0), ("b", 4.0), ("c", 8.0)]

    def test_queue_length_tracking(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.in_use == 1
        assert res.queue_length == 2


class TestStore:
    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Store(Environment(), capacity=0)

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env, store):
            for i in range(3):
                yield env.timeout(1)
                store.put(i)

        def consumer(env, store):
            for _ in range(3):
                item = yield store.get()
                got.append((item, env.now))

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        log = []

        def consumer(env, store):
            item = yield store.get()
            log.append((item, env.now))

        def producer(env, store):
            yield env.timeout(7)
            store.put("late")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert log == [("late", 7.0)]

    def test_bounded_store_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(env, store):
            yield store.put("first")
            log.append(("put first", env.now))
            yield store.put("second")
            log.append(("put second", env.now))

        def consumer(env, store):
            yield env.timeout(5)
            item = yield store.get()
            log.append((f"got {item}", env.now))

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert ("put first", 0.0) in log
        assert ("put second", 5.0) in log
        assert ("got first", 5.0) in log
        assert len(store) == 1  # "second" still buffered
