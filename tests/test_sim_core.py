"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


class TestClock:
    def test_time_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_start_time(self):
        assert Environment(initial_time=42.5).now == 42.5

    def test_run_until_advances_clock_without_events(self):
        env = Environment()
        env.run(until=10)
        assert env.now == 10.0

    def test_run_until_in_the_past_raises(self):
        env = Environment(initial_time=5)
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()


class TestTimeout:
    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_timeout_advances_time(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(3.5)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [3.5]

    def test_timeouts_fire_in_order_with_fifo_ties(self):
        env = Environment()
        log = []

        def proc(env, name, delay):
            yield env.timeout(delay)
            log.append(name)

        env.process(proc(env, "b", 2.0))
        env.process(proc(env, "a", 1.0))
        env.process(proc(env, "tie1", 1.0))
        env.process(proc(env, "tie2", 1.0))
        env.run()
        assert log == ["a", "tie1", "tie2", "b"]

    def test_timeout_value(self):
        env = Environment()
        got = []

        def proc(env):
            value = yield env.timeout(1, value="payload")
            got.append(value)

        env.process(proc(env))
        env.run()
        assert got == ["payload"]

    def test_run_until_deadline_stops_midway(self):
        env = Environment()
        log = []

        def proc(env):
            for _ in range(10):
                yield env.timeout(1)
                log.append(env.now)

        env.process(proc(env))
        env.run(until=4.5)
        assert log == [1, 2, 3, 4]
        assert env.now == 4.5


class TestProcess:
    def test_process_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        result = env.run(until=p)
        assert result == "done"
        assert env.now == 1.0

    def test_process_waits_on_other_process(self):
        env = Environment()
        log = []

        def worker(env):
            yield env.timeout(5)
            return 99

        def boss(env):
            value = yield env.process(worker(env))
            log.append((env.now, value))

        env.process(boss(env))
        env.run()
        assert log == [(5.0, 99)]

    def test_yielding_non_event_fails_loudly(self):
        env = Environment()

        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_propagates(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_reaches_waiter_via_run_until(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)
            raise ValueError("boom")

        p = env.process(proc(env))
        with pytest.raises(ValueError, match="boom"):
            env.run(until=p)

    def test_non_generator_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_processes_share_the_clock(self):
        env = Environment()
        order = []

        def proc(env, name, delays):
            for d in delays:
                yield env.timeout(d)
                order.append((name, env.now))

        env.process(proc(env, "x", [2, 2]))
        env.process(proc(env, "y", [3]))
        env.run()
        assert order == [("x", 2.0), ("y", 3.0), ("x", 4.0)]


class TestEvent:
    """A process that raises is a failed event."""

    @staticmethod
    def failing(env, message):
        yield env.timeout(1)
        raise RuntimeError(message)

    def test_unhandled_failed_event_raises_at_step(self):
        # Nobody waits on the failed process: the step that processes
        # its failure raises, chaining the original exception.
        env = Environment()
        env.process(self.failing(env, "lost"))
        env.step()  # start the process
        env.step()  # its timeout fires; the generator raises
        with pytest.raises(SimulationError, match="never handled") as info:
            env.step()
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_defused_failure_is_silent(self):
        env = Environment()
        env.process(self.failing(env, "handled elsewhere")).defuse()
        env.run()  # does not raise

    def test_failed_event_throws_into_waiting_process(self):
        env = Environment()
        caught = []

        def proc(env):
            try:
                yield env.process(self.failing(env, "expected"))
            except RuntimeError as exc:
                caught.append((env.now, str(exc)))

        env.process(proc(env))
        env.run()
        assert caught == [(1.0, "expected")]
