"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment, SimulationError


class TestEnvironmentBasics:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(5.0).now == 5.0

    def test_timeout_advances_clock(self, env):
        done = []

        def proc(env):
            yield env.timeout(3.5)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [3.5]

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_run_until_stops_at_limit(self, env):
        log = []

        def proc(env):
            for _ in range(10):
                yield env.timeout(1.0)
                log.append(env.now)

        env.process(proc(env))
        env.run(until=4.5)
        assert log == [1.0, 2.0, 3.0, 4.0]
        assert env.now == 4.5

    def test_run_until_past_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_run_continues_after_until(self, env):
        log = []

        def proc(env):
            for _ in range(3):
                yield env.timeout(2.0)
                log.append(env.now)

        env.process(proc(env))
        env.run(until=3.0)
        assert log == [2.0]
        env.run()
        assert log == [2.0, 4.0, 6.0]

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_step_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_stop_from_callback(self, env):
        env.schedule_callback(1.0, lambda: env.stop("halted"))
        env.schedule_callback(2.0, lambda: pytest.fail("must not run"))
        assert env.run() == "halted"
        assert env.now == 1.0


class TestEventOrdering:
    def test_same_time_fifo(self, env):
        order = []
        for i in range(5):
            env.schedule_callback(1.0, lambda i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_time_ordering(self, env):
        order = []
        for delay in (3.0, 1.0, 2.0):
            env.schedule_callback(delay, lambda d=delay: order.append(d))
        env.run()
        assert order == [1.0, 2.0, 3.0]

    @settings(max_examples=50, deadline=None)
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
    def test_events_fire_in_time_order(self, delays):
        env = Environment()
        fired = []
        for d in delays:
            env.schedule_callback(d, lambda d=d: fired.append(d))
        env.run()
        assert fired == sorted(fired)
        assert env.now == max(delays)

    def test_deterministic_replay(self):
        def trace():
            env = Environment()
            log = []

            def worker(env, name, delay):
                yield env.timeout(delay)
                log.append((env.now, name))
                yield env.timeout(delay)
                log.append((env.now, name))

            for i in range(5):
                env.process(worker(env, f"w{i}", 1.0 + i * 0.5))
            env.run()
            return log

        assert trace() == trace()


class TestEvents:
    def test_succeed_delivers_value(self, env):
        ev = env.event()
        got = []

        def proc(env, ev):
            got.append((yield ev))

        env.process(proc(env, ev))
        env.schedule_callback(2.0, lambda: ev.succeed(42))
        env.run()
        assert got == [42]

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_raises_in_process(self, env):
        caught = []

        def proc(env, ev):
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        ev = env.event()
        env.process(proc(env, ev))
        env.schedule_callback(1.0, lambda: ev.fail(RuntimeError("boom")))
        env.run()
        assert caught == ["boom"]

    def test_yield_already_processed_event(self, env):
        ev = env.timeout(0.5, value="early")
        got = []

        def proc(env):
            yield env.timeout(2.0)
            got.append((yield ev))  # fired long ago

        env.process(proc(env))
        env.run()
        assert got == ["early"]


class TestProcesses:
    def test_return_value_becomes_event_value(self, env):
        def child(env):
            yield env.timeout(1.0)
            return "result"

        def parent(env):
            value = yield env.process(child(env))
            parent_got.append(value)

        parent_got = []
        env.process(parent(env))
        env.run()
        assert parent_got == ["result"]

    def test_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child died")

        caught = []

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                caught.append(str(exc))

        env.process(parent(env))
        env.run()
        assert caught == ["child died"]

    def test_non_event_yield_fails_process(self, env):
        def bad(env):
            yield 42

        proc = env.process(bad(env))
        env.run()
        assert not proc.ok
        assert isinstance(proc.value, SimulationError)

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_is_alive(self, env):
        def quick(env):
            yield env.timeout(1.0)

        proc = env.process(quick(env))
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

