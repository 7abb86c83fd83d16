"""Unit tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment, SimulationError


class TestEnvironmentBasics:
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

    def test_run_until_nan_raises(self, env):
        """``nan <= limit`` is False for every entry and ``now`` would become
        NaN: nothing runs and the clock stays put."""
        fired = []
        env.schedule_callback(1.0, lambda: fired.append(env.now))
        with pytest.raises(ValueError):
            env.run(until=float("nan"))
        assert env.now == 0.0 and fired == []

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

    def test_raising_callback_stops_the_run(self, env):
        boom = RuntimeError("boom")

        def bad():
            raise boom

        env.schedule_callback(1.0, bad)
        env.schedule_callback(2.0, lambda: pytest.fail("must not run"))
        with pytest.raises(RuntimeError) as raised:
            env.run(until=10.0)
        assert raised.value is boom
        assert env.now == 1.0  # neither past the failing entry nor at until
        assert env.peek() == 2.0  # what was due later is still queued


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


class TestProcesses:
    """The generator driver: ``process`` runs on ``schedule_callback``."""

    def test_process_runs_to_its_first_yield_at_once(self, env):
        order = []

        def proc(env):
            order.append("process")
            yield env.timeout(0.0)
            order.append("resumed")

        env.schedule_callback(0.0, lambda: order.append("callback"))
        env.process(proc(env))
        assert order == ["process"]
        env.run()
        assert order == ["process", "callback", "resumed"]

    def test_exception_in_process_stops_the_run(self, env):
        """What a generator raises leaves run() as the same object, at the
        simulated time it happened, with everything later still queued."""
        boom = ValueError("process died")

        def dying(env):
            yield env.timeout(1.0)
            raise boom

        def bystander(env):
            yield env.timeout(5.0)

        env.process(dying(env))
        env.process(bystander(env))
        with pytest.raises(ValueError) as raised:
            env.run(until=10.0)
        assert raised.value is boom
        assert env.now == 1.0
        assert env.peek() == 5.0

    def test_non_event_yield_stops_the_run(self, env):
        def bad(env):
            yield env.timeout(2.0)
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError, match="'bad' yielded a non-timeout: 42"):
            env.run()
        assert env.now == 2.0

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)


class TestCallbacks:
    """The heap entry is the handle; cancellation is read when it fires."""

    def test_cancelled_entry_never_fires(self, env):
        fired = []
        handle = env.schedule_callback(1.0, lambda: fired.append("cancelled"))
        env.schedule_callback(1.0, lambda: fired.append("kept"))
        handle.cancel()
        env.run()
        assert fired == ["kept"]
        assert env.now == 1.0

    def test_cancel_after_firing_is_a_noop(self, env):
        fired = []
        handle = env.schedule_callback(1.0, lambda: fired.append(env.now))
        env.run()
        handle.cancel()
        handle.cancel()
        env.run(until=5.0)
        assert fired == [1.0]

    def test_call_every_stops_when_cancelled_inside_its_own_tick(self, env):
        ticks = []

        def tick():
            ticks.append(env.now)
            if len(ticks) == 3:
                handle.cancel()

        handle = env.call_every(10.0, tick)
        env.run()  # returns: the cancelled timer left nothing queued
        assert ticks == [10.0, 20.0, 30.0]
        assert env.peek() == float("inf")

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule_callback(-1.0, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, env, delay):
        """A NaN key at the heap top ends ``run()`` at once (``nan <= limit``
        is false): every later entry stays queued and nothing is raised."""
        fired = []
        with pytest.raises(ValueError):
            env.schedule_callback(delay, lambda: fired.append(delay))
        env.schedule_callback(5.0, lambda: fired.append(5.0))
        env.schedule_callback(1.0, lambda: fired.append(1.0))
        env.run()
        assert fired == [1.0, 5.0]
        assert env.now == 5.0
