"""Integration tests for the churn simulation."""

import pytest

from repro.can.heartbeat import HeartbeatScheme
from repro.gridsim import ChurnConfig, ChurnSimulation, FaultPlan, invariants
from repro.gridsim.churn import CHURN_CHECK_INTERVAL, churn_process
from repro.net import NetworkSpec
from repro.obs.events import Tracer
from repro.sim.core import Environment


def lossy_plan(loss):
    return FaultPlan(network=NetworkSpec(loss=loss))


def quick_config(scheme=HeartbeatScheme.VANILLA, **kwargs):
    defaults = dict(
        initial_nodes=40,
        gpu_slots=1,
        scheme=scheme,
        heartbeat_period=60.0,
        event_gap_mean=30.0,
        duration=2_400.0,
    )
    defaults.update(kwargs)
    return ChurnConfig(**defaults)


class TestChurnSimulation:
    @pytest.mark.parametrize("scheme", list(HeartbeatScheme))
    def test_smoke(self, scheme):
        res = ChurnSimulation(quick_config(scheme)).run()
        assert res.scheme == scheme.value
        assert res.final_population > 10
        assert res.broken_links_times.size > 10
        assert res.rates.messages_per_node_minute > 0

    def test_slow_graceful_churn_has_no_broken_links(self):
        """Paper: no broken links without simultaneous events."""
        cfg = quick_config(
            scheme=HeartbeatScheme.COMPACT,
            event_gap_mean=200.0,  # far slower than the heartbeat period
            leave_mode="graceful",
        )
        res = ChurnSimulation(cfg).run()
        assert res.broken_links_values.max() == 0

    def test_high_churn_compact_worst(self):
        results = {}
        for scheme in HeartbeatScheme:
            cfg = quick_config(scheme, event_gap_mean=10.0, duration=4000.0)
            results[scheme] = ChurnSimulation(cfg).run()
        compact = results[HeartbeatScheme.COMPACT].steady_state_broken_links()
        vanilla = results[HeartbeatScheme.VANILLA].steady_state_broken_links()
        adaptive = results[HeartbeatScheme.ADAPTIVE].steady_state_broken_links()
        assert compact > vanilla
        assert compact > adaptive

    def test_compact_volume_smaller_than_vanilla(self):
        vols = {}
        for scheme in (HeartbeatScheme.VANILLA, HeartbeatScheme.COMPACT):
            res = ChurnSimulation(quick_config(scheme)).run()
            vols[scheme] = res.rates.kbytes_per_node_minute
        assert vols[HeartbeatScheme.COMPACT] < vols[HeartbeatScheme.VANILLA] / 2

    def test_population_stays_near_initial(self):
        res = ChurnSimulation(quick_config()).run()
        assert 20 <= res.final_population <= 80

    def test_events_recorded(self):
        res = ChurnSimulation(quick_config()).run()
        assert res.events["joins"] >= 40  # bootstrap + churn joins
        assert res.events["failures"] > 0
        assert res.events["claims"] <= res.events["failures"]

    def test_deterministic(self):
        a = ChurnSimulation(quick_config()).run()
        b = ChurnSimulation(quick_config()).run()
        assert list(a.broken_links_values) == list(b.broken_links_values)
        assert a.rates.messages_per_node_minute == pytest.approx(
            b.rates.messages_per_node_minute
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(initial_nodes=1)
        with pytest.raises(ValueError):
            ChurnConfig(leave_mode="explode")
        with pytest.raises(ValueError):
            ChurnConfig(event_gap_mean=0)

    def test_dims_property(self):
        assert ChurnConfig(gpu_slots=0).dims == 5
        assert ChurnConfig(gpu_slots=2).dims == 11


class TestRoutingProbe:
    def test_routing_success_rate_bounds(self):
        sim = ChurnSimulation(quick_config(event_gap_mean=12.0))
        sim.run()
        rate = sim.routing_success_rate(samples=50)
        assert 0.0 <= rate <= 1.0

    def test_quiescent_routing_is_perfect(self):
        cfg = quick_config(
            event_gap_mean=500.0, leave_mode="graceful", duration=1200.0
        )
        sim = ChurnSimulation(cfg)
        sim.run()
        assert sim.routing_success_rate(samples=50) == 1.0

    def test_sample_validation(self):
        sim = ChurnSimulation(quick_config(duration=300.0))
        sim.run()
        with pytest.raises(ValueError):
            sim.routing_success_rate(samples=0)

    def test_probe_is_deterministic_across_seeded_runs(self):
        rates = []
        for _ in range(2):
            sim = ChurnSimulation(quick_config(event_gap_mean=12.0))
            sim.run()
            rates.append(sim.routing_success_rate(samples=40))
        assert rates[0] == rates[1]


class TestInvariantsAndLoss:
    @pytest.mark.parametrize("scheme", list(HeartbeatScheme))
    def test_invariants_hold_after_seeded_runs(self, scheme):
        sim = ChurnSimulation(quick_config(scheme))
        sim.run()
        sim.check_invariants()

    def test_invariants_hold_under_graceful_churn(self):
        sim = ChurnSimulation(quick_config(leave_mode="graceful"))
        sim.run()
        sim.check_invariants()

    def test_mid_run_violation_fails_the_run(self, monkeypatch):
        """The oracle can fail a run: what the checker raises inside the
        churn-event process leaves run(), at the event it was raised on."""
        violation = invariants.InvariantViolation("seeded")
        calls = []

        def check(sim):
            calls.append(sim.env.now)
            if len(calls) == 3:
                raise violation

        monkeypatch.setattr(invariants, "check_churn_invariants", check)
        sim = ChurnSimulation(quick_config(invariant_check_every=1))
        with pytest.raises(invariants.InvariantViolation) as raised:
            sim.run()
        assert raised.value is violation
        assert len(calls) == 3 and sim.env.now == calls[-1]
        assert sum(sim.protocol.events.values()) < 45  # stopped, of ~120 due

    def test_message_loss_degrades_but_stays_consistent(self):
        sim = ChurnSimulation(quick_config(plan=lossy_plan(0.3)))
        res = sim.run()
        sim.check_invariants()
        assert res.final_population > 10

    def test_message_loss_validation(self):
        # loss is said one way, in the plan's NetworkSpec, and its range is
        # validated there; the closed interval is accepted: 1.0 is a
        # total blackout
        assert lossy_plan(1.0).network.loss == 1.0
        with pytest.raises(ValueError):
            lossy_plan(1.1)
        with pytest.raises(ValueError):
            lossy_plan(-0.1)
        with pytest.raises(TypeError):
            quick_config(message_loss=0.1)
        # and the channel is on the protocol from construction
        sim = ChurnSimulation(quick_config(plan=lossy_plan(0.25)))
        assert sim.protocol.net.spec.loss == 0.25

    def test_total_blackout_starves_all_evidence(self):
        """rate == 1.0 drops every unreliable send: nothing delivers."""
        sim = ChurnSimulation(quick_config(plan=lossy_plan(1.0)))
        sim.run()
        sim.check_invariants()
        net = sim.protocol.net
        assert net.attempts > 0
        assert net.delivered == 0
        assert net.drops["loss"] == net.attempts


class _FixedGaps:
    """A stand-in stream: every exponential draw is ``gap``."""

    def __init__(self, gap):
        self.gap = gap

    def exponential(self, mean):
        return self.gap


class TestChurnProcess:
    """The one background churn driver both churn hosts run."""

    def test_a_long_gap_fires_at_its_deadline_after_chunked_waits(self):
        env = Environment()
        delays, fired = [], []
        schedule = env.schedule_callback

        def recording(delay, fn):
            delays.append(delay)
            return schedule(delay, fn)

        env.schedule_callback = recording
        gap = 2.5 * CHURN_CHECK_INTERVAL
        churn_process(
            env, _FixedGaps(gap), 1.0, lambda rng: fired.append(env.now),
            lambda now: 1.0, lambda: not fired,
        )
        env.run()
        assert fired == [gap]
        # two full chunks and the remainder, then the chain stops: live()
        # turned false inside the action
        assert delays == [CHURN_CHECK_INTERVAL] * 2 + [0.5 * CHURN_CHECK_INTERVAL]

    def test_nothing_is_scheduled_once_live_turns_false(self):
        env = Environment()
        live, fired = [True], []
        churn_process(
            env, _FixedGaps(10 * CHURN_CHECK_INTERVAL), 1.0, fired.append,
            lambda now: 1.0, lambda: live[0],
        )
        env.run(until=1.5 * CHURN_CHECK_INTERVAL)
        live[0] = False
        env.run()  # the pending chunk wakes once, sees the host stopped
        assert fired == []
        assert env.peek() == float("inf")
        assert env.now == 2 * CHURN_CHECK_INTERVAL


@pytest.mark.parametrize("retry", [False, True])
def test_a_join_into_a_dead_owners_zone(retry):
    """``join(retry=False)`` refuses without a trace: nothing queued, no
    ``join_deferred``; the default queues the join for the next rounds."""
    sim = ChurnSimulation(quick_config(initial_nodes=8), tracer=Tracer())
    sim.bootstrap_population()
    victim = sorted(sim.overlay.alive_ids())[3]
    sim.crash_node(victim)
    joins = sim.protocol.events["joins"]
    joined = sim.protocol.join(
        999, sim.overlay.members[victim].coord, now=0.0, retry=retry
    )
    assert joined is False
    assert 999 not in sim.protocol.nodes
    assert sim.protocol.events["joins"] == joins
    assert len(sim.protocol._pending_joins) == int(retry)
    assert sim.tracer.counts.get("can.join_deferred", 0) == int(retry)
