"""Unit tests for GridNode: queues, execution engine, predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.ce import CESpec, CPU_SLOT
from repro.model import contention
from repro.model.node import GridNode, NodeSpec

from tests.conftest import (
    cpu_job,
    gpu_job,
    make_cpu,
    make_gpu,
    make_grid_node,
    make_node_spec,
)


@pytest.fixture(autouse=True)
def no_contention(monkeypatch):
    """Durations here are the base duration over the clock: co-runners add
    nothing."""
    monkeypatch.setattr(contention, "ALPHA", 0.0)


class TestNodeSpec:
    def test_requires_cpu(self):
        with pytest.raises(ValueError):
            NodeSpec(node_id=0, ces=(make_gpu(),))

    def test_duplicate_slots_rejected(self):
        with pytest.raises(ValueError):
            NodeSpec(node_id=0, ces=(make_cpu(), make_cpu()))

    def test_accessors(self):
        spec = make_node_spec(3, gpus=[make_gpu(0)])
        assert spec.slots == (CPU_SLOT, "gpu0")
        assert spec.cpu.slot == CPU_SLOT
        assert spec.ce_spec("gpu0").dedicated
        assert spec.ce_spec("gpu9") is None


class TestPredicates:
    def test_capable_checks_all_requirements(self, env):
        node = make_grid_node(
            env, cpu=make_cpu(clock=2.0, memory=8, disk=100, cores=4)
        )
        assert node.capable(cpu_job(cores=4, clock=1.5, memory=8, disk=50))
        assert not node.capable(cpu_job(cores=5))
        assert not node.capable(cpu_job(clock=2.5))
        assert not node.capable(cpu_job(memory=16))
        assert not node.capable(cpu_job(disk=200))
        assert not node.capable(gpu_job())  # no GPU present

    def test_capable_gpu(self, env):
        node = make_grid_node(env, gpus=[make_gpu(0, clock=1.0, cores=128)])
        assert node.capable(gpu_job(gpu_cores=128))
        assert not node.capable(gpu_job(gpu_cores=256))
        assert not node.capable(gpu_job(slot_index=1))

    def test_free_and_acceptable(self, env):
        node = make_grid_node(env, cpu=make_cpu(cores=2))
        job = cpu_job(cores=1, duration=100)
        assert node.is_free()
        assert node.is_acceptable(job)
        node.submit(cpu_job(cores=1, duration=100))
        # one core busy: not free, but still acceptable for a 1-core job
        assert not node.is_free()
        assert node.is_acceptable(job)
        node.submit(cpu_job(cores=1, duration=100))
        assert not node.is_acceptable(job)

    def test_acceptable_respects_fifo_queue(self, env):
        node = make_grid_node(env, cpu=make_cpu(cores=2))
        node.submit(cpu_job(cores=2, duration=100))
        node.submit(cpu_job(cores=2, duration=100))  # waits in queue
        # a 1-core job could physically start, but FIFO order forbids it
        assert not node.is_acceptable(cpu_job(cores=1))

    def test_acceptable_idle_gpu_behind_busy_cpu(self, env):
        """The heterogeneity insight: a busy CPU hides an idle GPU only
        from schemes that cannot see per-CE state."""
        node = make_grid_node(
            env,
            cpu=make_cpu(cores=2),
            gpus=[make_gpu(0)],
        )
        node.submit(cpu_job(cores=1, duration=100))
        assert not node.is_free()
        assert node.is_acceptable(gpu_job(gpu_cores=64))


class TestExecution:
    def test_job_runs_and_finishes(self, env):
        finished = []
        node = make_grid_node(env)
        node.on_job_finished = lambda n, j: finished.append(j)
        job = cpu_job(duration=50.0)
        node.submit(job)
        env.run()
        assert finished == [job]
        assert job.start_time == 0.0
        assert job.finish_time == 50.0
        assert job.wait_time == 0.0
        assert node.completed_jobs == 1
        assert node.is_free()

    def test_fifo_wait_time(self, env):
        node = make_grid_node(env, cpu=make_cpu(cores=1))
        first = cpu_job(duration=100.0)
        second = cpu_job(duration=100.0)
        node.submit(first)
        node.submit(second)
        env.run()
        assert second.start_time == 100.0
        assert second.wait_time == 100.0

    def test_duration_scales_with_clock(self, env):
        node = make_grid_node(env, cpu=make_cpu(clock=2.0))
        job = cpu_job(duration=100.0)
        node.submit(job)
        env.run()
        assert job.finish_time == pytest.approx(50.0)

    def test_multi_ce_job_occupies_both(self, env):
        node = make_grid_node(
            env,
            cpu=make_cpu(cores=2),
            gpus=[make_gpu(0, clock=1.0)],
        )
        job = gpu_job(gpu_cores=64, duration=80.0)
        node.submit(job)
        assert node.ces["gpu0"].running == [job]
        assert node.ces[CPU_SLOT].cores_in_use == 1
        env.run()
        assert node.is_free()
        assert job.finish_time == pytest.approx(80.0)

    def test_gpu_jobs_serialize_on_dedicated_ce(self, env):
        node = make_grid_node(
            env,
            cpu=make_cpu(cores=8),
            gpus=[make_gpu(0)],
        )
        a = gpu_job(gpu_cores=32, duration=60.0)
        b = gpu_job(gpu_cores=32, duration=60.0)
        node.submit(a)
        node.submit(b)
        env.run()
        assert a.start_time == 0.0
        assert b.start_time == 60.0  # dedicated CE runs one job at a time

    def test_cpu_and_gpu_jobs_coexist(self, env):
        node = make_grid_node(
            env,
            cpu=make_cpu(cores=2),
            gpus=[make_gpu(0)],
        )
        g = gpu_job(duration=100.0)
        c = cpu_job(duration=100.0)
        node.submit(g)
        node.submit(c)
        # no cross-CE contention: both start immediately
        assert g.start_time == 0.0
        assert c.start_time == 0.0

    def test_submit_incapable_raises(self, env):
        node = make_grid_node(env)
        with pytest.raises(RuntimeError):
            node.submit(gpu_job())

    def test_head_of_line_blocking(self, env):
        node = make_grid_node(env, cpu=make_cpu(cores=4))
        node.submit(cpu_job(cores=3, duration=100.0))
        big = cpu_job(cores=3, duration=10.0)
        small = cpu_job(cores=1, duration=10.0)
        node.submit(big)
        node.submit(small)
        env.run()
        # FIFO: small cannot overtake big even though a core was free
        assert big.start_time == 100.0
        assert small.start_time == 100.0  # starts alongside big (4 cores)

    def test_dequeue_of_blocked_head_starts_its_follower(self, env):
        node = make_grid_node(env, cpu=make_cpu(cores=4))
        node.submit(cpu_job(cores=3, duration=100.0))
        big = cpu_job(cores=3, duration=10.0)
        small = cpu_job(cores=1, duration=10.0)
        node.submit(big)
        node.submit(small)
        env.run(until=20.0)
        assert node.dequeue(big)
        assert small.start_time == 20.0  # not the runner's finish at 100
        assert big.start_time is None
        assert not node.dequeue(big)  # no longer queued
        assert not node.dequeue(small)  # running, not queued

    def test_fail_loses_jobs(self, env):
        node = make_grid_node(env, cpu=make_cpu(cores=1))
        running = cpu_job(duration=100.0)
        queued = cpu_job(duration=100.0)
        node.submit(running)
        node.submit(queued)
        lost = node.fail()
        assert set(j.job_id for j in lost) == {running.job_id, queued.job_id}
        env.run()
        assert running.finish_time is None
        with pytest.raises(RuntimeError):
            node.submit(cpu_job())

    def test_node_utilization_pools_all_ces(self, env):
        node = make_grid_node(
            env,
            cpu=make_cpu(cores=4),
            gpus=[make_gpu(0, cores=4)],
        )
        node.submit(cpu_job(cores=2, duration=100.0))
        assert node.node_utilization() == pytest.approx(2 / 8)


#: one step of a node's life: submit a CPU job (cores) or a GPU job, withdraw
#: the i-th job submitted so far, let time run (jobs finish, queues
#: dispatch), or crash the node
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("cpu"), st.integers(1, 3)),
        st.tuples(st.just("gpu"), st.just(0)),
        st.tuples(st.just("dequeue"), st.integers(0, 40)),
        st.tuples(st.just("advance"), st.integers(1, 150)),
        st.tuples(st.just("fail"), st.just(0)),
    ),
    max_size=40,
)


class TestQueuedCounter:
    """``queued_jobs()`` is a counter kept by the four calls that change a
    CE queue; after any sequence of them it equals what the queues hold."""

    @settings(max_examples=200, deadline=None)
    @given(steps=_STEPS)
    def test_counter_matches_the_queues(self, steps):
        from repro.sim.core import Environment

        env = Environment()
        node = make_grid_node(
            env,
            cpu=make_cpu(cores=3),
            gpus=[make_gpu(0)],
        )
        submitted = []
        for op, arg in steps:
            if op in ("cpu", "gpu") and node.alive:
                job = cpu_job(cores=arg, duration=60.0) if op == "cpu" else (
                    gpu_job(duration=90.0)
                )
                submitted.append(job)
                node.submit(job)
            elif op == "dequeue" and submitted:
                node.dequeue(submitted[arg % len(submitted)])
            elif op == "advance":
                env.run(until=env.now + arg)
            elif op == "fail":
                node.fail()
            assert node.queued_jobs() == sum(
                len(ce.queue) for ce in node.ces.values()
            )
