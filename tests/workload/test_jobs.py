"""Unit tests for job-stream generation."""

import numpy as np
import pytest

from repro.model.ce import CPU_SLOT
from repro.workload import jobs as jobs_module
from repro.workload.jobs import JobDistribution, arrival_times, generate_jobs
from repro.workload.nodes import generate_node_specs


@pytest.fixture
def nodes(rng):
    return generate_node_specs(100, 2, rng)


class TestArrivalTimes:
    def test_monotone_increasing(self, rng):
        times = arrival_times(200, 3.0, rng)
        assert (np.diff(times) > 0).all()

    def test_mean_interarrival(self, rng):
        times = arrival_times(5000, 3.0, rng)
        assert np.diff(times).mean() == pytest.approx(3.0, rel=0.1)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            arrival_times(0, 3.0, rng)
        with pytest.raises(ValueError):
            arrival_times(10, 0.0, rng)


class TestGenerateJobs:
    def test_every_job_satisfiable(self, nodes, rng):
        jobs = generate_jobs(200, nodes, 2, 3.0, rng, JobDistribution())
        assert len(jobs) == 200
        for job in jobs:
            assert any(
                _satisfies(spec, job.requirements) for spec in nodes
            ), f"{job} unsatisfiable"

    def test_every_job_uses_cpu(self, nodes, rng):
        for job in generate_jobs(100, nodes, 2, 3.0, rng, JobDistribution()):
            assert CPU_SLOT in job.requirements

    def test_gpu_fraction_respected(self, nodes, rng):
        dist = JobDistribution(gpu_job_fraction=0.5)
        jobs = generate_jobs(400, nodes, 2, 3.0, rng, dist)
        gpu_jobs = sum(1 for j in jobs if j.dominant_slot != CPU_SLOT)
        assert 0.35 < gpu_jobs / len(jobs) < 0.65

    def test_zero_gpu_slots_means_cpu_only(self, rng):
        cpu_nodes = generate_node_specs(50, 0, rng)
        jobs = generate_jobs(100, cpu_nodes, 0, 3.0, rng, JobDistribution())
        assert all(set(j.requirements) == {CPU_SLOT} for j in jobs)

    def test_durations_in_paper_range(self, nodes, rng):
        """Section V-A: expected 1 hour, uniform in [0.5 h, 1.5 h]."""
        jobs = generate_jobs(300, nodes, 2, 3.0, rng, JobDistribution())
        durations = np.array([j.base_duration for j in jobs])
        assert durations.min() >= 1800.0
        assert durations.max() <= 5400.0
        assert durations.mean() == pytest.approx(3600.0, rel=0.05)

    def test_constraint_ratio_controls_specification(self, nodes):
        def spec_count(ratio, seed=11):
            rng = np.random.default_rng(seed)
            dist = JobDistribution(constraint_ratio=ratio, gpu_job_fraction=0.0)
            jobs = generate_jobs(300, nodes, 2, 3.0, rng, dist)
            total = 0
            for j in jobs:
                req = j.requirements[CPU_SLOT]
                total += sum(
                    1
                    for v in (req.clock, req.memory, req.disk)
                    if v > 0
                ) + (1 if req.cores > 1 else 0)
            return total

        assert spec_count(0.8) > spec_count(0.4) > spec_count(0.0)

    def test_zero_ratio_yields_unconstrained_jobs(self, nodes, rng):
        dist = JobDistribution(constraint_ratio=0.0, gpu_job_fraction=0.0)
        for job in generate_jobs(50, nodes, 2, 3.0, rng, dist):
            req = job.requirements[CPU_SLOT]
            assert req.clock == req.memory == req.disk == 0.0
            assert req.cores == 1

    def test_impossible_distribution_raises(self, rng, monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_RESAMPLE", 5)
        weak = generate_node_specs(3, 0, rng)
        from repro.workload.distributions import Tiered

        impossible = JobDistribution(
            gpu_job_fraction=0.0,
            constraint_ratio=1.0,
            cpu_req_clock=Tiered(tiers=((1.0, 50.0, 60.0),)),
        )
        with pytest.raises(RuntimeError):
            generate_jobs(10, weak, 0, 3.0, rng, impossible)

    def test_submit_times_assigned(self, nodes, rng):
        jobs = generate_jobs(50, nodes, 2, 2.0, rng, JobDistribution())
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)
        assert times[0] > 0


def _satisfies(spec, reqs):
    for slot, req in reqs.items():
        ce = spec.ce_spec(slot)
        if ce is None:
            return False
        if (
            ce.clock < req.clock
            or ce.memory < req.memory
            or ce.disk < req.disk
            or ce.cores < req.cores
        ):
            return False
    return True


class TestSecondaryGpuRequirements:
    def test_high_ratio_produces_dual_gpu_jobs(self, nodes):
        rng = np.random.default_rng(4)
        dist = JobDistribution(constraint_ratio=0.8, gpu_job_fraction=1.0)
        jobs = generate_jobs(400, nodes, 2, 3.0, rng, dist)
        dual = sum(1 for j in jobs if len(j.requirements) == 3)
        assert dual > 10  # ~20% of GPU jobs at ratio 0.8

    def test_ratio_scales_dual_gpu_frequency(self, nodes):
        def dual_count(ratio):
            rng = np.random.default_rng(4)
            dist = JobDistribution(constraint_ratio=ratio, gpu_job_fraction=1.0)
            jobs = generate_jobs(400, nodes, 2, 3.0, rng, dist)
            return sum(1 for j in jobs if len(j.requirements) == 3)

        assert dual_count(0.8) > dual_count(0.2)

    def test_single_gpu_slot_never_dual(self, rng):
        single = generate_node_specs(60, 1, rng)
        dist = JobDistribution(constraint_ratio=1.0, gpu_job_fraction=1.0)
        jobs = generate_jobs(100, single, 1, 3.0, rng, dist)
        assert all(len(j.requirements) <= 2 for j in jobs)

    def test_dual_gpu_jobs_satisfiable(self, nodes, rng):
        dist = JobDistribution(constraint_ratio=0.9, gpu_job_fraction=1.0)
        jobs = generate_jobs(200, nodes, 2, 3.0, rng, dist)
        for job in jobs:
            assert any(_satisfies(s, job.requirements) for s in nodes)
