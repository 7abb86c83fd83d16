"""Unit tests for jobs and the dominant-CE rule."""

import pytest

from repro.model.ce import CPU_SLOT, gpu_slot
from repro.model.job import CERequirement, Job

from tests.conftest import cpu_job, gpu_job


class TestCERequirement:
    def test_defaults(self):
        req = CERequirement()
        assert req.cores == 1
        assert req.clock == req.memory == req.disk == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CERequirement(cores=0)
        with pytest.raises(ValueError):
            CERequirement(clock=-1)

    def test_demand_grows_with_cores_and_memory(self):
        low = CERequirement(cores=1, memory=1)
        high = CERequirement(cores=4, memory=8)
        assert high.demand() > low.demand()


class TestJob:
    def test_requires_at_least_one_slot(self):
        with pytest.raises(ValueError):
            Job(requirements={}, base_duration=10)

    def test_positive_duration(self):
        with pytest.raises(ValueError):
            cpu_job(duration=0)

    def test_unique_ids(self):
        assert cpu_job().job_id != cpu_job().job_id

    def test_dominant_slot_cpu_only(self):
        assert cpu_job().dominant_slot == CPU_SLOT

    def test_dominant_slot_is_gpu_for_gpu_jobs(self):
        job = gpu_job(gpu_cores=64)
        assert job.dominant_slot == gpu_slot(0)
        assert job.requirements[job.dominant_slot].cores == 64

    def test_dominant_slot_picks_biggest_demand(self):
        job = Job(
            requirements={
                CPU_SLOT: CERequirement(cores=8, memory=32),
                gpu_slot(0): CERequirement(cores=1, memory=1),
            },
            base_duration=10,
        )
        assert job.dominant_slot == CPU_SLOT

    def test_dominant_tie_breaks_deterministically(self):
        job = Job(
            requirements={
                "gpu1": CERequirement(cores=4, memory=4),
                "gpu0": CERequirement(cores=4, memory=4),
            },
            base_duration=10,
        )
        assert job.dominant_slot == "gpu0"

    def test_cores_on(self):
        job = gpu_job(gpu_cores=64)
        assert job.cores_on(gpu_slot(0)) == 64
        assert job.cores_on(CPU_SLOT) == 1
        assert job.cores_on("gpu7") == 0

    def test_wait_time_lifecycle(self):
        job = cpu_job()
        assert job.wait_time is None
        job.enqueue_time = 10.0
        assert job.wait_time is None
        job.start_time = 25.0
        assert job.wait_time == 15.0

    def test_turnaround(self):
        job = cpu_job(submit_time=5.0)
        assert job.turnaround is None
        job.finish_time = 105.0
        assert job.turnaround == 100.0
