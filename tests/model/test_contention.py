"""Unit tests for the contention model."""

import pytest

from repro.model import contention
from repro.model.ce import ComputingElement
from repro.model.contention import execution_time

from tests.conftest import cpu_job, make_cpu, make_gpu


def slowdown(ce: ComputingElement) -> float:
    """The contention factor a job starting on ``ce`` would get."""
    return execution_time(100.0, ce) * ce.spec.clock / 100.0


class TestContentionModel:
    def test_no_corunners_no_slowdown(self, monkeypatch):
        monkeypatch.setattr(contention, "ALPHA", 0.5)
        ce = ComputingElement(make_cpu(cores=4))
        assert slowdown(ce) == 1.0

    def test_linear_in_corunners(self, monkeypatch):
        monkeypatch.setattr(contention, "ALPHA", 0.2)
        monkeypatch.setattr(contention, "MAX_FACTOR", 10.0)
        ce = ComputingElement(make_cpu(cores=8))
        ce.attach(cpu_job(), 1)
        assert slowdown(ce) == pytest.approx(1.2)
        ce.attach(cpu_job(), 1)
        assert slowdown(ce) == pytest.approx(1.4)

    def test_capped_at_max_factor(self, monkeypatch):
        monkeypatch.setattr(contention, "ALPHA", 1.0)
        monkeypatch.setattr(contention, "MAX_FACTOR", 2.0)
        ce = ComputingElement(make_cpu(cores=8))
        for _ in range(5):
            ce.attach(cpu_job(), 1)
        assert slowdown(ce) == 2.0

    def test_dedicated_ce_never_contends(self, monkeypatch):
        monkeypatch.setattr(contention, "ALPHA", 1.0)
        ce = ComputingElement(make_gpu())
        assert slowdown(ce) == 1.0

    def test_execution_time_scales_with_clock(self, monkeypatch):
        monkeypatch.setattr(contention, "ALPHA", 0.0)
        slow = ComputingElement(make_cpu(clock=1.0))
        fast = ComputingElement(make_cpu(clock=2.0))
        assert execution_time(100.0, slow) == pytest.approx(100.0)
        assert execution_time(100.0, fast) == pytest.approx(50.0)

    def test_execution_time_includes_contention(self):
        """The default coefficients: a co-runner costs 15 %, up to 2.5x."""
        ce = ComputingElement(make_cpu(clock=1.0, cores=16))
        ce.attach(cpu_job(), 1)
        assert execution_time(100.0, ce) == pytest.approx(115.0)
        for _ in range(11):
            ce.attach(cpu_job(), 1)
        assert execution_time(100.0, ce) == pytest.approx(250.0)

    def test_invalid_duration(self):
        """A non-positive duration never reaches the model: the job is
        rejected when it is built."""
        with pytest.raises(ValueError):
            cpu_job(duration=0.0)
