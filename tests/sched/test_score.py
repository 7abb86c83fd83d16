"""Unit tests for the paper's Equations 1-4."""

import math

import numpy as np
import pytest

from repro.can.aggregation import FIELDS
from repro.sched.score import (
    ai_field,
    ce_score,
    node_score,
    pooled_node_score,
    push_objective,
    stop_probability,
)
from repro.model.ce import ComputingElement

from tests.conftest import cpu_job, gpu_job, make_cpu, make_gpu, make_grid_node

IDX = {name: i for i, name in enumerate(FIELDS)}


def ai_vector(**fields):
    v = np.zeros(len(FIELDS))
    for name, value in fields.items():
        v[IDX[name]] = value
    return v


class TestEquations12:
    def test_eq1_dedicated(self):
        ce = ComputingElement(make_gpu(clock=2.0))
        job = gpu_job()
        ce.attach(job, 64)
        ce.queue.append(gpu_job())
        # (1 running + 1 queued) / clock 2.0
        assert ce_score(ce) == pytest.approx(1.0)

    def test_eq2_non_dedicated(self):
        ce = ComputingElement(make_cpu(clock=2.0, cores=4))
        ce.attach(cpu_job(cores=2), 2)
        assert ce_score(ce) == pytest.approx((2 / 4) / 2.0)

    def test_node_score_uses_dominant_ce(self, env):
        node = make_grid_node(env, cpu=make_cpu(clock=1.0), gpus=[make_gpu(0, clock=2.0)])
        job = gpu_job()
        assert node_score(node, job) == ce_score(node.ces["gpu0"])

    def test_node_score_missing_ce_is_inf(self, env):
        node = make_grid_node(env)  # no GPU
        assert math.isinf(node_score(node, gpu_job()))

    def test_pooled_score_blind_to_ce(self, env):
        """can-hom's score cannot distinguish a loaded GPU from a loaded CPU."""
        node = make_grid_node(
            env, cpu=make_cpu(cores=4), gpus=[make_gpu(0, cores=4)]
        )
        job = gpu_job(gpu_cores=4, duration=1e5)
        node.submit(job)
        pooled_before_unload = pooled_node_score(node)
        assert pooled_before_unload > 0
        # dominant-CE score sees the busy GPU precisely
        assert node_score(node, gpu_job(gpu_cores=4)) > 0


class TestEquation3:
    def test_prefers_more_cores_and_less_demand(self):
        light = ai_vector(slot_required_cores=1, slot_cores=16)
        heavy = ai_vector(slot_required_cores=12, slot_cores=16)
        small = ai_vector(slot_required_cores=1, slot_cores=2)
        assert push_objective(light, True) < push_objective(heavy, True)
        assert push_objective(light, True) < push_objective(small, True)

    def test_zero_cores_is_inf(self):
        assert math.isinf(push_objective(ai_vector(), True))

    def test_pooled_variant_reads_pool_fields(self):
        ai = ai_vector(slot_required_cores=100, slot_cores=1,
                       pool_required_cores=1, pool_cores=10)
        assert push_objective(ai, False) == pytest.approx(1 / 100)
        rows = np.stack([ai, ai])
        assert push_objective(rows, np.array([True, False])).tolist() == [
            push_objective(ai, True), push_objective(ai, False)
        ]


class TestEquation4:
    def test_probability_decreases_with_nodes_beyond(self):
        p_few = stop_probability(1, 2.0)
        p_many = stop_probability(10, 2.0)
        assert p_few > p_many

    def test_stopping_factor_sharpens(self):
        assert stop_probability(5, 4.0) < stop_probability(5, 1.0)

    def test_bounds(self):
        assert stop_probability(0, 1.0) == 1.0
        assert 0 < stop_probability(1000, 1.0) < 1e-2
        assert stop_probability(-3, 1.0) == 1.0  # clamped

    def test_negative_sf_rejected(self):
        with pytest.raises(ValueError):
            stop_probability(1, -1.0)


class TestAiField:
    def test_roundtrip(self):
        ai = ai_vector(num_nodes=7)
        assert ai_field(ai, "num_nodes") == 7.0
        with pytest.raises(ValueError):
            ai_field(ai, "bogus")
