"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.model.ce import CESpec, CPU_SLOT, gpu_slot
from repro.model.job import CERequirement, Job
from repro.model.node import GridNode, NodeSpec
from repro.sim.core import Environment


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


def make_cpu(clock=1.0, memory=8.0, disk=100.0, cores=4) -> CESpec:
    return CESpec(
        slot=CPU_SLOT, clock=clock, memory=memory, disk=disk, cores=cores
    )


def make_gpu(slot_index=0, clock=1.0, memory=2.0, cores=128) -> CESpec:
    return CESpec(
        slot=gpu_slot(slot_index),
        clock=clock,
        memory=memory,
        cores=cores,
        dedicated=True,
    )


def make_node_spec(node_id=0, cpu=None, gpus=()) -> NodeSpec:
    ces = [cpu or make_cpu()]
    ces.extend(gpus)
    return NodeSpec(node_id=node_id, ces=tuple(ces))


def make_grid_node(env, node_id=0, cpu=None, gpus=()) -> GridNode:
    return GridNode(make_node_spec(node_id, cpu, gpus), env)


def cpu_job(cores=1, clock=0.0, memory=0.0, disk=0.0, duration=100.0, **kw) -> Job:
    return Job(
        requirements={
            CPU_SLOT: CERequirement(
                cores=cores, clock=clock, memory=memory, disk=disk
            )
        },
        base_duration=duration,
        **kw,
    )


def gpu_job(
    slot_index=0,
    gpu_cores=64,
    gpu_clock=0.0,
    gpu_memory=0.0,
    duration=100.0,
    **kw,
) -> Job:
    return Job(
        requirements={
            gpu_slot(slot_index): CERequirement(
                cores=gpu_cores, clock=gpu_clock, memory=gpu_memory
            ),
            CPU_SLOT: CERequirement(cores=1),
        },
        base_duration=duration,
        **kw,
    )


def build_overlay(coords, gpu_slots=0) -> CanOverlay:
    """Overlay from explicit coordinates (dims must match the space)."""
    space = ResourceSpace(gpu_slots=gpu_slots)
    overlay = CanOverlay(space)
    for i, coord in enumerate(coords):
        overlay.add_node(i, coord)
    return overlay


@pytest.fixture
def space5() -> ResourceSpace:
    return ResourceSpace(gpu_slots=0)  # 5 dims


@pytest.fixture
def space11() -> ResourceSpace:
    return ResourceSpace(gpu_slots=2)  # 11 dims
