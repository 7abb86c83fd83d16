"""Unit tests for the resource-to-coordinate mapping."""

import pytest

from repro.can.space import ResourceSpace
from repro.model.ce import CPU_SLOT

from tests.conftest import cpu_job, gpu_job, make_cpu, make_gpu, make_node_spec


class TestDimensionLayout:
    @pytest.mark.parametrize(
        "gpu_slots,expected_dims", [(0, 5), (1, 8), (2, 11), (3, 14)]
    )
    def test_paper_dimension_counts(self, gpu_slots, expected_dims):
        """Section III-A: 5-d for CPU-only, +3 per GPU slot, 11-d for 2 GPUs."""
        assert ResourceSpace(gpu_slots=gpu_slots).dims == expected_dims

    def test_virtual_is_last(self):
        space = ResourceSpace(gpu_slots=2)
        assert space.labels()[-1] == "virtual"
        assert space.dims == 11
        assert space.dimensions[-1].is_virtual

    def test_labels(self):
        space = ResourceSpace(gpu_slots=1)
        assert space.labels() == (
            "cpu.clock",
            "cpu.memory",
            "cpu.disk",
            "cpu.cores",
            "gpu0.clock",
            "gpu0.memory",
            "gpu0.cores",
            "virtual",
        )

    def test_slots(self):
        assert ResourceSpace(gpu_slots=2).slots() == ("cpu", "gpu0", "gpu1")

    def test_negative_gpu_slots(self):
        with pytest.raises(ValueError):
            ResourceSpace(gpu_slots=-1)


class TestNodeCoordinates:
    def test_all_dims_in_unit_box(self):
        space = ResourceSpace(gpu_slots=2)
        spec = make_node_spec(
            0, cpu=make_cpu(clock=3.0, memory=32, disk=1000, cores=8),
            gpus=[make_gpu(0, clock=2.0, memory=4, cores=512)],
        )
        coord = space.node_coordinate(spec, virtual=0.3)
        assert len(coord) == 11
        assert all(0.0 <= c < 1.0 for c in coord)
        assert coord[-1] == 0.3

    def test_missing_gpu_maps_to_zero(self):
        space = ResourceSpace(gpu_slots=2)
        spec = make_node_spec(0)  # CPU only
        coord = space.node_coordinate(spec, virtual=0.5)
        gpu_dims = [d.index for d in space.dimensions if d.slot.startswith("gpu")]
        assert all(coord[i] == 0.0 for i in gpu_dims)

    def test_monotone_in_capability(self):
        space = ResourceSpace(gpu_slots=0)
        weak = space.node_coordinate(
            make_node_spec(0, cpu=make_cpu(clock=1.0, memory=2)), 0.5
        )
        strong = space.node_coordinate(
            make_node_spec(1, cpu=make_cpu(clock=3.0, memory=32)), 0.5
        )
        clock_dim = space.labels().index("cpu.clock")
        mem_dim = space.labels().index("cpu.memory")
        assert strong[clock_dim] > weak[clock_dim]
        assert strong[mem_dim] > weak[mem_dim]

    def test_values_above_bound_clip(self):
        space = ResourceSpace(gpu_slots=0)
        spec = make_node_spec(0, cpu=make_cpu(clock=100.0))
        coord = space.node_coordinate(spec, 0.0)
        assert coord[0] < 1.0  # clipped, still inside the box

    def test_virtual_range_validated(self):
        space = ResourceSpace(gpu_slots=0)
        with pytest.raises(ValueError):
            space.node_coordinate(make_node_spec(0), 1.0)


class TestJobCoordinates:
    def test_unspecified_requirements_map_to_origin(self):
        space = ResourceSpace(gpu_slots=2)
        coord = space.job_coordinate(cpu_job(), virtual=0.0)
        assert all(c == 0.0 for c in coord)

    def test_specified_requirements_shift_coordinate(self):
        space = ResourceSpace(gpu_slots=0)
        loose = space.job_coordinate(cpu_job(), 0.1)
        tight = space.job_coordinate(cpu_job(clock=2.0, memory=16), 0.1)
        clock_dim = space.labels().index("cpu.clock")
        mem_dim = space.labels().index("cpu.memory")
        assert tight[clock_dim] > loose[clock_dim]
        assert tight[mem_dim] > loose[mem_dim]

    def test_node_meets_job_iff_coordinatewise_dominates(self):
        """The CAN's core invariant: capability ⟺ coordinate dominance
        (for fully-specified requirements on present CEs)."""
        space = ResourceSpace(gpu_slots=0)
        spec = make_node_spec(
            0, cpu=make_cpu(clock=2.0, memory=8, disk=100, cores=4)
        )
        node_coord = space.node_coordinate(spec, 0.9)
        job = cpu_job(cores=2, clock=1.0, memory=4, disk=50)
        job_coord = space.job_coordinate(job, 0.0)
        real_dims = range(space.dims - 1)
        assert all(node_coord[i] >= job_coord[i] for i in real_dims)

    def test_single_core_requirement_is_unconstrained(self):
        # cores=1 means "any CPU" — maps to 0 so every node qualifies
        space = ResourceSpace(gpu_slots=0)
        coord = space.job_coordinate(cpu_job(cores=1), 0.0)
        cores_dim = space.labels().index("cpu.cores")
        assert coord[cores_dim] == 0.0


class TestClampPoint:
    def test_interior_points_pass_through(self):
        space = ResourceSpace(gpu_slots=0)
        point = (0.1, 0.5, 0.0, 0.25, 0.999)
        assert space.clamp_point(point) == point

    def test_boundary_pulled_inside_half_open_zones(self):
        # zones are half-open [lo, hi): exactly 1.0 belongs to no zone
        space = ResourceSpace(gpu_slots=0)
        clamped = space.clamp_point((1.0,) * space.dims)
        assert all(c < 1.0 for c in clamped)
        assert all(c >= 1.0 - 1e-8 for c in clamped)
