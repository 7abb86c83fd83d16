"""The fused, incremental aggregation step against the kernel it replaced.

``ReferenceEngine`` keeps the previous implementation — one ``np.add.at``
scatter per dimension over per-dimension edge lists, and every node's own
record rebuilt from its ``GridNode`` on every step — with the engine's
topology rule: surviving nodes keep their rows, a newcomer's starts from
its own record.  The production engine
must match it bit for bit (``np.array_equal``, never ``allclose``) after
any schedule of load changes and topology changes, while recomputing only
the own-load rows whose node changed.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.aggregation import NF, AggregationEngine
from repro.can.overlay import CanOverlay
from repro.can.space import ResourceSpace
from repro.model import contention
from repro.model.node import GridNode
from repro.overlay.base import SubstrateError
from repro.sim.core import Environment

from tests.can.test_aggregation import line_overlay
from tests.conftest import cpu_job, gpu_job, make_cpu, make_gpu, make_node_spec


@pytest.fixture(autouse=True)
def no_contention(monkeypatch):
    """Co-runners add nothing to a job's duration."""
    monkeypatch.setattr(contention, "ALPHA", 0.0)


class ReferenceEngine:
    """The per-dimension ``np.add.at`` kernel with full own-record rebuilds."""

    def __init__(self, overlay, grid_nodes):
        self.overlay = overlay
        self.space = overlay.space
        self.grid_nodes = grid_nodes
        self.version = -1
        self.ids = []
        self.ai = None

    def _ensure_topology(self):
        if self.version == self.overlay.topology_version:
            return
        self.version = self.overlay.topology_version
        row_of = {nid: i for i, nid in enumerate(self.ids)}
        self.ids = sorted(self.overlay.alive_ids())
        index = {nid: i for i, nid in enumerate(self.ids)}
        n = len(self.ids)
        self.csr = []
        for dim in range(self.space.dims):
            flat, rows, counts = [], [], np.zeros(n)
            for i, nid in enumerate(self.ids):
                out = [
                    index[other]
                    for other in self.overlay.neighbors_along(nid, dim)
                    if other in index
                ]
                flat.extend(out)
                rows.extend([i] * len(out))
                counts[i] = len(out)
            self.csr.append(
                (np.asarray(flat, np.int64), np.asarray(rows, np.int64), counts)
            )
        # survivors keep their rows, newcomers start from their own record
        ai = self.own_records()
        for i, nid in enumerate(self.ids):
            if nid in row_of:
                ai[:, i] = self.ai[:, row_of[nid]]
        self.ai = ai

    def own_records(self):
        n = len(self.ids)
        own = np.zeros((self.space.dims, n, NF))
        pool_required, pool_cores, free = np.zeros(n), np.zeros(n), np.zeros(n)
        slot_stats = {slot: np.zeros((n, 4)) for slot in self.space.slots()}
        for i, nid in enumerate(self.ids):
            gnode = self.grid_nodes.get(nid)
            if gnode is None:
                continue
            free[i] = 1.0 if gnode.is_free() else 0.0
            for slot, ce in gnode.ces.items():
                req = float(ce.required_cores())
                cores = float(ce.spec.cores)
                if slot in slot_stats:
                    slot_stats[slot][i] = (
                        req,
                        cores,
                        float(ce.job_queue_size),
                        1.0 if ce.idle else 0.0,
                    )
                pool_required[i] += req
                pool_cores[i] += cores
        for dim in self.space.dimensions:
            d = dim.index
            own[d, :, 0] = 1.0
            own[d, :, 1] = free
            if not dim.is_virtual:
                own[d, :, 2:6] = slot_stats[dim.slot]
            own[d, :, 6] = pool_required
            own[d, :, 7] = pool_cores
        return own

    def step(self):
        self._ensure_topology()
        own = self.own_records()
        new = np.empty_like(self.ai)
        for d in range(self.space.dims):
            flat, rows, counts = self.csr[d]
            if flat.size == 0:
                new[d] = own[d]
                continue
            sums = np.zeros_like(own[d])
            np.add.at(sums, rows, self.ai[d][flat])
            new[d] = own[d] + sums / np.where(counts == 0, 1.0, counts)[:, None]
        self.ai = new


class World:
    """A small heterogeneous grid both engines watch."""

    def __init__(self, nodes, seed):
        self.rng = np.random.default_rng(seed)
        self.space = ResourceSpace(gpu_slots=1)
        self.overlay = CanOverlay(self.space)
        self.env = Environment()
        self.grid = {}
        self.ids = itertools.count()
        while len(self.grid) < nodes:
            self.join()
        self.engine = AggregationEngine(self.overlay, self.grid)
        self.reference = ReferenceEngine(self.overlay, self.grid)

    def _new_node(self, node_id):
        rng = self.rng
        cpu = make_cpu(
            clock=float(rng.uniform(0.5, 3.5)), cores=int(rng.integers(1, 9))
        )
        gpus = [make_gpu(0, clock=float(rng.uniform(0.5, 2.0)))] * int(
            rng.integers(2)
        )
        spec = make_node_spec(node_id, cpu=cpu, gpus=gpus)
        return GridNode(spec, self.env)

    def join(self):
        node = self._new_node(next(self.ids))
        coord = self.space.node_coordinate(node.spec, float(self.rng.random()))
        try:
            self.overlay.add_node(node.node_id, coord)
        except SubstrateError:
            return  # zone owned by a ghost, or a coordinate collision
        self.grid[node.node_id] = node

    def _pick(self, r):
        ids = sorted(self.grid)
        return self.grid[ids[r % len(ids)]]

    def submit(self, r):
        node = self._pick(r)
        wants_gpu = "gpu0" in node.ces and r % 3 == 0
        make = gpu_job if wants_gpu else cpu_job
        node.submit(make(duration=float(20 + r % 200)))

    def cancel(self, r):
        node = self._pick(r)
        for ce in node.ces.values():
            if ce.queue:
                assert node.dequeue(ce.queue[r % len(ce.queue)])
                return

    def crash(self, r):
        if len(self.grid) < 2:
            return
        victim = self._pick(r)
        del self.grid[victim.node_id]
        victim.fail()
        self.overlay.fail(victim.node_id)
        if r % 2:  # otherwise the zone lingers with its ghost
            self.overlay.claim_zones(victim.node_id)

    def swap(self, r):
        """Replace a GridNode object behind the engine's back."""
        node = self._pick(r)
        self.grid[node.node_id] = self._new_node(node.node_id)

    def advance(self, r):
        self.env.run(until=self.env.now + 1 + r % 600)

    def probe(self, r):
        """A matchmaker's read between steps (re-indexes after churn, so a
        newcomer's row is its own record as of now, on both engines)."""
        self.engine.advertised(self._pick(r).node_id, r % self.space.dims)
        self.reference._ensure_topology()

    def step_and_compare(self):
        self.engine.step()
        self.reference.step()
        assert np.array_equal(self.engine._own, self.reference.own_records())
        assert np.array_equal(self.engine._ai, self.reference.ai)


OPS = [
    "submit", "submit", "submit", "advance", "advance", "step", "step",
    "cancel", "join", "crash", "swap", "probe",
]
op = st.tuples(st.sampled_from(OPS), st.integers(0, 2**31 - 1))


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    ops=st.lists(op, max_size=60),
)
def test_fused_incremental_step_matches_reference(nodes, seed, ops):
    world = World(nodes, seed)
    world.step_and_compare()
    for kind, r in ops:
        if kind == "step":
            world.step_and_compare()
        elif kind == "join":
            world.join()
        else:
            getattr(world, kind)(r)
    world.step_and_compare()
    world.step_and_compare()


def test_every_load_change_reaches_the_own_records():
    # one node through submit, queueing, dispatch on finish, dequeue and
    # fail(): each must advance GridNode.load_version
    world = World(6, seed=1)
    world.step_and_compare()
    node = world.grid[0]
    cores = node.ces["cpu"].spec.cores
    running = cpu_job(cores=cores, duration=100.0)
    queued = [cpu_job(cores=cores, duration=100.0) for _ in range(3)]
    for job in [running, *queued]:
        node.submit(job)
        world.step_and_compare()
    world.env.step()  # the only pending event: running finishes
    assert running.finish_time is not None
    assert queued[0].start_time is not None and queued[1].start_time is None
    world.step_and_compare()
    assert node.dequeue(queued[2])
    world.step_and_compare()
    world.env.run(until=1e6)
    assert node.is_free()
    world.step_and_compare()
    node.submit(cpu_job(cores=cores, duration=100.0))
    node.submit(cpu_job(cores=cores, duration=100.0))
    world.step_and_compare()
    node.fail()  # still in grid_nodes: its cleared queue must show
    world.step_and_compare()


def test_single_node_overlay_has_no_edges():
    world = World(1, seed=0)
    world.submit(1)
    for _ in range(3):
        world.step_and_compare()
    assert world.engine._edge_src.size == 0


def test_dimensions_without_outward_neighbors():
    # a row of nodes along cpu.clock: every other dimension has no edge
    overlay, grid, _ = line_overlay(5)
    engine = AggregationEngine(overlay, grid)
    reference = ReferenceEngine(overlay, grid)
    grid[3].submit(cpu_job(cores=2, duration=1e6))
    for _ in range(6):
        engine.step()
        reference.step()
        assert np.array_equal(engine._ai, reference.ai)
    n = len(grid)
    clock_dim = overlay.space.labels().index("cpu.clock")
    edge_dims = set(engine._edge_dst // n)
    assert edge_dims == {clock_dim}


class TestRowsRefreshed:
    def test_idle_grid_refreshes_nothing(self):
        world = World(10, seed=3)
        world.engine.run_rounds(2)
        before = world.engine.rows_refreshed
        world.engine.run_rounds(5)
        assert world.engine.rows_refreshed == before

    def test_exactly_the_changed_rows(self):
        world = World(10, seed=3)
        world.step_and_compare()
        for k in range(4):
            before = world.engine.rows_refreshed
            for node_id in sorted(world.grid)[:k]:
                world.grid[node_id].submit(cpu_job(duration=1e6))
                world.grid[node_id].submit(cpu_job(duration=1e6))
            world.step_and_compare()
            assert world.engine.rows_refreshed - before == k

    def test_topology_change_rebuilds_every_row_once(self):
        world = World(10, seed=3)
        world.step_and_compare()
        world.join()
        assert len(world.grid) == 11
        before = world.engine.rows_refreshed
        world.step_and_compare()
        assert world.engine.rows_refreshed - before == len(world.engine._ids)
        world.step_and_compare()
        assert world.engine.rows_refreshed - before == len(world.engine._ids)
