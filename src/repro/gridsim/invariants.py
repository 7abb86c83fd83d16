"""Cross-layer invariant checks for the churn simulations.

A faulty-grid run mutates four coupled structures — the ground-truth
overlay, the believed protocol state, the grid-node population, and the
per-job lifecycle — and a bug in any hand-off between them tends to show
up as a *silent* accounting leak rather than an exception.  These checkers
make the leaks loud.  They are pure observers (no mutation), cheap enough
to run every few heartbeat rounds, and raise :class:`InvariantViolation`
(an ``AssertionError`` subclass) with a description of the broken
invariant.

The checkers are substrate-agnostic: they consume only the
:class:`~repro.overlay.OverlaySubstrate` /
:class:`~repro.overlay.MaintenanceProtocol` surfaces, so the same audit
runs over a CAN or a Chord ring.

Checked for a :class:`~repro.gridsim.faulty.FaultyGridSimulation`:

* the substrate's own structural invariants, via the protocol-surface
  ``overlay.check_invariants()`` — for CAN, the zone cover partitions the
  space with symmetric adjacency; for Chord, the sorted ring is a
  bijection whose arcs cover the full key circle and whose derived
  successor/predecessor/finger structure matches an independent scan;
* the maintenance protocol's books balance against the overlay
  (:func:`_check_protocol`, shared with :func:`check_churn_invariants`):
  channel accounting, ``members == initial + joins - leaves - claims`` and
  ``alive == members - (failures - claims)`` from ``protocol.events``,
  protocol state for exactly the members, stored-copy holders all live,
  and failed-but-unclaimed nodes exactly the dead members;
* the grid-node population mirrors the overlay's alive set;
* every non-finished job is exactly one of: not yet submitted, queued or
  running on a live node, awaiting detection / between retries (in the
  recovery tracker), abandoned, or unplaced-at-arrival;
* the recovery ledger balances:
  ``jobs_lost == jobs_resubmitted + jobs_abandoned + pending``.

For a finished run, :func:`check_matchmaking_accounting` additionally
asserts the result identity
``placed + unplaced + lost + abandoned == submitted``.
"""

from __future__ import annotations


__all__ = [
    "InvariantViolation",
    "check_faulty_invariants",
    "check_churn_invariants",
    "check_matchmaking_accounting",
    "check_service_accounting",
]


class InvariantViolation(AssertionError):
    """A simulation invariant does not hold."""


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def _job_on_node(node, job) -> bool:
    """Is ``job`` currently queued or running on ``node``?"""
    for ce in node.ces.values():
        if job in ce.queue or job in ce.running:
            return True
    return False


def check_matchmaking_accounting(result) -> None:
    """placed + unplaced + lost + abandoned == submitted."""
    placed = int(result.started)
    total = (
        placed
        + result.unplaced_jobs
        + result.lost_jobs
        + result.abandoned_jobs
    )
    if total != result.jobs_submitted:
        _fail(
            "job accounting leak: "
            f"placed={placed} + unplaced={result.unplaced_jobs} + "
            f"lost={result.lost_jobs} + abandoned={result.abandoned_jobs} "
            f"= {total} != submitted={result.jobs_submitted}"
        )


def check_service_accounting(service, final: bool) -> None:
    """Invariants of a (possibly mid-run) :class:`~repro.service.GridService`.

    The live-service analogue of :func:`check_matchmaking_accounting`,
    phrased over the persistent ledger instead of a result object:

    * ledger statuses partition the submissions (every job is in exactly
      one status, so the counts sum to the number of rows);
    * the recovery tracker's loss ledger balances;
    * every node's queued-job count equals what its CE queues hold;
    * no job has more than one recorded ``RUNNING -> COMPLETED`` edge
      (the zero-duplicate-execution guarantee across restarts);
    * every ``MATCHED``/``RUNNING`` job is actually queued or running on
      a live node;
    * with ``final=True``: nothing is in flight — terminal states account
      for every submission.
    """
    from ..service.ledger import TERMINAL_STATES, JobStatus

    ledger = service.ledger
    counts = ledger.counts()
    records = ledger.records()
    if sum(counts.values()) != len(records):
        _fail(
            f"ledger status counts sum to {sum(counts.values())} "
            f"but hold {len(records)} jobs"
        )

    if not service.tracker.balances():
        t = service.tracker
        _fail(
            "recovery ledger leak: "
            f"lost={t.losses} != resubmitted={t.resubmissions} "
            f"+ abandoned={t.abandonments} + pending={len(t.pending)}"
        )

    for node in service.grid_nodes.values():
        in_queues = sum(len(ce.queue) for ce in node.ces.values())
        if node.queued_jobs() != in_queues:
            _fail(
                f"node {node.node_id} counts {node.queued_jobs()} queued "
                f"jobs but its CE queues hold {in_queues}"
            )

    for record in records:
        completions = ledger.completions(record.job_id)
        if completions > 1:
            _fail(
                f"job {record.job_id} completed {completions} times "
                "(duplicate execution)"
            )
        if record.status is JobStatus.COMPLETED and completions != 1:
            _fail(
                f"job {record.job_id} is COMPLETED with {completions} "
                "recorded completion transitions"
            )
        if record.status in (JobStatus.MATCHED, JobStatus.RUNNING):
            node = service.grid_nodes.get(record.node_id)
            if node is None or not node.alive:
                _fail(
                    f"job {record.job_id} is {record.status.value} on "
                    f"dead/unknown node {record.node_id}"
                )
            job = service._jobs.get(record.job_id)
            if job is None or not _job_on_node(node, job):
                _fail(
                    f"job {record.job_id} is {record.status.value} on node "
                    f"{record.node_id} but neither queued nor running there"
                )

    if final:
        in_flight = [r for r in records if r.status not in TERMINAL_STATES]
        if in_flight:
            _fail(
                f"{len(in_flight)} jobs still in flight after the service "
                f"drained: {[r.job_id for r in in_flight[:5]]}"
            )
        if service.tracker.has_pending():
            _fail(
                f"{len(service.tracker.pending)} jobs still pending "
                "recovery after the service drained"
            )


def _check_overlay(overlay) -> None:
    try:
        overlay.check_invariants()
    except AssertionError:
        raise
    except Exception as exc:  # OverlayError and friends
        _fail(f"overlay invariants violated: {exc}")


def check_faulty_invariants(sim, final: bool = False) -> None:
    """All invariants of a (possibly mid-run) FaultyGridSimulation."""
    _check_overlay(sim.overlay)
    # the grid adopts its preset population into the protocol in one step
    _check_protocol(sim.overlay, sim.protocol, initial=sim.config.preset.nodes)

    alive = set(sim.overlay.alive_ids())
    grid_ids = set(sim.grid_nodes)
    if alive != grid_ids:
        _fail(
            "grid population out of sync with overlay: "
            f"overlay-only={sorted(alive - grid_ids)[:5]} "
            f"grid-only={sorted(grid_ids - alive)[:5]}"
        )

    # recovery ledger
    tracker = sim.tracker
    if not tracker.balances():
        _fail(
            "recovery ledger leak: "
            f"lost={tracker.losses} != resubmitted={tracker.resubmissions} "
            f"+ abandoned={tracker.abandonments} + pending={len(tracker.pending)}"
        )

    _check_job_states(sim, final)

    if final and tracker.has_pending():
        _fail(
            f"{len(tracker.pending)} jobs still pending recovery "
            "after the run drained"
        )


def _check_job_states(sim, final: bool) -> None:
    """Every non-finished job is in exactly one legitimate state."""
    pending_ids = set(sim.tracker.pending)
    for index, job in enumerate(sim.jobs):
        if job.finish_time is not None:
            continue
        jid = job.job_id
        if jid in pending_ids:
            continue  # awaiting detection or between retries
        if jid in sim.abandoned_ids or jid in sim.unplaced_ids:
            continue
        if job.run_node_id is not None:
            node = sim.grid_nodes.get(job.run_node_id)
            if node is None or not node.alive:
                _fail(
                    f"job {jid} claims dead/unknown run node "
                    f"{job.run_node_id} yet is not tracked as lost"
                )
            if not _job_on_node(node, job):
                _fail(
                    f"job {jid} assigned to node {job.run_node_id} but "
                    "neither queued nor running there"
                )
            continue
        if index >= sim._submitted:
            continue  # not yet submitted (mid-run)
        _fail(
            f"job {jid} submitted but in no state: not placed, not lost, "
            "not abandoned, not unplaced"
        )


def _check_network(protocol) -> None:
    """Channel accounting: every attempted send delivered xor dropped.

    Holds mid-flight under any scenario (loss, latency, flap storms):
    the network model has two entry points (``transmit``, and
    ``transmit_many`` for a sender's turn or a fan-out at once) with one
    verdict order, and both have counted every verdict by the time they
    return, so a send path that bypassed the channel or double-counted a
    verdict shows up as an accounting leak here.
    """
    net = getattr(protocol, "net", None)
    if net is None or net.is_identity:
        return
    if net.attempts != net.delivered + net.dropped:
        _fail(
            f"network accounting leak: {net.attempts} attempts != "
            f"{net.delivered} delivered + {net.dropped} dropped"
        )
    if net.delivered < 0 or any(v < 0 for v in net.drops.values()):
        _fail(f"negative network counter: {net.counters()}")
    for entry in getattr(protocol, "_deferred", ()):
        arrival, sent_at = entry[0], entry[-1]
        if arrival <= sent_at:
            _fail(
                f"deferred delivery travels back in time: "
                f"sent {sent_at}, arrives {arrival}"
            )


def _check_protocol(overlay, protocol, initial: int) -> None:
    """A maintenance protocol's books against the overlay it maintains.

    ``initial`` is how many members the protocol started with before its
    first join: one bootstrap node for a churn run, the whole adopted
    population for a faulty grid.
    """
    _check_network(protocol)
    ev = protocol.events

    # membership ledger: the initial members, then joins/leaves/claims
    expected_members = initial + ev["joins"] - ev["leaves"] - ev["claims"]
    if len(overlay.members) != expected_members:
        _fail(
            f"membership ledger leak: {len(overlay.members)} members, "
            f"expected {expected_members}"
        )
    alive = set(overlay.alive_ids())
    expected_alive = expected_members - (ev["failures"] - ev["claims"])
    if len(alive) != expected_alive:
        _fail(
            f"population ledger leak: {len(alive)} alive, "
            f"expected {expected_alive}"
        )

    # protocol-state mirrors: every member has protocol state and failed-
    # but-unclaimed nodes are exactly the dead members
    members = set(overlay.members)
    if set(protocol.nodes) != members:
        _fail("protocol node set out of sync with overlay membership")
    # the stored-copy index names live holders (read only: ends no streak)
    for subject_id, holders in protocol._stored_in.items():
        if not holders <= protocol.nodes.keys():
            _fail(f"stored copies of {subject_id} indexed at departed holders")
    dead = members - alive
    if set(protocol._fail_times) != dead:
        _fail(
            "fail-time ledger out of sync: "
            f"{sorted(set(protocol._fail_times) ^ dead)[:5]}"
        )


def check_churn_invariants(sim) -> None:
    """Invariants of a (possibly mid-run) ChurnSimulation."""
    _check_overlay(sim.overlay)
    # a churn run grows from one bootstrap node
    _check_protocol(sim.overlay, sim.protocol, initial=1)
