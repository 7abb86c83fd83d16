#!/usr/bin/env python
"""Quickstart for the live service: the same grid, over HTTP.

The batch simulators drive the protocol stack (CAN overlay, heartbeats,
heterogeneity-aware matchmaker) under a discrete-event clock.  This example
runs the *identical* stack as a live service instead:

1. open a persistent sqlite job ledger;
2. start a ``GridService`` on an ``AsyncioClock`` (wall clock, dilated so
   an hour of model time passes in under two wall seconds);
3. put the asyncio JSON/REST gateway in front of it on an ephemeral port;
4. submit a recorded workload trace over HTTP with the typed client,
   crash a busy node mid-run, and watch every job reach a terminal state;
5. show that a second service on the same ledger has nothing to recover.

Run:  python examples/service_quickstart.py
"""

import asyncio
import os
import tempfile

from repro.service import (
    AsyncioClock,
    Gateway,
    GridService,
    JobStatus,
    ServiceClient,
    ServiceConfig,
    open_ledger,
)
from repro.service.replay import record_trace, replay_trace
from repro.workload import TINY_LOAD
from repro.workload.trace import load_jobs

DILATION = 2_000.0  # model seconds per wall second


def drive(client: ServiceClient) -> None:
    """Everything HTTP happens here, on a worker thread off the event loop."""
    health = client.health()
    print(f"gateway up: {health['population']} nodes, "
          f"scheme {health['scheme']}, model t={health['now']:.0f}s")

    # replay the first 20 jobs of a recorded fig5-style workload trace
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "workload.jsonl")
        record_trace(TINY_LOAD, trace)
        jobs = load_jobs(trace)[:20]
    summary = replay_trace(client, jobs, timeout=60.0)
    print(f"replayed {summary['submitted']} jobs in "
          f"{summary['wall_seconds']:.1f}s wall: {summary['terminal']}")

    # chaos: crash whichever node is running jobs; the heartbeat protocol
    # detects it and the recovery loop re-places the lost work
    ids = [client.submit(job) for job in jobs[:10]]
    for view in map(client.status, ids):
        if view.status is JobStatus.RUNNING and view.node_id is not None:
            lost = client.fail_node(view.node_id)
            print(f"crashed node {view.node_id}, lost jobs {lost}")
            break
    views = client.wait(ids, timeout=60.0)
    census = {}
    for view in views.values():
        census[view.status.value] = census.get(view.status.value, 0) + 1
    print(f"after recovery: {census}")


async def main() -> None:
    loop = asyncio.get_running_loop()
    clock = AsyncioClock(loop=loop, dilation=DILATION)

    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "ledger.sqlite")
        ledger = open_ledger(db)
        service = GridService(ServiceConfig(preset=TINY_LOAD), ledger, clock)
        gateway = Gateway(service)  # port=0 -> ephemeral
        await gateway.start()
        print(f"listening on {gateway.url}")
        try:
            # the blocking client must not run on the gateway's loop thread
            await asyncio.to_thread(drive, ServiceClient(gateway.url))
        finally:
            await gateway.stop()
            ledger.close()

        # a fresh service on the same sqlite file finds a drained ledger:
        # recover() re-enters only non-terminal jobs, and there are none
        clock2 = AsyncioClock(loop=loop, dilation=DILATION)
        ledger2 = open_ledger(db)
        service2 = GridService(ServiceConfig(preset=TINY_LOAD), ledger2, clock2)
        print(f"restart recovery re-entered {service2.recover()} jobs "
              f"(ledger already terminal)")
        ledger2.close()


if __name__ == "__main__":
    asyncio.run(main())
