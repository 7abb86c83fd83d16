"""Self-test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Not part of tier-1 (``testpaths`` stays ``tests``): two ``--quick`` runs of
every workload take about two minutes.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from benchmarks.e2e.manifest import benchmark_json  # noqa: E402


def _quick_run():
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick", "--json"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "all output checks passed" in proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_runs():
    return [_quick_run(), _quick_run()]


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_what_the_code_declares(manifest):
    assert manifest == benchmark_json()


def test_quick_run_emits_exactly_the_declared_names(quick_runs, manifest):
    summary = quick_runs[0]
    assert set(summary) == {w["name"] for w in manifest["workloads"]}
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    per_layer = {m["name"] for m in manifest["per_layer"]}
    for workload, row in summary.items():
        assert set(row["end_to_end"]) == end_to_end, workload
        assert set(row["per_layer"]) == per_layer, workload
        assert all(v > 0 for v in row["end_to_end"].values()), workload
        assert row["failed"] == 0, workload


def test_two_quick_runs_of_one_seed_give_identical_digests(quick_runs):
    first, second = quick_runs
    for workload in first:
        assert first[workload]["digest"] == second[workload]["digest"], workload
    # the four simulators digest their statistics; the service has none
    assert sum(bool(row["digest"]) for row in first.values()) == 4
