"""Benchmark-local checks: one seed gives one set of deterministic results.

Run from the repository root::

    python3 -m pytest perfbench/test_determinism.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import workloads as wl  # noqa: E402

#: End-to-end metrics that depend on the seed alone, never on the host.
DETERMINISTIC = (
    "virtual_makespan_s", "overlap_frac", "utilization", "job_latency_ms_p50",
    "job_latency_ms_p99", "priority_latency_ms_p90", "ok_frac",
)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_deterministic_metrics(workload):
    runs = [wl.run(workload, 3, 0.0) for _ in range(2)]
    first, second = (wl.end_to_end(m, 0.0) for m in runs)
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
    assert runs[0].records == runs[1].records
    assert first["ok_frac"] == 1.0


@pytest.mark.parametrize("workload", sorted(wl.SOLVERS))
def test_other_seed_moves_virtual_time(workload):
    spec = wl.SOLVERS[workload]
    times = {wl.run_solver(spec, seed, 0.0, check=spec.check)
             .records[0]["virtual_makespan_s"] for seed in (3, 4)}
    assert len(times) == 2


@pytest.mark.parametrize("workload", sorted(wl.SOLVERS))
def test_functional_twin_matches_timing_schedule_and_reference(workload):
    assert wl.solver_twin_ok(wl.SOLVERS[workload], 3)
