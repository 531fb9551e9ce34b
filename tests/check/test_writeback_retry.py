"""Regression: eviction write-back racing a retried upload on the same slot.

The bug: ``TileAcc._upload`` ordered the replacement H2D after the
eviction's D2H write-back via a *local* completion time.  When a
transient fault killed the first upload attempt, ``_with_retry``
re-issued it — and the re-issue recomputed the barrier from a
now-empty slot (0.0), so the retried upload could overwrite the device
buffer while the write-back was still reading it (the write-back runs on
the dedicated write-back stream, the upload on the slot stream: no
stream-FIFO order between them).

The fix stores the barrier in ``TileAcc._slot_after``, keyed by slot,
and never clears it on consumption — a re-issue sees the same edge.
These tests pin both halves: the scenario is genuinely exercised
(evictions *and* retried uploads occur) and stays hazard-free and
byte-identical to the fault-free run.
"""

import pytest

from repro.baselines.tida_runners import run_tida
from repro.check.explore import digest
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy

WORKLOAD = dict(
    shape=(64, 16, 16), steps=3, n_regions=8, n_slots=3,
    device_memory_limit=70_000, functional=True,
)
# h2d faults make upload attempts fail *after* their slot's eviction
# already ran — exactly the re-issue-vs-write-back interleaving
FAULTS = "h2d:p=0.25; seed=3"


@pytest.fixture(scope="module")
def faulted_run():
    return run_tida(
        "compute", check="observe",
        faults=FaultPlan.from_spec(FAULTS),
        retry=RetryPolicy(max_attempts=12),
        **WORKLOAD,
    )


class TestScenarioIsExercised:
    """Guard rails: if these fail the regression test tests nothing."""

    def test_evictions_happened(self, faulted_run):
        counters = faulted_run.metrics["counters"]
        assert sum(v for k, v in counters.items()
                   if k.startswith("cache.evictions.")) > 0
        assert sum(v for k, v in counters.items()
                   if k.startswith("cache.writebacks.")) > 0

    def test_uploads_were_retried(self, faulted_run):
        counters = faulted_run.metrics["counters"]
        assert counters.get("faults.retries", 0) > 0
        assert counters.get("faults.recovered", 0) > 0


class TestNoRace:
    def test_no_hazards_under_retry(self, faulted_run):
        counters = faulted_run.metrics["counters"]
        assert counters.get("check.hazards.racy", 0) == 0
        assert counters.get("check.hazards", 0) == 0
        assert counters.get("check.ops", 0) > 0  # the checker was armed

    def test_recovery_byte_identical_to_fault_free(self, faulted_run):
        clean = run_tida("compute", **WORKLOAD)
        assert digest(faulted_run.result) == digest(clean.result)

    def test_strict_mode_accepts_the_schedule(self):
        run_tida(
            "compute", check="strict",
            faults=FaultPlan.from_spec(FAULTS),
            retry=RetryPolicy(max_attempts=12),
            **WORKLOAD,
        )  # would raise HazardError on a regression
