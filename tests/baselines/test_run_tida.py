"""``run_tida`` against the hand-built §V oracle, trace for trace.

With the knobs pinned, the catalog Program run through the planner must
issue exactly the operations the hand-written loop issues: same trace,
same causal DAG, same elapsed time, same counters (the planner's own
``plan.*`` bookkeeping aside).  Variable-coefficient heat is the one
workload where the planner is *meant* to differ: it elides ``kappa``'s
refills, so only the result digest must match.
"""

import json
import tracemalloc

import pytest

from repro.baselines.hand_built import run_hand_built
from repro.baselines.tida_runners import run_tida
from repro.bench.simspeed import _fingerprint
from repro.check.explore import digest

CASES = {
    "heat": ("heat", dict(shape=(32, 16, 16), steps=2, n_regions=8)),
    "wave": ("wave", dict(shape=(48, 48), steps=3, n_regions=8)),
    "compute": ("compute", dict(shape=(64, 16, 16), steps=2, n_regions=8)),
    # two ghosted fields streaming through 3 pinned slots each
    "heat-limited": ("heat", dict(shape=(48, 24, 24), steps=2, n_regions=8,
                                  n_slots=3, device_memory_limit=310_000)),
}


def _without_plan_counters(counters_json):
    return {k: v for k, v in json.loads(counters_json).items()
            if not k.startswith("plan.")}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_dag_elapsed_counters_match_hand_built(case):
    workload, kw = CASES[case]
    planned = _fingerprint(run_tida(workload, check="observe", **kw))
    hand = _fingerprint(run_hand_built(workload, check="observe", **kw))
    trace, dag, counters, elapsed = planned
    assert trace == hand[0]
    assert dag == hand[1]
    assert _without_plan_counters(counters) == _without_plan_counters(hand[2])
    assert elapsed == hand[3]


def test_coeff_heat_matches_naive_digest_with_elisions():
    kw = dict(shape=(32, 16, 16), steps=3, n_regions=8, n_slots=2,
              device_memory_limit=98_304, functional=True, check="observe")
    planned = run_tida("coeff-heat", **kw)
    naive = run_hand_built("coeff-heat", **kw)
    assert digest(planned.result) == digest(naive.result)
    assert planned.meta["fills_elided"] > 0


def test_timing_mode_builds_no_initial_arrays():
    field_bytes = 256 ** 3 * 8  # one 128 MiB float64 field
    tracemalloc.start()
    try:
        run_tida("heat", shape=(256, 256, 256), steps=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < field_bytes // 8
