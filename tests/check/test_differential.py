"""Property-based differential conformance: scheduling never changes results.

Hypothesis draws a scheduling configuration — eviction policy, prefetch
depth, slot count, shuffled tile-visit order (see
``schedule_configs`` in ``tests/conftest.py``) — and the property is
that the TileAcc-managed run is byte-identical to the canonical
reference schedule (sequential order, LRU, no prefetch) on the same
initial data, with zero racy hazards observed.
"""

import conftest
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.tida_runners import run_tida
from repro.check.explore import digest

COMPUTE = dict(shape=(64, 16, 16), steps=2, n_regions=8,
               device_memory_limit=70_000, functional=True)
# two ghosted fields: the limit must hold 2 × n_slots(≤4) slots of 43 kB
HEAT = dict(shape=(48, 24, 24), steps=2, n_regions=8,
            device_memory_limit=400_000, functional=True)

slow_sim = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def compute_reference():
    res = run_tida("compute", n_slots=3, **COMPUTE)
    return digest(res.result)


@pytest.fixture(scope="module")
def heat_reference():
    res = run_tida("heat", n_slots=3, **HEAT)
    return digest(res.result)


def run_config(workload, base, cfg):
    return run_tida(
        workload, check="observe",
        eviction=cfg["eviction"],
        prefetch_depth=cfg["prefetch_depth"],
        n_slots=cfg["n_slots"],
        order="sequential" if cfg["order_seed"] is None else "shuffled",
        order_seed=cfg["order_seed"],
        **base,
    )


@slow_sim
@given(cfg=conftest.schedule_configs())
def test_compute_schedules_byte_identical(cfg, compute_reference):
    res = run_config("compute", COMPUTE, cfg)
    assert digest(res.result) == compute_reference, cfg
    assert res.metrics["counters"].get("check.hazards.racy", 0) == 0, cfg


@slow_sim
@given(cfg=conftest.schedule_configs())
def test_heat_schedules_byte_identical(cfg, heat_reference):
    res = run_config("heat", HEAT, cfg)
    assert digest(res.result) == heat_reference, cfg
    assert res.metrics["counters"].get("check.hazards.racy", 0) == 0, cfg


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=conftest.schedule_configs(), init=conftest.initial_fields((64, 16, 16)))
def test_random_initial_data_agrees_with_reference_schedule(cfg, init):
    # same random field through both schedules: digests must match even
    # though neither equals the module-scope references
    base = dict(COMPUTE, initial=init)
    res = run_config("compute", base, cfg)
    ref = run_tida("compute", n_slots=3, **base)
    assert digest(res.result) == digest(ref.result), cfg
