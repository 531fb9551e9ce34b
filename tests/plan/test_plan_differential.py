"""Property-based planner conformance: planner-derived == hand-built.

Hypothesis draws a scheduling configuration (eviction × prefetch × slot
count × visit order — ``schedule_configs`` in ``tests/conftest.py``) and
the property is that the catalog run (``run_tida``) is byte-identical to
the hand-built §V oracle (``run_hand_built``) under the same knobs, with
zero racy hazards on either side.  Random initial data, which the oracle
does not take, is checked against the pure-numpy solve.  A timing-mode
leg additionally pins the planned functional and timing traces to each
other (the elision bookkeeping must not depend on numerics).
"""

import conftest
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.common import reference_heat
from repro.baselines.hand_built import run_hand_built
from repro.baselines.tida_runners import run_tida
from repro.bench.simspeed import _fingerprint
from repro.check.explore import digest

# two ghosted fields under a limit that holds 2 × n_slots(≤4) slots
HEAT = dict(shape=(48, 24, 24), steps=2, n_regions=8,
            device_memory_limit=400_000, functional=True)
# three ghosted fields, one a read-only coefficient, under pressure
# (the limit holds 3 × n_slots(≤4) slots of ~15.5 kB but not 24 regions)
COEFF = dict(shape=(32, 16, 16), steps=3, n_regions=8,
             device_memory_limit=200_000, functional=True)

slow_sim = settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_config(runner, workload, base, cfg):
    return runner(
        workload, check="observe",
        eviction=cfg["eviction"],
        prefetch_depth=cfg["prefetch_depth"],
        n_slots=cfg["n_slots"],
        order="sequential" if cfg["order_seed"] is None else "shuffled",
        order_seed=cfg["order_seed"],
        **base,
    )


def racy(res):
    return res.metrics["counters"].get("check.hazards.racy", 0)


@slow_sim
@given(cfg=conftest.schedule_configs())
def test_planned_heat_matches_hand_built(cfg):
    hand = run_config(run_hand_built, "heat", HEAT, cfg)
    planned = run_config(run_tida, "heat", HEAT, cfg)
    assert digest(planned.result) == digest(hand.result), cfg
    assert racy(hand) == 0 and racy(planned) == 0, cfg


@slow_sim
@given(cfg=conftest.schedule_configs())
def test_planned_coeff_heat_matches_naive_baseline(cfg):
    hand = run_config(run_hand_built, "coeff-heat", COEFF, cfg)
    planned = run_config(run_tida, "coeff-heat", COEFF, cfg)
    assert digest(planned.result) == digest(hand.result), cfg
    assert racy(hand) == 0 and racy(planned) == 0, cfg
    # the identity is not vacuous: the planned side really elided traffic
    assert planned.meta["fills_elided"] > 0, cfg
    assert planned.meta["halo_bytes_saved"] > 0, cfg


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=conftest.schedule_configs(),
       init=conftest.initial_fields((48, 24, 24)))
def test_random_initial_data_agrees(cfg, init):
    # the oracle runs the catalog's initial condition only, so random
    # data is checked against the pure-numpy solve instead
    planned = run_config(run_tida, "heat", dict(HEAT, initial=init), cfg)
    ref = reference_heat(np.pad(init, 1), HEAT["steps"])
    assert digest(planned.result) == digest(ref), cfg


@pytest.mark.parametrize("workload,kwargs", [
    ("heat", dict(shape=(32, 16, 16), steps=2, n_regions=8, eviction=None)),
    ("coeff-heat",
     dict(shape=(32, 16, 16), steps=3, n_regions=8, n_slots=2,
          device_memory_limit=98_304, eviction=None)),
])
def test_planned_timing_mode_is_byte_identical(workload, kwargs):
    fps = {}
    for mode in ("functional", "timing"):
        res = run_tida(workload, functional=(mode == "functional"), mode=mode,
                       check="observe", **kwargs)
        fps[mode] = _fingerprint(res)
    for part, a, b in zip(("trace", "dag", "counters", "elapsed"),
                          fps["functional"], fps["timing"]):
        assert a == b, f"{part} differs between functional and timing"
