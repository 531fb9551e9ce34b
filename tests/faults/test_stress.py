"""Fault-injection stress leg: the CI chaos knob.

The ``REPRO_FAULTS`` environment variable carries a
:meth:`repro.faults.FaultPlan.from_spec` string (the same format as the
``python -m repro bench --faults`` flag).  CI runs this module with a hostile spec;
locally it defaults to a mild plan so the test always exercises the
recovery machinery.
"""

from __future__ import annotations

import os

import numpy as np

from repro.baselines.tida_runners import run_tida
from repro.faults import FaultPlan, RetryPolicy

DEFAULT_SPEC = "h2d:p=0.05; d2h:p=0.05; launch:p=0.03; seed=7"


def test_heat_survives_fault_plan(machine):
    spec = os.environ.get("REPRO_FAULTS", DEFAULT_SPEC)
    kwargs = dict(shape=(48, 48), steps=6, n_regions=4, functional=True)
    clean = run_tida("heat", machine, **kwargs)
    faulted = run_tida(
        "heat", machine, **kwargs,
        faults=FaultPlan.from_spec(spec), retry=RetryPolicy(max_attempts=6),
    )
    counters = faulted.metrics["counters"]
    assert counters.get("faults.injected", 0) > 0, (
        f"spec {spec!r} injected nothing; make it meaner"
    )
    assert counters.get("faults.recovered", 0) > 0
    assert np.array_equal(clean.result, faulted.result), (
        f"recovery under {spec!r} was not byte-identical"
    )
