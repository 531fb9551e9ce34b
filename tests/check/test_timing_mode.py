"""Timing-only mode: bit-identical schedules, no numerics.

The tentpole property of the timing fast path (``mode="timing"``): a
timing-only run executes the exact same scheduling decisions as a
functional run — its trace, causal DAG, and non-numeric metric counters
are *byte-identical* — while skipping every array operation and
host/device copy.  The differential here asserts that identity on each
workload family and, property-based, across the whole scheduling knob
space (eviction × prefetch depth × slot count × visit order × transfer
faults with retries).

The flip side: a timing run has no numbers.  Requesting them —
``gather``, ``scatter``, a buffer's ``.array`` — must raise
:class:`~repro.errors.TimingModeError` naming the fix, never return
garbage silently.
"""

import json
from functools import partial

import conftest
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.tida_runners import run_tida
from repro.check.dag import dag_to_json
from repro.core.library import TidaAcc
from repro.cuda.runtime import CudaRuntime, _resolve_mode
from repro.errors import CudaInvalidValueError, TimingModeError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.multi.heat import run_multi_gpu_heat

WORKLOADS = {
    "heat": (partial(run_tida, "heat"),
             dict(shape=(32, 16, 16), steps=2, n_regions=8)),
    "wave": (partial(run_tida, "wave"), dict(shape=(48, 48), steps=3, n_regions=8)),
    "limited-memory": (partial(run_tida, "compute"),
                       dict(shape=(64, 16, 16), steps=2, n_regions=8,
                            n_slots=3, device_memory_limit=70_000)),
    "multi-gpu": (run_multi_gpu_heat,
                  dict(shape=(32, 16, 16), steps=2, n_devices=2,
                       regions_per_device=4)),
}


def fingerprint(res):
    """Trace + DAG + counters + elapsed: what both modes must agree on."""
    return (
        json.dumps(res.trace.to_chrome_trace(), sort_keys=True),
        json.dumps(dag_to_json(res.dag or []), sort_keys=True),
        json.dumps(res.metrics["counters"], sort_keys=True),
        res.elapsed,
    )


class TestModeResolution:
    def test_mode_overrides_functional_flag(self, machine):
        rt = CudaRuntime(machine, functional=True, mode="timing")
        assert rt.functional is False
        assert rt.mode == "timing"

    def test_mode_none_defers_to_functional(self, machine):
        assert CudaRuntime(machine, functional=True).mode == "functional"
        assert CudaRuntime(machine, functional=False).mode == "timing"

    def test_unknown_mode_rejected(self):
        with pytest.raises(CudaInvalidValueError, match="mode"):
            _resolve_mode(True, "replay")  # replay is not a *runtime* mode

    def test_library_exposes_mode(self, machine):
        assert TidaAcc(machine, mode="timing").mode == "timing"
        assert TidaAcc(machine, functional=True).mode == "functional"


class TestByteIdenticalSchedules:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_trace_dag_metrics_identical(self, name):
        fn, kw = WORKLOADS[name]
        functional = fingerprint(
            fn(mode="functional", check="observe", **kw))
        timing = fingerprint(fn(mode="timing", check="observe", **kw))
        for part, a, b in zip(("trace", "dag", "counters", "elapsed"),
                              functional, timing):
            assert a == b, f"{name}: {part} differs between modes"

    def test_timing_run_reports_its_mode(self):
        fn, kw = WORKLOADS["heat"]
        assert fn(mode="timing", **kw).meta["mode"] == "timing"
        assert fn(mode="functional", **kw).meta["mode"] == "functional"


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=conftest.schedule_configs(),
       faults=st.sampled_from([None, "h2d:p=0.1; seed=9",
                               "copy:p=0.08; launch:p=0.04; seed=3"]))
def test_modes_identical_across_schedule_space(cfg, faults):
    """Functional vs timing differential over the whole knob space.

    Any draw — eviction policy, prefetch depth, slot count, shuffled
    order, fault plan with retries — must schedule identically in both
    modes; fault injection and recovery decisions are part of the
    schedule, so they too must not depend on numerics being present.
    """
    base = dict(
        shape=(64, 16, 16), steps=2, n_regions=8,
        device_memory_limit=70_000, check="observe",
        eviction=cfg["eviction"], prefetch_depth=cfg["prefetch_depth"],
        n_slots=cfg["n_slots"],
        order="sequential" if cfg["order_seed"] is None else "shuffled",
        order_seed=cfg["order_seed"],
    )
    if faults is not None:
        base["retry"] = RetryPolicy(max_attempts=8)
    fps = []
    for mode in ("functional", "timing"):
        kw = dict(base)
        if faults is not None:
            # each run needs a fresh plan: plans are stateful iterators
            kw["faults"] = FaultPlan.from_spec(faults)
        fps.append(fingerprint(run_tida("compute", mode=mode, **kw)))
    for part, a, b in zip(("trace", "dag", "counters", "elapsed"), *fps):
        assert a == b, f"{part} differs between modes for {cfg}, {faults}"


class TestTimingModeRefusesNumerics:
    """A timing run must fail loudly when numbers are requested."""

    def test_gather_raises(self, machine):
        lib = TidaAcc(machine, mode="timing")
        lib.add_array("u", (32, 32), n_regions=4, halo=0)
        with pytest.raises(TimingModeError, match="timing"):
            lib.gather("u")

    def test_scatter_raises(self, machine):
        import numpy as np

        lib = TidaAcc(machine, mode="timing")
        lib.add_array("u", (32, 32), n_regions=4, halo=0)
        with pytest.raises(TimingModeError, match='mode="timing"'):
            lib.scatter("u", np.zeros((32, 32)))

    def test_device_buffer_array_raises(self, machine):
        rt = CudaRuntime(machine, mode="timing")
        buf = rt.malloc(128, label="d")
        with pytest.raises(TimingModeError, match="functional"):
            buf.array

    def test_host_buffer_array_raises(self, machine):
        rt = CudaRuntime(machine, mode="timing")
        buf = rt.malloc_pinned(128, label="h")
        with pytest.raises(TimingModeError, match="functional"):
            buf.array

    def test_error_is_a_cuda_invalid_value(self):
        # callers catching the runtime's argument errors keep working
        assert issubclass(TimingModeError, CudaInvalidValueError)

    def test_functional_mode_unaffected(self, machine):
        lib = TidaAcc(machine, mode="functional")
        lib.add_array("u", (16, 16), n_regions=4, halo=0)
        assert lib.gather("u").shape == (16, 16)
