"""Lookahead prefetch pipeline: scheduler units, eviction-policy hit-rate
ordering, functional safety under both traversal orders, the dedicated
write-back queue, and the reduce_field multi-field readiness fix."""

import numpy as np
import pytest

from repro.baselines.common import default_init
from repro.baselines.tida_runners import run_tida
from repro.core.library import TidaAcc
from repro.core.prefetch import DEFAULT_PREFETCH_DEPTH, PrefetchScheduler
from repro.core.tile_acc import TileAcc
from repro.cuda.runtime import CudaRuntime
from repro.kernels.compute_intensive import compute_intensive_kernel
from repro.kernels.reductions import dot_reduction
from repro.openacc.runtime import AccRuntime
from repro.tida.tile_array import TileArray


def cache_total(metrics, stat):
    return sum(v for k, v in metrics["counters"].items()
               if k.startswith(f"cache.{stat}."))


def run_sweep(machine, *, order, prefetch_depth=None, eviction="lru",
              steps=3, seed=11):
    """Drive compute() through a TileIterator for a few cyclic sweeps."""
    lib = TidaAcc(machine, functional=True,
                  prefetch_depth=prefetch_depth, eviction=eviction)
    lib.add_array("data", (24, 24), n_regions=6, halo=0, n_slots=3)
    lib.field("data").from_global(default_init((24, 24), 0))
    kernel = compute_intensive_kernel(1)
    for _ in range(steps):
        it = lib.iterator("data", order=order, seed=seed).reset(gpu=True)
        while it.is_valid():
            lib.compute(it, kernel, params={"kernel_iteration": 1})
            it.next()
    result = lib.gather("data")
    return result, lib.metrics.snapshot()


class _FakeIterator:
    def __init__(self, known):
        self.schedule_known = known


class TestPrefetchScheduler:
    def test_depth_resolution_precedence(self):
        sched = PrefetchScheduler()
        known = _FakeIterator(True)
        assert sched.resolve_depth(None) == 0
        assert sched.resolve_depth(_FakeIterator(False)) == 0
        assert sched.resolve_depth(known) == DEFAULT_PREFETCH_DEPTH
        assert sched.resolve_depth(known, override=5) == 5
        assert sched.resolve_depth(known, override=0) == 0

    def test_library_default_between_override_and_builtin(self):
        sched = PrefetchScheduler(default_depth=3)
        known = _FakeIterator(True)
        assert sched.resolve_depth(known) == 3
        assert sched.resolve_depth(known, override=1) == 1
        # even an explicit override cannot enable speculation blind
        assert sched.resolve_depth(_FakeIterator(False), override=4) == 0

    def test_negative_default_rejected(self):
        with pytest.raises(ValueError):
            PrefetchScheduler(default_depth=-1)


class TestEvictionPolicyOrdering:
    def test_lookahead_beats_lru_and_modulo_on_cyclic_sweep(self, machine):
        """Demand paging only (depth 0): on a cyclic sweep of 6 regions
        over 3 slots, LRU always evicts the next-needed region (zero
        hits), the paper's modulo mapping conflict-misses every access,
        and Belady-style lookahead retains slots across passes."""
        hits = {}
        for eviction in ("modulo", "lru", "lookahead"):
            _, metrics = run_sweep(machine, order="sequential",
                                   prefetch_depth=0, eviction=eviction)
            hits[eviction] = cache_total(metrics, "hits")
        assert hits["lookahead"] > hits["lru"]
        assert hits["lookahead"] > hits["modulo"]

    def test_all_policies_agree_functionally(self, machine):
        results = [
            run_sweep(machine, order="sequential", prefetch_depth=0,
                      eviction=eviction)[0]
            for eviction in ("modulo", "lru", "lookahead")
        ]
        assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()


class TestPrefetchPipeline:
    def test_sequential_prefetch_is_byte_identical(self, machine):
        base, base_metrics = run_sweep(machine, order="sequential",
                                       prefetch_depth=0, eviction="modulo")
        pf, pf_metrics = run_sweep(machine, order="sequential",
                                   prefetch_depth=2, eviction="lookahead")
        assert base.tobytes() == pf.tobytes()
        assert cache_total(base_metrics, "prefetch_issued") == 0
        assert cache_total(pf_metrics, "prefetch_issued") > 0
        assert cache_total(pf_metrics, "prefetch_useful") > 0
        assert cache_total(pf_metrics, "stall_seconds_avoided") > 0.0

    def test_shuffled_order_degrades_to_demand_paging(self, machine):
        """An unknown schedule must not speculate: no prefetches are
        issued, and the result still matches the sequential sweep (the
        kernel is region-local, so traversal order cannot matter)."""
        base, _ = run_sweep(machine, order="sequential",
                            prefetch_depth=0, eviction="modulo")
        shuf, metrics = run_sweep(machine, order="shuffled",
                                  prefetch_depth=2, eviction="lookahead")
        assert cache_total(metrics, "prefetch_issued") == 0
        assert cache_total(metrics, "prefetch_useful") == 0
        assert base.tobytes() == shuf.tobytes()

    def test_prefetch_faster_than_demand_in_limited_memory(self, machine):
        """Timing mode, the BENCH_prefetch configuration at small scale:
        the pipeline must beat demand paging by a clear margin."""
        common = dict(shape=(128, 128, 128), steps=40, n_regions=12,
                      n_slots=6, kernel_iteration=1)
        demand = run_tida("compute", machine, prefetch_depth=0,
                          eviction="modulo", **common)
        pf = run_tida("compute", machine, prefetch_depth=1,
                      eviction="lookahead", **common)
        assert pf.elapsed < demand.elapsed * 0.85
        assert cache_total(pf.metrics, "stall_seconds_avoided") > 0.0

    def test_writeback_uses_dedicated_queue(self, machine):
        """Eviction D2H rides its own stream so write-back and the
        replacement upload use both copy engines."""
        rt = CudaRuntime(machine, functional=True)
        acc = AccRuntime(rt)
        ta = TileArray((16,), n_regions=4, ghost=0, runtime=rt, label="f")
        mgr = TileAcc(rt, acc, ta, n_slots=2)
        assert mgr._wb_stream.stream_id not in {
            slot.stream.stream_id for slot in mgr.slots
        }
        mgr.request_device(0)
        mgr.request_device(1)
        mgr.request_device(2)          # evicts region 0 with write-back
        evicts = [e for e in rt.trace if e.name.startswith("evict:")]
        assert len(evicts) == 1
        assert evicts[0].category == "d2h"


class TestReduceFieldReadiness:
    def test_partials_download_waits_for_every_field(self, machine):
        """The batched partials D2H must start only after all reduce
        kernels — including ones gated on the *second* field's uploads —
        have completed (regression: it used to wait only on the first
        field's streams)."""
        lib = TidaAcc(machine, functional=True)
        lib.add_array("x", (48,), n_regions=4, halo=0, n_slots=2)
        lib.add_array("y", (48,), n_regions=4, halo=0, n_slots=2)
        a = np.linspace(0.0, 1.0, 48)
        b = np.linspace(2.0, -1.0, 48)
        lib.field("x").from_global(a)
        lib.field("y").from_global(b)
        val = lib.reduce_field(["x", "y"], dot_reduction())
        assert val == pytest.approx(float(np.dot(a, b)))
        kernels = [e for e in lib.trace if e.name.startswith("reduce:")]
        partials = [e for e in lib.trace if e.name.startswith("d2h:partials")]
        assert kernels and len(partials) == 1
        assert partials[0].start >= max(e.end for e in kernels) - 1e-12
