"""Seeded hazard mutants: schedules with a sync edge deliberately removed.

Each mutant is a correct program minus exactly one ordering edge — the
kind of bug the checker exists to catch.  Every mutant MUST be detected
(the acceptance bar for this suite); each one is paired with its fixed
twin to prove the detection is the mutation's fault, not noise.

The library-level mutants patch one ordering mechanism out of
:class:`~repro.core.tile_acc.TileAcc` and run a real workload under
``check="strict"``: dropping the mechanism must abort the run with
:class:`~repro.errors.HazardError`.
"""

import pytest

from repro.baselines.tida_runners import run_tida
from repro.core.tile_acc import TileAcc
from repro.cuda.kernel import KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.errors import HazardError


@pytest.fixture
def rt(machine):
    return CudaRuntime(machine, check="strict")


def touch_kernel(arg_access):
    return KernelSpec(
        name="touch", body=None, bytes_per_cell=8.0, flops_per_cell=1.0,
        arg_access=arg_access,
    )


class TestDroppedAfterEdge:
    """Mutant 1: a producer/consumer `after=` dependency removed."""

    def test_fixed_twin_is_clean(self, rt):
        a = rt.malloc(1024, label="a")
        b = rt.malloc(1024, label="b")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        end = rt.memcpy_async(b, h, s1)
        rt.launch(touch_kernel(("w", "r")), buffers=[a, b], n_cells=128,
                  stream=s2, after=end)
        assert rt.checker.hazards == []

    def test_mutant_raw_detected(self, rt):
        a = rt.malloc(1024, label="a")
        b = rt.malloc(1024, label="b")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(b, h, s1)
        with pytest.raises(HazardError) as exc:
            # MUTATION: after=end dropped — the kernel may read b before
            # its upload lands
            rt.launch(touch_kernel(("w", "r")), buffers=[a, b], n_cells=128,
                      stream=s2)
        assert exc.value.hazard.kind == "RAW"
        assert exc.value.hazard.buffer == "b"


class TestDroppedWaitBeforeOverwrite:
    """Mutant 2: host overwrites a buffer a kernel still reads (WAR)."""

    def test_fixed_twin_is_clean(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        end = rt.launch(touch_kernel(("r",)), buffers=[a], n_cells=128, stream=s1)
        rt.memcpy_async(a, h, s2, after=end)
        assert rt.checker.hazards == []

    def test_mutant_war_detected(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.launch(touch_kernel(("r",)), buffers=[a], n_cells=128, stream=s1)
        with pytest.raises(HazardError) as exc:
            # MUTATION: the upload no longer waits for the reader
            rt.memcpy_async(a, h, s2)
        assert exc.value.hazard.kind == "WAR"
        assert exc.value.hazard.buffer == "a"


class TestDroppedWriterOrdering:
    """Mutant 3: two writers of one buffer on different engines (WAW)."""

    def test_fixed_twin_is_clean(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        end = rt.memcpy_async(a, h, s1)
        rt.launch(touch_kernel(("w",)), buffers=[a], n_cells=128,
                  stream=s2, after=end)
        assert rt.checker.hazards == []

    def test_mutant_waw_detected(self, rt):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h, s1)  # H2D engine writes a
        with pytest.raises(HazardError) as exc:
            # MUTATION: compute engine writes a with no edge to the copy
            rt.launch(touch_kernel(("w",)), buffers=[a], n_cells=128, stream=s2)
        assert exc.value.hazard.kind == "WAW"


class TestDroppedStreamWaitEvent:
    """Mutant 4: the cudaStreamWaitEvent of an event-synced pipeline removed."""

    def _pipeline(self, rt, *, wait: bool):
        a = rt.malloc(1024, label="a")
        h = rt.malloc_pinned(1024, label="h")
        s1, s2 = rt.create_stream(), rt.create_stream()
        ev = rt.create_event()
        rt.memcpy_async(a, h, s1)
        rt.event_record(ev, s1)
        if wait:
            rt.stream_wait_event(s2, ev)
        rt.memcpy_async(h, a, s2)

    def test_fixed_twin_is_clean(self, rt):
        self._pipeline(rt, wait=True)
        assert rt.checker.hazards == []

    def test_mutant_detected(self, rt):
        with pytest.raises(HazardError):
            # MUTATION: event recorded but never waited on
            self._pipeline(rt, wait=False)


class TestFifoLuckStaysWarning:
    """Severity control: an engine-FIFO-ordered mutant is NOT racy.

    Dropping the edge between two same-engine writers leaves them ordered
    by the copy engine's FIFO — a fragile program, but not a racy one.
    The checker must say "warning", not kill the run.
    """

    def test_same_engine_mutant_warns_but_completes(self, rt):
        a = rt.malloc(1024, label="a")
        h1 = rt.malloc_pinned(1024, label="h1")
        h2 = rt.malloc_pinned(1024, label="h2")
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(a, h1, s1)
        rt.memcpy_async(a, h2, s2)  # same H2D engine: FIFO luck
        assert rt.checker.counts() == {"warning": 1, "error": 0}


SMALL_HEAT = dict(shape=(48, 24, 24), steps=1, n_regions=8, n_slots=3,
                  device_memory_limit=310_000, functional=True)
SMALL_COMPUTE = dict(shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
                     device_memory_limit=70_000, functional=True)


class TestTileAccReadyDepsMutant:
    """Mutant 5: TileAcc stops exporting per-region readiness deps.

    ``device_ready_deps`` is how cross-stream consumers (kernels, ghost
    exchange) learn what they must wait for.  Returning an empty tuple
    silently drops every one of those edges — the workload must abort
    under strict checking.
    """

    def test_fixed_twin_is_clean(self):
        res = run_tida("heat", check="strict", **SMALL_HEAT)
        assert res.metrics["counters"].get("check.hazards", 0) == 0

    def test_mutant_detected(self, monkeypatch):
        monkeypatch.setattr(
            TileAcc, "device_ready_deps", lambda self, rid: (), raising=True
        )
        with pytest.raises(HazardError):
            run_tida("heat", check="strict", **SMALL_HEAT)


class TestSlotBarrierMutant:
    """Mutant 6: the per-slot upload barrier leaks away after eviction.

    An eviction write-back (D2H on the dedicated write-back stream) and
    the replacement upload (H2D on the slot stream) share a device
    buffer; ``_slot_after`` is the only edge between them.  Clearing it
    after ``_evict`` reintroduces the write-back/upload race.
    """

    def test_fixed_twin_is_clean(self):
        res = run_tida("compute", check="strict", **SMALL_COMPUTE)
        assert res.meta["device_memory_limit"] is not None
        assert res.metrics["counters"].get("check.hazards", 0) == 0
        # the workload genuinely evicts (else this mutant tests nothing)
        evictions = sum(v for k, v in res.metrics["counters"].items()
                        if k.startswith("cache.evictions."))
        assert evictions > 0

    def test_mutant_detected(self, monkeypatch):
        orig = TileAcc._evict

        def leaky_evict(self, slot):
            end = orig(self, slot)
            self._slot_after.clear()  # MUTATION: drop the barrier
            return end

        monkeypatch.setattr(TileAcc, "_evict", leaky_evict, raising=True)
        with pytest.raises(HazardError):
            run_tida("compute", check="strict", **SMALL_COMPUTE)
