"""Qualitative timing properties the paper's figures rest on.

These run at reduced sizes (timing-only mode) and assert orderings, not
absolute values — the same assertions the full-scale benches make.
"""

import pytest

from repro.baselines import (
    run_acc_compute,
    run_acc_heat,
    run_cuda_compute,
    run_cuda_heat,
    run_hybrid_heat,
    run_tida,
)

SHAPE = (96, 96, 96)


class TestFig1Orderings:
    @pytest.fixture(scope="class")
    def times(self):
        out = {}
        for model, runner in (
            ("cuda", run_cuda_heat),
            ("openacc", run_acc_heat),
            ("hybrid", run_hybrid_heat),
        ):
            for memory in ("pageable", "pinned", "managed"):
                out[(model, memory)] = runner(shape=SHAPE, steps=20, memory=memory).elapsed
        return out

    @pytest.mark.parametrize("model", ["cuda", "openacc", "hybrid"])
    def test_pinned_fastest_memory(self, times, model):
        assert times[(model, "pinned")] < times[(model, "pageable")]
        assert times[(model, "pageable")] < times[(model, "managed")]

    @pytest.mark.parametrize("memory", ["pageable", "pinned", "managed"])
    def test_cuda_beats_openacc(self, times, memory):
        assert times[("cuda", memory)] < times[("openacc", memory)]

    def test_hybrid_between_cuda_and_openacc(self, times):
        assert times[("cuda", "pinned")] <= times[("hybrid", "pinned")]
        assert times[("hybrid", "pinned")] <= times[("openacc", "pinned")]


class TestFig5Shape:
    """These orderings only emerge at paper scale, where per-step compute
    dwarfs kernel-launch and ghost overhead — so they run at 512^3 with 16
    regions (timing-only mode makes that cheap)."""

    PAPER_SHAPE = (512, 512, 512)

    def test_tida_wins_at_one_iteration(self):
        base = run_cuda_heat(shape=self.PAPER_SHAPE, steps=1, memory="pageable").elapsed
        pinned = run_cuda_heat(shape=self.PAPER_SHAPE, steps=1, memory="pinned").elapsed
        tida = run_tida("heat", shape=self.PAPER_SHAPE, steps=1, n_regions=16).elapsed
        assert tida < pinned < base

    def test_speedups_converge_with_iterations(self):
        s1 = []
        for steps in (1, 300):
            base = run_cuda_heat(shape=self.PAPER_SHAPE, steps=steps, memory="pageable").elapsed
            tida = run_tida("heat", shape=self.PAPER_SHAPE, steps=steps, n_regions=16).elapsed
            s1.append(base / tida)
        assert s1[0] > 1.5          # clear win when transfer-dominated
        assert s1[1] < s1[0]        # advantage shrinks as compute amortizes
        assert 0.7 < s1[1] < 1.3    # comparable at many iterations

    def test_openacc_lowest(self):
        base = run_cuda_heat(shape=self.PAPER_SHAPE, steps=100, memory="pageable").elapsed
        acc = run_acc_heat(shape=self.PAPER_SHAPE, steps=100, memory="pageable").elapsed
        tida = run_tida("heat", shape=self.PAPER_SHAPE, steps=100, n_regions=16).elapsed
        assert acc > base
        assert acc > tida


class TestFig6Shape:
    def test_math_codegen_ordering(self):
        kw = dict(shape=SHAPE, steps=10, kernel_iteration=16)
        cuda = run_cuda_compute(variant="pageable", **kw).elapsed
        fast = run_cuda_compute(variant="pinned-fastmath", **kw).elapsed
        acc = run_acc_compute(memory="pageable", **kw).elapsed
        tida = run_tida("compute", n_regions=8, **kw).elapsed
        assert fast < cuda
        assert acc < cuda
        assert tida < cuda

    def test_tida_adds_no_overhead_vs_acc(self):
        kw = dict(shape=SHAPE, steps=10, kernel_iteration=16)
        acc = run_acc_compute(memory="pageable", **kw).elapsed
        tida = run_tida("compute", n_regions=8, **kw).elapsed
        assert tida <= acc * 1.05


class TestFig7Fig8Shape:
    N_REGIONS = 8

    def _limit(self):
        region_bytes = (SHAPE[0] * SHAPE[1] * SHAPE[2] // self.N_REGIONS) * 8
        return 2 * region_bytes + region_bytes // 2

    def test_limited_memory_no_performance_loss(self):
        kw = dict(shape=SHAPE, steps=30, n_regions=self.N_REGIONS, kernel_iteration=48)
        full = run_tida("compute", **kw).elapsed
        limited = run_tida("compute", device_memory_limit=self._limit(), **kw).elapsed
        assert limited <= full * 1.05

    def test_limited_memory_uses_two_slots(self):
        r = run_tida("compute", shape=SHAPE, steps=2, n_regions=self.N_REGIONS,
                     device_memory_limit=self._limit())
        assert r.meta["n_slots"] == 2

    def test_full_transfer_overlap(self):
        r = run_tida("compute", shape=SHAPE, steps=5, n_regions=self.N_REGIONS,
                     kernel_iteration=48, device_memory_limit=self._limit())
        assert r.trace.overlap_fraction(["h2d", "d2h"], ["compute"]) > 0.9

    def test_one_region_no_overhead(self):
        kw = dict(shape=SHAPE, steps=30, kernel_iteration=48)
        one = run_tida("compute", n_regions=1, **kw).elapsed
        many = run_tida("compute", n_regions=self.N_REGIONS, **kw).elapsed
        assert abs(one - many) / many < 0.05

    def test_cuda_cannot_run_limited_case(self):
        """The paper's point: plain CUDA OOMs where TiDA-acc streams."""
        from repro.config import k40m_pcie3
        from repro.errors import CudaMemoryAllocationError
        machine = k40m_pcie3()
        with pytest.raises(CudaMemoryAllocationError):
            run_cuda_compute(machine.with_gpu_memory(self._limit(), reserved_bytes=0),
                             shape=SHAPE, steps=1, variant="pinned")


class TestTransferCounts:
    def test_resident_run_transfers_once(self):
        """1000-step resident run must not re-transfer regions each step."""
        r = run_tida("compute", shape=(32, 32, 32), steps=50, n_regions=4)
        h2d = len(r.trace.by_category("h2d"))
        d2h = len(r.trace.by_category("d2h"))
        assert h2d == 4      # one upload per region
        assert d2h == 4      # one download per region at the end

    def test_streaming_run_transfers_each_step(self):
        r = run_tida("compute", shape=(32, 32, 32), steps=10, n_regions=4, n_slots=1)
        h2d = len(r.trace.by_category("h2d"))
        assert h2d == 4 * 10
