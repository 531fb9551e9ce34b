"""Analytic model and autotuner tests, including model-vs-simulator accuracy."""

import pytest

from repro.baselines import run_tida
from repro.errors import ReproError
from repro.kernels.compute_intensive import compute_intensive_kernel
from repro.kernels.heat import heat_kernel
from repro.model.analytic import estimate_resident, estimate_streaming
from repro.model.autotune import (
    autotune_prefetch_depth,
    autotune_region_count,
    sweep_prefetch_depth,
    sweep_region_counts,
)


class TestStreamingEstimate:
    def test_compute_bound_case(self, machine):
        k = compute_intensive_kernel(48)
        est = estimate_streaming(machine, k, domain_cells=512**3, steps=10, n_regions=16)
        assert est.bottleneck == "compute"
        assert est.total > 0
        assert est.per_step == pytest.approx(est.compute)

    def test_transfer_bound_case(self, machine):
        k = heat_kernel(3)  # memory-light relative to PCIe
        est = estimate_streaming(machine, k, domain_cells=512**3, steps=10, n_regions=16)
        assert est.bottleneck in ("h2d", "d2h")

    def test_scales_linearly_in_steps(self, machine):
        k = compute_intensive_kernel(48)
        e1 = estimate_streaming(machine, k, domain_cells=64**3, steps=10, n_regions=4)
        e2 = estimate_streaming(machine, k, domain_cells=64**3, steps=20, n_regions=4)
        assert e2.total == pytest.approx(2 * e1.total - e1.total + e1.per_step * 10, rel=0.1)

    def test_invalid_args(self, machine):
        k = heat_kernel(3)
        with pytest.raises(ReproError):
            estimate_streaming(machine, k, domain_cells=0, steps=1, n_regions=1)
        with pytest.raises(ReproError):
            estimate_streaming(machine, k, domain_cells=10, steps=0, n_regions=1)


class TestResidentEstimate:
    def test_more_regions_more_overhead(self, machine):
        k = heat_kernel(3)
        e4 = estimate_resident(machine, k, domain_cells=256**3, steps=100, n_regions=4,
                               fields=2, ghost_width=1)
        e64 = estimate_resident(machine, k, domain_cells=256**3, steps=100, n_regions=64,
                                fields=2, ghost_width=1)
        assert e64.per_step > e4.per_step

    def test_ghost_zero_for_single_region(self, machine):
        k = heat_kernel(3)
        est = estimate_resident(machine, k, domain_cells=64**3, steps=10, n_regions=1,
                                fields=2, ghost_width=1)
        assert est.ghost == 0.0

    def test_upload_overlaps_first_step(self, machine):
        """Total is max(h2d, step) + rest, not h2d + everything."""
        k = compute_intensive_kernel(48)
        est = estimate_resident(machine, k, domain_cells=256**3, steps=2, n_regions=8)
        assert est.total < est.h2d + 2 * est.per_step + est.d2h


class TestModelAccuracy:
    """Model-vs-simulator within modest bounds (ablation A3's claim)."""

    @pytest.mark.parametrize("n_regions", [4, 16])
    def test_compute_resident(self, machine, n_regions):
        shape = (128, 128, 128)
        sim = run_tida("compute", machine, shape=shape, steps=10, n_regions=n_regions).elapsed
        mod = estimate_resident(machine, compute_intensive_kernel(48),
                                domain_cells=128**3, steps=10, n_regions=n_regions).total
        assert 0.8 < mod / sim < 1.2

    def test_compute_streaming(self, machine):
        shape = (128, 128, 128)
        region_bytes = (128**3 // 8) * 8
        sim = run_tida("compute", machine, shape=shape, steps=10, n_regions=8,
                       device_memory_limit=2 * region_bytes + region_bytes // 2).elapsed
        mod = estimate_streaming(machine, compute_intensive_kernel(48),
                                 domain_cells=128**3, steps=10, n_regions=8).total
        assert 0.8 < mod / sim < 1.2

    def test_heat_resident(self, machine):
        shape = (256, 256, 256)
        sim = run_tida("heat", machine, shape=shape, steps=10, n_regions=8).elapsed
        mod = estimate_resident(machine, heat_kernel(3), domain_cells=256**3,
                                steps=10, n_regions=8, fields=2, result_fields=1,
                                ghost_width=1).total
        assert 0.6 < mod / sim < 1.4   # looser: BC faces + host work unmodelled


class TestAutotune:
    def test_sweep_returns_all_candidates(self, machine):
        pts = sweep_region_counts(
            machine, kernel=heat_kernel(3), domain_cells=64**3, steps=10,
            candidates=(1, 2, 4), fields=2, ghost_width=1,
        )
        assert [p.n_regions for p in pts] == [1, 2, 4]
        assert all(p.seconds > 0 for p in pts)

    def test_autotune_picks_minimum(self, machine):
        best = autotune_region_count(
            machine, kernel=heat_kernel(3), domain_cells=512**3, steps=1,
            candidates=(1, 4, 16, 64), fields=2, ghost_width=1,
        )
        # 1 step is transfer-dominated: pipelining must beat 1 region
        assert best > 1

    def test_measure_strategy(self, machine):
        pts = sweep_region_counts(
            machine, kernel=heat_kernel(3), domain_cells=32**3, steps=2,
            candidates=(1, 2), strategy="measure",
            measure_fn=lambda n: float(n),
        )
        assert [p.seconds for p in pts] == [1.0, 2.0]

    def test_measure_requires_fn(self, machine):
        with pytest.raises(ReproError):
            sweep_region_counts(machine, kernel=heat_kernel(3), domain_cells=8,
                                steps=1, strategy="measure")

    def test_bad_strategy(self, machine):
        with pytest.raises(ReproError):
            sweep_region_counts(machine, kernel=heat_kernel(3), domain_cells=8,
                                steps=1, strategy="guess")

    def test_bad_candidates(self, machine):
        with pytest.raises(ReproError):
            sweep_region_counts(machine, kernel=heat_kernel(3), domain_cells=8,
                                steps=1, candidates=())
        with pytest.raises(ReproError):
            sweep_region_counts(machine, kernel=heat_kernel(3), domain_cells=8,
                                steps=1, candidates=(0,))


class TestPrefetchAutotune:
    def test_sweep_returns_all_candidates(self):
        pts = sweep_prefetch_depth(candidates=(0, 1, 4),
                                   measure_fn=lambda d: 10.0 - d)
        assert [p.prefetch_depth for p in pts] == [0, 1, 4]
        assert [p.seconds for p in pts] == [10.0, 9.0, 6.0]

    def test_autotune_picks_minimum(self):
        best = autotune_prefetch_depth(candidates=(0, 1, 2, 4),
                                       measure_fn=lambda d: abs(d - 2) + 1.0)
        assert best == 2

    def test_ties_favor_shallowest_depth(self):
        best = autotune_prefetch_depth(candidates=(0, 1, 2),
                                       measure_fn=lambda d: 1.0)
        assert best == 0

    def test_bad_candidates(self):
        with pytest.raises(ReproError):
            sweep_prefetch_depth(candidates=(), measure_fn=lambda d: 1.0)
        with pytest.raises(ReproError):
            sweep_prefetch_depth(candidates=(-1,), measure_fn=lambda d: 1.0)
