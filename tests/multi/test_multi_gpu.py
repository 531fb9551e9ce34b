"""Multi-GPU runtime and distributed heat solver tests."""

import numpy as np
import pytest

from repro.baselines.common import default_init, reference_heat
from repro.errors import CudaInvalidValueError, TidaError
from repro.multi import MultiGpuRuntime, run_multi_gpu_heat
from repro.multi.heat import MultiGpuHeat
from repro.tida.boundary import Dirichlet, Neumann, Periodic

SHAPE = (16, 8, 8)
STEPS = 4


class TestMultiGpuRuntime:
    def test_devices_share_clock_and_trace(self, machine):
        mgr = MultiGpuRuntime(machine, 3)
        assert all(d.clock is mgr.clock for d in mgr.devices)
        assert all(d.trace is mgr.trace for d in mgr.devices)

    def test_lane_prefixes(self, machine):
        mgr = MultiGpuRuntime(machine, 2)
        assert mgr.device(0).compute_engine.name == "gpu0:compute"
        assert mgr.device(1).h2d_engine.name == "gpu1:h2d"

    def test_invalid_counts(self, machine):
        with pytest.raises(CudaInvalidValueError):
            MultiGpuRuntime(machine, 0)
        mgr = MultiGpuRuntime(machine, 2)
        with pytest.raises(CudaInvalidValueError):
            mgr.device(2)

    def test_peer_copy_moves_data(self, machine):
        mgr = MultiGpuRuntime(machine, 2)
        src = mgr.device(0).malloc((8,))
        dst = mgr.device(1).malloc((8,))
        src.array[...] = 7.0
        end = mgr.peer_copy(1, dst, 0, src)
        assert np.all(dst.array == 7.0)
        assert end > 0

    def test_peer_copy_occupies_both_engines(self, machine):
        mgr = MultiGpuRuntime(machine, 2)
        src = mgr.device(0).malloc((1024,))
        dst = mgr.device(1).malloc((1024,))
        mgr.peer_copy(1, dst, 0, src)
        lanes = {e.lane for e in mgr.trace}
        assert "gpu0:d2h" in lanes and "gpu1:h2d" in lanes

    def test_peer_copy_same_device_rejected(self, machine):
        mgr = MultiGpuRuntime(machine, 2)
        a = mgr.device(0).malloc((8,))
        b = mgr.device(0).malloc((8,))
        with pytest.raises(CudaInvalidValueError):
            mgr.peer_copy(0, a, 0, b)

    def test_peer_copy_wrong_device_buffer_rejected(self, machine):
        mgr = MultiGpuRuntime(machine, 2)
        a = mgr.device(0).malloc((8,))
        b = mgr.device(1).malloc((8,))
        with pytest.raises(CudaInvalidValueError):
            mgr.peer_copy(1, a, 0, b)  # a lives on device 0, stated as 1

    def test_peer_copy_size_mismatch(self, machine):
        mgr = MultiGpuRuntime(machine, 2)
        a = mgr.device(0).malloc((8,))
        b = mgr.device(1).malloc((9,))
        with pytest.raises(CudaInvalidValueError):
            mgr.peer_copy(1, b, 0, a)

    def test_synchronize_all(self, machine):
        mgr = MultiGpuRuntime(machine, 2)
        src = mgr.device(0).malloc((100_000,))
        host = mgr.device(0).malloc_pinned((100_000,))
        end = mgr.device(0).memcpy_async(src, host, mgr.device(0).create_stream())
        mgr.synchronize_all()
        assert mgr.now >= end

    def test_independent_pools(self, machine):
        mgr = MultiGpuRuntime(machine, 2)
        mgr.device(0).malloc((1024,))
        free0 = mgr.device(0).mem_get_info()[0]
        free1 = mgr.device(1).mem_get_info()[0]
        assert free1 - free0 == 8192


class TestMultiGpuHeatCorrectness:
    @pytest.fixture(scope="class")
    def setup(self):
        init = default_init(SHAPE, 1)
        return init

    @pytest.mark.parametrize("bc", [Neumann(), Dirichlet(0.3), Periodic()])
    @pytest.mark.parametrize("n_devices", [1, 2, 4])
    def test_matches_reference(self, machine, setup, bc, n_devices):
        init = setup
        ref = reference_heat(init, STEPS, coef=0.1, bc=bc, ghost=1)
        r = run_multi_gpu_heat(
            machine, shape=SHAPE, steps=STEPS, n_devices=n_devices,
            regions_per_device=2, functional=True,
            initial=init[1:-1, 1:-1, 1:-1].copy(), bc=bc,
        )
        np.testing.assert_allclose(r.result, ref)

    def test_matches_single_gpu_library(self, machine, setup):
        """Multi-GPU and single-device TiDA-acc agree bit-for-bit."""
        from repro.baselines import run_tida
        init = setup
        single = run_tida("heat", machine, shape=SHAPE, steps=STEPS, n_regions=4,
                          functional=True,
                          initial=init[1:-1, 1:-1, 1:-1].copy())
        multi = run_multi_gpu_heat(machine, shape=SHAPE, steps=STEPS, n_devices=2,
                                   regions_per_device=2, functional=True,
                                   initial=init[1:-1, 1:-1, 1:-1].copy())
        np.testing.assert_array_equal(single.result, multi.result)

    def test_uneven_split_rejected(self, machine):
        with pytest.raises(TidaError):
            MultiGpuHeat(machine, shape=(15, 8, 8), n_devices=2)

    @pytest.mark.parametrize("shape", [(16,), (16, 8)])
    def test_lower_dimensions(self, machine, shape):
        """Multi-GPU halos work in 1-D and 2-D too."""
        init = default_init(shape, 1)
        ref = reference_heat(init, 3, coef=0.1, bc=Neumann(), ghost=1)
        interior = init[tuple(slice(1, -1) for _ in shape)].copy()
        r = run_multi_gpu_heat(machine, shape=shape, steps=3, n_devices=2,
                               regions_per_device=2, functional=True,
                               initial=interior)
        np.testing.assert_allclose(r.result, ref)


class TestMultiGpuScaling:
    def test_strong_scaling_monotone(self, machine):
        times = {
            nd: run_multi_gpu_heat(machine, shape=(256, 256, 256), steps=20,
                                   n_devices=nd, regions_per_device=4).elapsed
            for nd in (1, 2, 4)
        }
        assert times[2] < times[1]
        assert times[4] < times[2]

    def test_halo_traffic_present(self, machine):
        r = run_multi_gpu_heat(machine, shape=(64, 64, 64), steps=2, n_devices=2,
                               regions_per_device=2)
        p2p = [e for e in r.trace if e.name.startswith("p2p:")]
        packs = [e for e in r.trace if "halo-pack" in e.name]
        # 2 halos per step x 2 steps, each traced on both engines
        assert len(p2p) == 8
        assert len(packs) == 4

    def test_devices_overlap_in_time(self, machine):
        """Compute on different devices must actually run concurrently."""
        r = run_multi_gpu_heat(machine, shape=(256, 256, 256), steps=5,
                               n_devices=2, regions_per_device=4)
        t = r.trace
        overlap = t.overlap_time(["gpu0:compute"], ["gpu1:compute"])
        assert overlap > 0.25 * t.busy_time("gpu0:compute")
