"""The §IV-A CPU cache-reuse model: tiles sized to the LLC avoid spill."""

import numpy as np
import pytest

from repro.baselines import run_tida
from repro.baselines.common import default_init, reference_heat
from repro.config import k40m_pcie3
from repro.cuda.kernel import KernelSpec
from repro.errors import CudaInvalidValueError
from repro.kernels.heat import heat_kernel
from repro.tida.boundary import Neumann


class TestCpuSpecCacheModel:
    def test_spill_applies_only_beyond_llc(self, machine):
        cpu = machine.cpu
        fits = cpu.kernel_time(bytes_moved=1e6, flops=0, spill_bytes=1e6,
                               working_set_bytes=cpu.llc_bytes)
        spills = cpu.kernel_time(bytes_moved=1e6, flops=0, spill_bytes=1e6,
                                 working_set_bytes=cpu.llc_bytes + 1)
        assert spills == pytest.approx(2 * fits)

    def test_no_working_set_means_no_spill(self, machine):
        t = machine.cpu.kernel_time(bytes_moved=1e6, flops=0, spill_bytes=1e9)
        assert t == pytest.approx(1e6 / machine.cpu.mem_bandwidth)

    def test_negative_spill_rejected(self, machine):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            machine.cpu.kernel_time(bytes_moved=1, flops=0, spill_bytes=-1)

    def test_kernelspec_validation(self):
        with pytest.raises(CudaInvalidValueError):
            KernelSpec(name="k", body=None, bytes_per_cell=1.0,
                       cpu_spill_bytes_per_cell=-1.0)

    def test_duration_on_cpu_uses_spill(self, machine):
        k = heat_kernel(3)
        n = 10**6
        small = k.duration_on_cpu(machine, n, working_set_bytes=1024)
        big = k.duration_on_cpu(machine, n, working_set_bytes=machine.cpu.llc_bytes * 2)
        assert big == pytest.approx(2 * small)  # 16 B/cell spill on 16 B/cell base


class TestCpuTilingEndToEnd:
    def test_cache_sized_tiles_faster(self):
        machine = k40m_pcie3()
        shape = (128, 128, 128)    # region WS 2 fields x 16 MB >> 30 MB LLC
        big = run_tida("heat", machine, shape=shape, steps=3, n_regions=1,
                       gpu=False).elapsed
        tiled = run_tida("heat", machine, shape=shape, steps=3, n_regions=1,
                         tile_shape=(16, 128, 128), gpu=False).elapsed
        assert tiled < 0.7 * big

    def test_gpu_path_unaffected_by_cpu_spill(self):
        """The spill term is CPU-only; GPU timing is identical either way."""
        machine = k40m_pcie3()
        shape = (128, 128, 128)
        a = run_tida("heat", machine, shape=shape, steps=2, n_regions=4, gpu=True).elapsed
        k = heat_kernel(3)
        assert k.duration_on_gpu(machine, 128**3) == pytest.approx(
            k.bytes_moved(128**3) / machine.gpu.mem_bandwidth
        )
        assert a > 0

    def test_numerics_unchanged_by_tiling(self):
        machine = k40m_pcie3()
        shape = (12, 8, 8)
        init = default_init(shape, 1)
        ref = reference_heat(init, 3, coef=0.1, bc=Neumann(), ghost=1)
        r = run_tida("heat", machine, shape=shape, steps=3, n_regions=2,
                     tile_shape=(2, 8, 8), gpu=False, functional=True,
                     initial=init[1:-1, 1:-1, 1:-1].copy())
        np.testing.assert_allclose(r.result, ref)
