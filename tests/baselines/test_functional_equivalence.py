"""Every implementation must produce identical numerics (functional mode).

This is the strongest integration property the reproduction offers: the
hand-written CUDA baseline, the OpenACC baseline, the hybrid, and the
full TiDA-acc pipeline (tiling + ghost exchange + streams + eviction)
all solve the same problem and must agree with the pure-numpy reference
to machine precision.
"""

import numpy as np
import pytest

from repro.baselines import (
    default_init,
    reference_compute_intensive,
    reference_heat,
    run_acc_compute,
    run_acc_heat,
    run_cuda_compute,
    run_cuda_heat,
    run_hybrid_heat,
    run_tida,
)
from repro.tida.boundary import Dirichlet, Neumann, Periodic

SHAPE = (12, 10, 8)
STEPS = 4


@pytest.fixture(scope="module")
def heat_setup():
    init = default_init(SHAPE, 1)
    ref = reference_heat(init, STEPS, coef=0.1, bc=Neumann(), ghost=1)
    return init, ref


class TestHeatEquivalence:
    @pytest.mark.parametrize("memory", ["pageable", "pinned", "managed"])
    def test_cuda(self, heat_setup, memory):
        init, ref = heat_setup
        r = run_cuda_heat(shape=SHAPE, steps=STEPS, memory=memory,
                          functional=True, initial=init)
        np.testing.assert_allclose(r.result, ref)

    @pytest.mark.parametrize("memory", ["pageable", "pinned", "managed"])
    def test_openacc(self, heat_setup, memory):
        init, ref = heat_setup
        r = run_acc_heat(shape=SHAPE, steps=STEPS, memory=memory,
                         functional=True, initial=init)
        np.testing.assert_allclose(r.result, ref)

    @pytest.mark.parametrize("memory", ["pageable", "pinned", "managed"])
    def test_hybrid(self, heat_setup, memory):
        init, ref = heat_setup
        r = run_hybrid_heat(shape=SHAPE, steps=STEPS, memory=memory,
                            functional=True, initial=init)
        np.testing.assert_allclose(r.result, ref)

    @pytest.mark.parametrize("n_regions", [1, 2, 4])
    def test_tida(self, heat_setup, n_regions):
        init, ref = heat_setup
        r = run_tida("heat", shape=SHAPE, steps=STEPS, n_regions=n_regions,
                     functional=True, initial=init[1:-1, 1:-1, 1:-1].copy())
        np.testing.assert_allclose(r.result, ref)

    def test_tida_limited_memory(self, heat_setup):
        init, ref = heat_setup
        region_bytes = 6 * 12 * 10 * 8  # grown slab of the 4-region split
        r = run_tida("heat", shape=SHAPE, steps=STEPS, n_regions=4, n_slots=2,
                     functional=True, initial=init[1:-1, 1:-1, 1:-1].copy())
        assert r.meta["n_slots"] == 2
        np.testing.assert_allclose(r.result, ref)

    def test_tida_cpu_execution(self, heat_setup):
        init, ref = heat_setup
        r = run_tida("heat", shape=SHAPE, steps=STEPS, n_regions=4, gpu=False,
                     functional=True, initial=init[1:-1, 1:-1, 1:-1].copy())
        np.testing.assert_allclose(r.result, ref)

    @pytest.mark.parametrize("bc", [Dirichlet(0.7), Periodic()])
    def test_tida_other_bcs(self, bc):
        init = default_init(SHAPE, 1)
        ref = reference_heat(init, STEPS, coef=0.1, bc=bc, ghost=1)
        r = run_tida("heat", shape=SHAPE, steps=STEPS, n_regions=4, bc=bc,
                     functional=True, initial=init[1:-1, 1:-1, 1:-1].copy())
        np.testing.assert_allclose(r.result, ref)

    def test_tida_with_sub_region_tiles(self, heat_setup):
        init, ref = heat_setup
        r = run_tida("heat", shape=SHAPE, steps=STEPS, n_regions=2,
                     tile_shape=(3, 10, 8), functional=True,
                     initial=init[1:-1, 1:-1, 1:-1].copy())
        np.testing.assert_allclose(r.result, ref)


class TestComputeIntensiveEquivalence:
    IT = 3

    @pytest.fixture(scope="class")
    def ci_setup(self):
        init = default_init(SHAPE, 0)
        ref = reference_compute_intensive(init, STEPS, kernel_iteration=self.IT)
        return init, ref

    @pytest.mark.parametrize("variant", ["pageable", "pinned", "pinned-fastmath", "managed"])
    def test_cuda(self, ci_setup, variant):
        init, ref = ci_setup
        r = run_cuda_compute(shape=SHAPE, steps=STEPS, variant=variant,
                             kernel_iteration=self.IT, functional=True, initial=init)
        np.testing.assert_allclose(r.result, ref)

    @pytest.mark.parametrize("memory", ["pageable", "pinned", "managed"])
    def test_openacc(self, ci_setup, memory):
        init, ref = ci_setup
        r = run_acc_compute(shape=SHAPE, steps=STEPS, memory=memory,
                            kernel_iteration=self.IT, functional=True, initial=init)
        np.testing.assert_allclose(r.result, ref)

    @pytest.mark.parametrize("kw", [
        {"n_regions": 1},
        {"n_regions": 4},
        {"n_regions": 4, "n_slots": 2},
        {"n_regions": 4, "gpu": False},
    ])
    def test_tida(self, ci_setup, kw):
        init, ref = ci_setup
        r = run_tida("compute", shape=SHAPE, steps=STEPS, kernel_iteration=self.IT,
                     functional=True, initial=init, **kw)
        np.testing.assert_allclose(r.result, ref)


class TestInvalidArguments:
    def test_bad_memory_kind(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            run_cuda_heat(shape=(8, 8, 8), steps=1, memory="quantum")

    def test_bad_variant(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            run_cuda_compute(shape=(8, 8, 8), steps=1, variant="hyper")
