"""The redesigned API surface: exports, halo="auto", override warnings.

Satellites of the planner redesign: top-level exports, footprint-derived
ghost widths on ``add_array``, the ``launch(reads=/writes=)`` contradiction warning, and
the ports (CG, plan_bench) riding on them.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.core.library import TidaAcc
from repro.cuda.kernel import KernelSpec
from repro.cuda.runtime import CudaRuntime
from repro.errors import AccessOverrideWarning, TidaError
from repro.kernels import blur_kernel, compute_intensive_kernel, heat_kernel


class TestTopLevelExports:
    def test_plan_layer_is_exported(self):
        for name in ("Program", "plan_program", "PlanReport", "ref",
                     "coeff_heat_kernel"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_exported_program_builds_and_plans(self, machine):
        prog = repro.Program((16, 16))
        with prog.sweep(2):
            prog.step(repro.heat_kernel(2), ("u_new", "u_old"),
                      params={"coef": 0.1})
            prog.swap("u_old", "u_new")
        plan = repro.plan_program(prog, machine=machine)
        assert isinstance(plan, repro.PlanReport)


class TestHaloParameter:
    def test_halo_auto_derives_from_footprints(self, machine):
        lib = TidaAcc(machine, functional=True)
        ta = lib.add_array("u", (16, 16), n_regions=2, halo="auto",
                           kernels=(heat_kernel(2), blur_kernel()))
        assert ta.ghost == (1, 1)
        flat = lib.add_array("d", (16, 16), n_regions=2, halo="auto",
                             kernels=(compute_intensive_kernel(4),))
        assert flat.ghost == (0, 0)

    def test_halo_auto_needs_kernels(self, machine):
        lib = TidaAcc(machine, functional=True)
        with pytest.raises(TidaError, match="kernels="):
            lib.add_array("u", (16, 16), n_regions=2, halo="auto")

    def test_kernels_without_auto_rejected(self, machine):
        lib = TidaAcc(machine, functional=True)
        with pytest.raises(TidaError, match="halo='auto'"):
            lib.add_array("u", (16, 16), n_regions=2, halo=1,
                          kernels=(heat_kernel(2),))

    def test_bogus_halo_string_rejected(self, machine):
        lib = TidaAcc(machine, functional=True)
        with pytest.raises(TidaError, match="'auto'"):
            lib.add_array("u", (16, 16), n_regions=2, halo="wide")


class TestAccessOverrideWarning:
    def _setup(self, machine):
        rt = CudaRuntime(machine, functional=True)
        k = KernelSpec(name="scale", body=lambda dst, src: None, bytes_per_cell=8.0,
                       arg_access=("w", "r"))
        dst = rt.malloc((8,), float)
        src = rt.malloc((8,), float)
        return rt, k, dst, src

    def test_contradicting_override_warns(self, machine):
        rt, k, dst, src = self._setup(machine)
        with pytest.warns(AccessOverrideWarning, match="contradict"):
            rt.launch(k, buffers=(dst, src), n_cells=8,
                      reads=(dst, src), writes=(dst,))

    def test_matching_override_is_silent(self, machine):
        rt, k, dst, src = self._setup(machine)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccessOverrideWarning)
            rt.launch(k, buffers=(dst, src), n_cells=8,
                      reads=(src,), writes=(dst,))

    def test_no_declaration_no_warning(self, machine):
        rt = CudaRuntime(machine, functional=True)
        k = KernelSpec(name="anon", body=lambda dst, src: None, bytes_per_cell=8.0)
        dst = rt.malloc((8,), float)
        src = rt.malloc((8,), float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccessOverrideWarning)
            rt.launch(k, buffers=(dst, src), n_cells=8,
                      reads=(dst,), writes=(dst,))


class TestRunProgram:
    def test_plan_and_knobs_are_exclusive(self, machine):
        lib = TidaAcc(machine, functional=True)
        prog = repro.Program((16, 16))
        prog.step(heat_kernel(2), ("u_new", "u_old"))
        plan = repro.plan_program(prog, machine=machine)
        with pytest.raises(TidaError, match="not both"):
            lib.run_program(prog, plan=plan, n_regions=4)

    def test_unknown_input_rejected(self, machine):
        from repro.errors import PlanError

        lib = TidaAcc(machine, functional=True)
        prog = repro.Program((16, 16))
        prog.step(compute_intensive_kernel(2), ("data",),
                  params={"kernel_iteration": 2})
        with pytest.raises(PlanError, match="unplanned"):
            lib.run_program(prog, inputs={"nope": np.zeros((16, 16))})


class TestCgHaloAuto:
    def test_auto_matches_pinned_bit_for_bit(self, machine):
        from repro.apps.cg import TiledCG

        rng = np.random.default_rng(5)
        b = rng.standard_normal((7, 6))
        solved = {}
        for label, halo in (("auto", "auto"), ("pinned", 1)):
            solver = TiledCG((7, 6), machine=machine, n_regions=2,
                             functional=True, halo=halo)
            solved[label] = solver.solve(b, tol=1e-10, max_iterations=200)
        assert solved["auto"].converged
        assert solved["auto"].x.tobytes() == solved["pinned"].x.tobytes()

    def test_derived_ghost_width_is_one(self, machine):
        from repro.apps.cg import TiledCG

        solver = TiledCG((8, 8), machine=machine, n_regions=2, functional=True)
        assert all(solver.lib.field(n).ghost == (1, 1) for n in TiledCG.FIELDS)

    def test_cg_program_runs_to_convergence(self, machine):
        from repro.apps.cg import assemble_laplacian_dense, cg_program

        shape = (6, 5)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(shape)
        prog = cg_program(shape, max_iterations=200, tol=1e-10)
        lib = TidaAcc(machine, functional=True)
        threshold = (1e-10 ** 2) * float((b * b).sum())
        run = lib.run_program(
            prog, n_regions=2,
            inputs={"r": b, "p": b, "x": np.zeros(shape)},
            env={"threshold": threshold},
        )
        x = lib.gather("x")
        oracle = np.linalg.solve(assemble_laplacian_dense(shape),
                                 b.ravel()).reshape(shape)
        assert run.env["rr"] <= threshold
        np.testing.assert_allclose(x, oracle, rtol=1e-6, atol=1e-8)


class TestPlanBench:
    def test_savings_and_cg_legs(self, tmp_path):
        from repro.bench.plan_bench import cg_check, measure_savings

        failures, _detail = cg_check()
        assert failures == []
        savings = measure_savings(dict(
            shape=(32, 16, 16), steps=3, n_regions=8, n_slots=2,
            device_memory_limit=98_304, eviction="lru",
            functional=True, check="observe",
        ))
        assert savings["byte_identical"]
        assert savings["writebacks_skipped"] > 0
        assert savings["halo_bytes_saved"] > 0
