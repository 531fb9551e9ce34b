"""The access-set planner: footprints in, decomposition + proofs out."""

import json

import pytest

from repro.baselines.workloads import build_workload
from repro.cuda.kernel import KernelSpec
from repro.errors import CudaInvalidValueError, PlanError
from repro.kernels import compute_intensive_kernel, heat_kernel
from repro.plan import Program, derive_halo, plan_program


def nop(*args, **kwargs):
    pass


# -- footprint declarations on KernelSpec -----------------------------------


class TestFootprintDeclarations:
    def test_radius_normalizes_to_symmetric_pairs(self):
        k = heat_kernel(3)
        assert k.arg_footprint(1, 3) == ((-1, 1),) * 3
        assert k.arg_footprint(0, 3) == ((0, 0),) * 3  # written arg pointwise

    def test_reads_neighbors_and_read_radius(self):
        k = heat_kernel(2)
        assert k.reads_neighbors(1, 2) and not k.reads_neighbors(0, 2)
        assert k.read_radius(2) == (1, 1)
        assert compute_intensive_kernel(4).read_radius(3) == (0, 0, 0)

    def test_asymmetric_and_per_axis_footprints(self):
        k = KernelSpec(name="upwind", body=nop, bytes_per_cell=8.0, arg_access=("w", "r"),
                       footprint=(None, (-2, 0)))
        assert k.arg_footprint(1, 2) == ((-2, 0), (-2, 0))
        k2 = KernelSpec(name="aniso", body=nop, bytes_per_cell=8.0, arg_access=("w", "r"),
                        footprint=(None, ((-1, 1), (0, 0))))
        assert k2.arg_footprint(1, 2) == ((-1, 1), (0, 0))
        assert k2.read_radius(2) == (1, 0)

    def test_negative_radius_rejected(self):
        with pytest.raises(CudaInvalidValueError, match="negative radius"):
            KernelSpec(name="bad", body=nop, bytes_per_cell=8.0, footprint=(-1,))

    def test_inverted_extent_rejected(self):
        with pytest.raises(CudaInvalidValueError, match="lo <= 0 <= hi"):
            KernelSpec(name="bad", body=nop, bytes_per_cell=8.0, footprint=((1, 2),))

    def test_garbage_entry_rejected(self):
        with pytest.raises(CudaInvalidValueError, match="radius or extent"):
            KernelSpec(name="bad", body=nop, bytes_per_cell=8.0, footprint=("wide",))

    def test_write_only_arg_with_stencil_footprint_rejected(self):
        with pytest.raises(CudaInvalidValueError, match="write-only"):
            KernelSpec(name="bad", body=nop, bytes_per_cell=8.0, arg_access=("w",), footprint=(1,))

    def test_ndim_mismatch_rejected_at_normalization(self):
        k = KernelSpec(name="aniso", body=nop, bytes_per_cell=8.0, arg_access=("w", "r"),
                       footprint=(None, ((-1, 1), (0, 0))))
        with pytest.raises(CudaInvalidValueError, match="axes"):
            k.arg_footprint(1, 3)


# -- derive_halo -------------------------------------------------------------


class TestDeriveHalo:
    def test_union_over_kernels(self):
        wide = KernelSpec(name="wide", body=nop, bytes_per_cell=8.0, arg_access=("w", "r"),
                          footprint=(None, 2))
        assert derive_halo([heat_kernel(2), wide], 2) == (2, 2)

    def test_pointwise_kernels_need_no_ghosts(self):
        assert derive_halo([compute_intensive_kernel(4)], 3) == (0, 0, 0)

    def test_rejects_empty_and_non_kernels(self):
        with pytest.raises(PlanError, match="at least one"):
            derive_halo([], 2)
        with pytest.raises(PlanError, match="KernelSpec"):
            derive_halo([object()], 2)


# -- plan_program ------------------------------------------------------------


def heat_program(shape=(32, 16, 16), steps=3):
    return build_workload("heat", shape=shape, steps=steps).prog


def coeff_program(shape=(32, 16, 16), steps=3):
    return build_workload("coeff-heat", shape=shape, steps=steps).prog


class TestGhostDerivation:
    def test_heat_halos_unified_across_swap_pair(self, machine):
        plan = plan_program(heat_program(), machine=machine)
        assert plan.fields["u_old"].halo == (1, 1, 1)
        # u_new is only written, but it swaps/co-iterates with u_old:
        # the compute path requires equal ghosts
        assert plan.fields["u_new"].halo == (1, 1, 1)
        assert plan.fields["u_new"].group == ("u_new", "u_old")

    def test_pointwise_program_gets_zero_halo(self, machine):
        prog = Program((16, 16))
        prog.step(compute_intensive_kernel(4), ("data",),
                  params={"kernel_iteration": 4})
        plan = plan_program(prog, machine=machine)
        assert plan.fields["data"].halo == (0, 0)

    def test_wave_three_way_rotation_shares_halo(self, machine):
        prog = build_workload("wave", shape=(32, 32), steps=2).prog
        plan = plan_program(prog, machine=machine)
        assert all(plan.fields[n].halo == (1, 1)
                   for n in ("u_next", "u", "u_prev"))


class TestReadOnlyProof:
    def test_coefficient_proven_read_only(self, machine):
        plan = plan_program(coeff_program(), machine=machine)
        assert plan.ro_fields == ("kappa",)
        assert plan.loop_invariant_halos == ("kappa",)
        assert plan.fields["kappa"].access == "ro"
        assert not plan.fields["kappa"].written

    def test_swap_alias_defeats_the_proof(self, machine):
        # u_old is never written directly, but it swaps with u_new which
        # is: the alias group is written, so no read-only proof
        plan = plan_program(heat_program(), machine=machine)
        assert plan.fields["u_old"].access == "rw"
        assert plan.ro_fields == ()
        assert plan.loop_invariant_halos == ()

    def test_decisions_record_the_proof(self, machine):
        plan = plan_program(coeff_program(), machine=machine)
        assert any("proven read-only" in d for d in plan.decisions)
        assert any("loop-invariant" in d for d in plan.decisions)


class TestSizing:
    def test_resident_when_fields_fit(self, machine):
        plan = plan_program(heat_program(), machine=machine)
        assert plan.resident and plan.n_slots is None
        assert plan.eviction == "lru"

    def test_streaming_under_memory_pressure(self, machine):
        shape = (64, 32, 32)
        nbytes = 64 * 32 * 32 * 8
        plan = plan_program(coeff_program(shape=shape), machine=machine,
                            free_memory=nbytes * 3 // 2, n_regions=8)
        assert not plan.resident
        assert plan.n_slots is not None and 1 <= plan.n_slots <= 8
        assert plan.eviction == "lookahead"

    def test_pinned_knobs_pass_through(self, machine):
        plan = plan_program(heat_program(), machine=machine, n_regions=4,
                            n_slots=2, eviction="modulo", prefetch_depth=2)
        assert (plan.n_regions, plan.n_slots) == (4, 2)
        assert (plan.eviction, plan.prefetch_depth) == ("modulo", 2)
        assert any("caller-pinned" in d for d in plan.decisions)

    def test_pinned_n_regions_range_checked(self, machine):
        with pytest.raises(PlanError, match="out of range"):
            plan_program(heat_program(), machine=machine, n_regions=64)

    def test_auto_region_count_is_a_candidate(self, machine):
        plan = plan_program(heat_program(shape=(64, 32, 32), steps=4),
                            machine=machine)
        assert plan.n_regions in (1, 2, 4, 8, 16, 32)
        assert plan.estimate is not None
        assert plan.total_sweeps == 4

    def test_empty_program_rejected(self, machine):
        with pytest.raises(PlanError, match="no fields"):
            plan_program(Program((8, 8)), machine=machine)


class TestReport:
    def test_to_json_round_trips(self, machine):
        payload = json.loads(plan_program(coeff_program(), machine=machine).to_json())
        assert payload["ro_fields"] == ["kappa"]
        assert payload["fields"]["kappa"]["access"] == "ro"
        assert payload["n_regions"] >= 1
