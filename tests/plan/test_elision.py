"""The redundancy proofs pay out — and never change bytes.

Covers the elision ledger end to end: loop-invariant halo fills elided
(with byte credits matching the analytic fill size), read-only eviction
write-backs skipped under memory pressure, and the proof *not* firing
for fields that are actually written.
"""

import numpy as np
import pytest

from repro.baselines.common import apply_bc_global
from repro.baselines.hand_built import run_hand_built
from repro.baselines.tida_runners import run_tida
from repro.baselines.workloads import build_workload
from repro.core.library import TidaAcc
from repro.kernels import coeff_heat_reference_step
from repro.plan import halo_fill_bytes, writebacks_skipped
from repro.tida.boundary import Neumann

SHAPE = (24, 16, 16)
STEPS = 4


@pytest.fixture
def coeff_run(machine):
    lib = TidaAcc(machine, functional=True)
    spec = build_workload("coeff-heat", shape=SHAPE, steps=STEPS)
    inputs = spec.inputs
    run = lib.run_program(spec.prog, inputs=inputs, n_regions=4)
    return lib, run, inputs["u_old"], inputs["kappa"]


class TestHaloElision:
    def test_coefficient_filled_once_then_elided(self, coeff_run):
        _lib, run, _init, _kappa = coeff_run
        # u_old refills every step (rewritten via swap); kappa fills once
        assert run.fills == STEPS + 1
        assert run.fills_elided == STEPS - 1
        assert run.iterations == STEPS

    def test_byte_credit_matches_analytic_fill_size(self, coeff_run):
        lib, run, _init, _kappa = coeff_run
        per_fill = halo_fill_bytes(lib.field("kappa"), Neumann())
        assert per_fill > 0
        assert run.halo_bytes_saved == (STEPS - 1) * per_fill

    def test_elision_counters_surface_in_metrics(self, coeff_run):
        lib, run, _init, _kappa = coeff_run
        counters = lib.metrics.snapshot()["counters"]
        assert counters["plan.fills_elided"] == run.fills_elided
        assert counters["plan.halo_bytes_saved"] == run.halo_bytes_saved

    def test_result_matches_pure_numpy_reference(self, coeff_run):
        lib, _run, init, kappa = coeff_run
        ghost = 1
        full = tuple(s + 2 * ghost for s in SHAPE)
        src = np.zeros(full)
        kap = np.zeros(full)
        inner = tuple(slice(ghost, -ghost) for _ in SHAPE)
        src[inner] = init
        kap[inner] = kappa
        for _ in range(STEPS):
            apply_bc_global(src, ghost, Neumann())
            apply_bc_global(kap, ghost, Neumann())
            src = coeff_heat_reference_step(src, kap, coef=0.1, ghost=ghost)
        np.testing.assert_array_equal(lib.gather("u_old"), src[inner])

    def test_written_fields_never_elide(self, machine):
        lib = TidaAcc(machine, functional=True)
        spec = build_workload("heat", shape=SHAPE, steps=STEPS)
        run = lib.run_program(spec.prog, inputs=spec.inputs, n_regions=4)
        assert run.fills == STEPS
        assert run.fills_elided == 0
        assert run.halo_bytes_saved == 0

    def test_zero_ghost_field_fills_nothing(self, machine):
        lib = TidaAcc(machine, functional=True)
        lib.add_array("flat", SHAPE, n_regions=2, halo=0)
        assert halo_fill_bytes(lib.field("flat"), Neumann()) == 0


class TestWritebackSkips:
    CONFIG = dict(shape=(64, 32, 32), steps=6, n_regions=8, n_slots=2,
                  functional=True, eviction="lru",
                  device_memory_limit=(64 * 32 * 32 * 8) * 3 // 2)

    def test_read_only_evictions_skip_writebacks(self):
        planned = run_tida("coeff-heat", **self.CONFIG)
        assert planned.meta["ro_fields"] == ["kappa"]
        assert planned.meta["writebacks_skipped"] > 0

    def test_skips_do_not_change_bytes(self):
        naive = run_hand_built("coeff-heat", **self.CONFIG)
        planned = run_tida("coeff-heat", **self.CONFIG)
        assert planned.result.tobytes() == naive.result.tobytes()

    def test_ledger_only_counts_proven_fields(self, machine):
        lib = TidaAcc(machine, functional=True)
        spec = build_workload("coeff-heat", shape=(32, 16, 16), steps=2)
        plan = lib.run_program(spec.prog, n_regions=4, inputs=spec.inputs).plan
        snapshot = {"counters": {
            "cache.writebacks_skipped.kappa": 3.0,
            "cache.writebacks_skipped.u_old": 7.0,   # not proven ro
            "cache.evictions.kappa": 9.0,
        }}
        assert writebacks_skipped(snapshot, plan) == 3.0
