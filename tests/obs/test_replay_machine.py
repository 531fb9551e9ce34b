"""Machine-replay surrogate: reschedule a recorded DAG on another machine.

:func:`repro.obs.critpath.replay_machine` is what lets the conformance
matrix and the machine autotuner sweep candidate machines without
re-simulating.  Its contract, tested here:

* identity — replaying on the recording machine reproduces every
  recorded start/end/issue exactly (modulo the recording's t0 offset);
* fidelity — replaying on a perturbed machine predicts the re-simulated
  makespan to well under a percent, including roofline crossovers
  (transfers recomputed from ``nbytes``, kernel legs rescaled from
  :attr:`DagNode.cost`);
* residuals — duration components the machine formulas do not explain
  (fault hang time) survive the replay instead of being silently
  dropped.
"""

import pytest

from repro.baselines.tida_runners import run_tida
from repro.check.dag import DagNode
from repro.check.explore import perturb_machine
from repro.config import k40m_pcie3
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs.critpath import replay_machine

HEAT = dict(shape=(48, 24, 24), steps=2, n_regions=8)
COMPUTE = dict(shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
               device_memory_limit=70_000)


@pytest.fixture(scope="module")
def machine():
    return k40m_pcie3()


@pytest.fixture(scope="module")
def heat_recording(machine):
    return run_tida("heat", machine, check="observe", **HEAT)


def spans(nodes):
    return [(n.start, n.end, n.issue) for n in sorted(nodes, key=lambda n: n.op_id)]


class TestIdentity:
    def test_identity_replay_is_exact(self, machine, heat_recording):
        recorded = sorted(heat_recording.dag, key=lambda n: n.op_id)
        replayed, _ = replay_machine(
            recorded, machine=machine, perturbed=machine)
        offset = recorded[0].issue - replayed[0].issue
        for rec, rep in zip(spans(recorded), spans(replayed)):
            assert rec[0] == pytest.approx(rep[0] + offset, abs=1e-15)
            assert rec[1] == pytest.approx(rep[1] + offset, abs=1e-15)

    def test_empty_dag(self, machine):
        nodes, makespan = replay_machine([], machine=machine, perturbed=machine)
        assert nodes == [] and makespan == 0.0


class TestFidelity:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    @pytest.mark.parametrize("config", [HEAT, COMPUTE],
                             ids=["heat", "limited-memory"])
    def test_perturbed_replay_matches_resimulation(self, machine, seed, config):
        workload = "heat" if config is HEAT else "compute"
        base = run_tida(workload, machine, check="observe", **config)
        perturbed = perturb_machine(machine, seed)
        resim = run_tida(workload, perturbed, check="observe", **config)
        _, predicted = replay_machine(
            base.dag, machine=machine, perturbed=perturbed)
        actual = (max(n.end for n in resim.dag)
                  - min(n.start for n in resim.dag))
        assert predicted == pytest.approx(actual, rel=0.05)

    def test_link_speedup_shrinks_transfers_only(self, machine, heat_recording):
        fast_link = machine.with_link(
            type(machine.link)(
                name="x4", h2d_bandwidth=4 * machine.link.h2d_bandwidth,
                d2h_bandwidth=4 * machine.link.d2h_bandwidth,
                latency=machine.link.latency,
            )
        )
        replayed, fast = replay_machine(
            heat_recording.dag, machine=machine, perturbed=fast_link)
        _, base = replay_machine(
            heat_recording.dag, machine=machine, perturbed=machine)
        assert fast < base
        by_id = {n.op_id: n for n in heat_recording.dag}
        for n in replayed:
            if n.kind == "kernel":     # kernel durations must not move
                assert n.duration == pytest.approx(by_id[n.op_id].duration)


class TestResiduals:
    def test_fault_hang_time_survives_link_perturbation(self, machine):
        kw = dict(COMPUTE, faults=FaultPlan.from_spec("h2d:p=0.3; seed=11"),
                  retry=RetryPolicy(max_attempts=8))
        faulty = run_tida("compute", machine, check="observe", **kw)
        clean = run_tida("compute", machine, check="observe", **COMPUTE)
        perturbed = perturb_machine(machine, 1)
        _, faulty_pred = replay_machine(
            faulty.dag, machine=machine, perturbed=perturbed)
        _, clean_pred = replay_machine(
            clean.dag, machine=machine, perturbed=perturbed)
        # the faulty recording carries retries and hang time the clean one
        # does not; a replay that recomputed transfers from nbytes alone
        # would collapse the two predictions together
        assert faulty_pred > clean_pred

    def test_costless_kernel_keeps_body_and_swaps_overhead(self, machine):
        node = DagNode(
            op_id=0, kind="kernel", label="k", start=0.0, end=100e-6,
            issue=0.0, nbytes=0, streams=((1, 1),), engines=("compute",),
            deps=(), cost=None,
        )
        from dataclasses import replace

        slow_launch = replace(
            machine,
            gpu=replace(machine.gpu, kernel_launch_overhead=
                        machine.gpu.kernel_launch_overhead + 50e-6),
        )
        _, makespan = replay_machine(
            [node], machine=machine, perturbed=slow_launch)
        assert makespan == pytest.approx(100e-6 + 50e-6)
