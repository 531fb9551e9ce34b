"""Machine-candidate autotuning with the DAG-replay surrogate."""

import pytest

from repro.baselines.tida_runners import run_tida
from repro.check.explore import perturb_machine
from repro.config import k40m_pcie3, p100_nvlink
from repro.errors import ReproError
from repro.model.autotune import autotune_machine, sweep_machines

CONFIG = dict(shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
              device_memory_limit=70_000)


@pytest.fixture(scope="module")
def base():
    return k40m_pcie3()


def measure_factory(calls=None):
    def measure(machine):
        if calls is not None:
            calls.append(machine.name)
        return run_tida("compute", machine, check="observe", **CONFIG)
    return measure


class TestSweepMachines:
    def test_replay_simulates_base_and_winner_only(self, base):
        calls = []
        candidates = [base] + [perturb_machine(base, s) for s in (1, 2, 3)]
        points = sweep_machines(
            candidates, measure_result_fn=measure_factory(calls),
            strategy="replay", base=base,
        )
        assert len(points) == 4
        # one recording run plus exactly one winner verification
        assert len(calls) == 2
        assert calls[0] == base.name
        surrogates = [p.surrogate for p in points]
        assert surrogates.count("measure") == 1   # the verified winner
        assert surrogates.count("replay") == 3

    def test_replay_ranking_matches_full_measurement(self, base):
        candidates = [base] + [perturb_machine(base, s) for s in (1, 2, 3, 4)]
        replayed = sweep_machines(
            candidates, measure_result_fn=measure_factory(),
            strategy="replay", base=base,
        )
        measured = sweep_machines(
            candidates, measure_result_fn=measure_factory(),
            strategy="measure",
        )
        rank = lambda pts: min(range(len(pts)), key=lambda i: pts[i].seconds)
        assert rank(replayed) == rank(measured)
        # per-candidate predictions track the measurements closely
        for r, m in zip(replayed, measured):
            assert r.seconds == pytest.approx(m.seconds, rel=0.05)

    def test_identity_candidate_prediction_is_exact(self, base):
        points = sweep_machines(
            [base], measure_result_fn=measure_factory(), strategy="replay",
        )
        # the only candidate is the winner: verified by a real measurement
        assert points[0].surrogate == "measure"
        measured = sweep_machines(
            [base], measure_result_fn=measure_factory(), strategy="measure",
        )
        assert points[0].seconds == pytest.approx(measured[0].seconds)

    def test_autotune_machine_prefers_faster_hardware(self, base):
        fast = p100_nvlink()
        winner = autotune_machine(
            [base, fast], measure_result_fn=measure_factory(),
            strategy="replay", base=base,
        )
        assert winner is fast

    def test_validation(self, base):
        with pytest.raises(ReproError, match="strategy"):
            sweep_machines([base], measure_result_fn=measure_factory(),
                           strategy="model")
        with pytest.raises(ReproError, match="non-empty"):
            sweep_machines([], measure_result_fn=measure_factory())

    def test_replay_requires_a_dag(self, base):
        def no_dag(machine):
            res = run_tida("compute", machine, **CONFIG)   # checker disarmed
            assert res.dag is None
            return res

        with pytest.raises(ReproError, match="DAG"):
            sweep_machines([base], measure_result_fn=no_dag,
                           strategy="replay")
