"""Simulator-speed gate: drift check, measurements, clamps, floors."""

import json
from pathlib import Path

import pytest

from repro.bench import simspeed
from repro.bench.gate import finish


class TestDriftCheck:
    def test_clean_workloads_pass(self):
        # tiny stand-in workloads so the smoke stays fast
        workloads = simspeed.DRIFT_WORKLOADS[:1]
        assert simspeed.drift_check(workloads) == []

    def test_drift_is_reported_per_part(self, monkeypatch):
        calls = {"n": 0}
        real = simspeed._fingerprint

        def flaky(res):
            calls["n"] += 1
            fp = real(res)
            if calls["n"] % 2 == 0:        # corrupt every timing fingerprint
                return (fp[0], fp[1], fp[2], fp[3] + 1.0)
            return fp

        monkeypatch.setattr(simspeed, "_fingerprint", flaky)
        failures = simspeed.drift_check(simspeed.DRIFT_WORKLOADS[:1])
        assert failures and "elapsed" in failures[0]


class TestMeasurements:
    def test_modes_report_all_three(self):
        out = simspeed.measure_modes(
            dict(shape=(48, 16, 16), steps=2, n_regions=8, n_slots=4))
        for mode in ("functional", "timing", "replay"):
            assert out[f"{mode}_ops_per_s"] > 0
        assert out["device_ops"] > 0
        # timing skips numerics, replay skips simulation: strictly ordered
        assert (out["replay_ops_per_s"] > out["timing_ops_per_s"]
                > out["functional_ops_per_s"])

    def test_conformance_sweep_speedup(self):
        out = simspeed.measure_conformance_sweep(timing_seeds=(0, 1, 2, 3))
        assert out["legs"] == 8            # 2 variants x 4 seeds
        assert out["speedup"] > 1.0

    def test_machine_sweep_speedup(self):
        out = simspeed.measure_machine_sweep(n_candidates=6)
        assert out["candidates"] == 6
        assert out["speedup"] > 1.0


class TestRunAndGate:
    """simspeed's own clamps and floors, over canned measurements."""

    @pytest.fixture
    def canned(self, monkeypatch, tmp_path):
        """Replace the heavy measurements; keep the real gate logic."""
        monkeypatch.chdir(tmp_path)        # no committed baseline to compare
        monkeypatch.setattr(simspeed, "drift_check", lambda: [])
        monkeypatch.setattr(simspeed, "measure_modes", lambda: {
            "device_ops": 100.0,
            "functional_wall_s": 1.0, "functional_ops_per_s": 100.0,
            "timing_wall_s": 0.01, "timing_ops_per_s": 10_000.0,
            "replay_wall_s": 0.001, "replay_ops_per_s": 100_000.0,
            "timing_speedup": 100.0, "replay_speedup": 1000.0,
        })
        monkeypatch.setattr(simspeed, "measure_conformance_sweep", lambda: {
            "legs": 64.0, "full_wall_s": 2.5, "replay_wall_s": 0.1,
            "speedup": 25.0,
        })
        monkeypatch.setattr(simspeed, "measure_machine_sweep", lambda: {
            "candidates": 96.0, "measure_wall_s": 0.4, "replay_wall_s": 0.03,
            "speedup": 14.0,
        })

    def test_manifest_clamps_gated_counters(self, canned, tmp_path):
        result = simspeed.run(tmp_path)
        assert not result.failures and not result.misses
        counters = result.metrics["counters"]
        assert counters["bench.simspeed.timing_speedup"] == \
            simspeed.TIMING_SPEEDUP_FLOOR
        assert counters["bench.simspeed.replay_speedup"] == \
            simspeed.REPLAY_SPEEDUP_CEILING
        assert counters["bench.simspeed.conformance_sweep_speedup"] == \
            simspeed.SWEEP_SPEEDUP_CEILING
        assert counters["bench.simspeed.machine_sweep_speedup"] == \
            simspeed.SWEEP_SPEEDUP_CEILING
        # the raw, unclamped numbers stay inspectable but ungated
        assert result.raw["simspeed"]["conformance_sweep"]["speedup"] == 25.0

    def test_drift_exits_one(self, canned, monkeypatch, tmp_path):
        monkeypatch.setattr(simspeed, "drift_check",
                            lambda: ["heat: trace differs between modes"])
        assert finish("simspeed", simspeed.run(tmp_path), tmp_path) == 1

    def test_floor_miss_exits_two(self, canned, monkeypatch, tmp_path):
        monkeypatch.setattr(simspeed, "measure_machine_sweep", lambda: {
            "candidates": 96.0, "measure_wall_s": 0.4, "replay_wall_s": 0.06,
            "speedup": simspeed.SWEEP_SPEEDUP_FLOOR - 1.0,
        })
        assert finish("simspeed", simspeed.run(tmp_path), tmp_path) == 2
        # the manifest is still written, so the miss is inspectable
        assert (tmp_path / "BENCH_simspeed.json").exists()

    def test_timing_speedup_floor_miss_exits_two(self, canned, monkeypatch,
                                                 tmp_path):
        slow = dict(simspeed.measure_modes(),
                    timing_speedup=simspeed.TIMING_SPEEDUP_FLOOR - 1.0)
        monkeypatch.setattr(simspeed, "measure_modes", lambda: slow)
        result = simspeed.run(tmp_path)
        assert result.misses == ["timing speedup = 24.0x < 25x"]
        assert finish("simspeed", result, tmp_path) == 2

    def test_committed_baseline_sits_at_the_ceilings(self):
        baseline = json.loads(
            Path(__file__).resolve().parents[2]
            .joinpath("BENCH_simspeed.json").read_text())
        counters = baseline["metrics"]["counters"]
        assert counters["bench.simspeed.timing_speedup"] == \
            simspeed.TIMING_SPEEDUP_FLOOR
        assert counters["bench.simspeed.replay_speedup"] == \
            simspeed.REPLAY_SPEEDUP_CEILING
        assert counters["bench.simspeed.conformance_sweep_speedup"] == \
            simspeed.SWEEP_SPEEDUP_CEILING
        assert counters["bench.simspeed.machine_sweep_speedup"] == \
            simspeed.SWEEP_SPEEDUP_CEILING
