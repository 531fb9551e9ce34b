"""Byte-reproducibility of the live telemetry pipeline (satellite of the
live-observability PR): same seed + fault plan => identical session
JSONL, identical alert sequence, identical incident.json."""

import pytest

from repro.baselines.tida_runners import run_tida
from repro.errors import FaultError
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.obs.live import FlightRecorder, TelemetryBus, Watchdog, default_detectors

SHAPE = (64, 64, 64)
INTERVAL = 5e-4


def monitored_faulty_run(tmp_dir, tag):
    """One seeded fault-plan run under full telemetry; returns artifacts."""
    jsonl = tmp_dir / f"session_{tag}.jsonl"
    bus = TelemetryBus(sample_interval=INTERVAL, jsonl=jsonl)
    bus.add_subscriber(Watchdog(default_detectors(cooldown=4 * INTERVAL)))
    run_tida(
        "compute", shape=SHAPE, steps=3, n_regions=8,
        faults=FaultPlan.from_spec("launch:p=0.5; seed=11"),
        retry=RetryPolicy(max_attempts=8),
        functional=False, telemetry=bus,
    )
    bus.close()
    return jsonl.read_bytes(), [a.to_dict() for a in bus.alerts]


class TestSessionDeterminism:
    def test_jsonl_and_alerts_byte_identical(self, tmp_path):
        blob_a, alerts_a = monitored_faulty_run(tmp_path, "a")
        blob_b, alerts_b = monitored_faulty_run(tmp_path, "b")
        assert alerts_a, "sanity: the seeded run alerts"
        assert alerts_a == alerts_b
        assert blob_a == blob_b

    def test_incident_json_byte_identical(self, tmp_path):
        def crash(tag):
            inc_dir = tmp_path / tag
            bus = TelemetryBus(sample_interval=INTERVAL)
            rec = bus.add_subscriber(FlightRecorder(incident_dir=inc_dir))
            with pytest.raises(FaultError):
                run_tida("heat", shape=SHAPE, steps=2, n_regions=4,
                         functional=False,
                         faults=FaultPlan([FaultRule(op="h2d")]),
                         retry=RetryPolicy(max_attempts=2),
                         telemetry=bus)
            bus.close()
            assert len(rec.incident_paths) == 1
            return rec.incident_paths[0].read_bytes()

        assert crash("a") == crash("b")

    def test_different_seed_different_stream(self, tmp_path):
        def run(seed, tag):
            jsonl = tmp_path / f"s{tag}.jsonl"
            bus = TelemetryBus(sample_interval=INTERVAL, jsonl=jsonl)
            run_tida(
                "compute", shape=SHAPE, steps=2, n_regions=4,
                faults=FaultPlan.from_spec(f"launch:p=0.5; seed={seed}"),
                retry=RetryPolicy(max_attempts=8),
                functional=False, telemetry=bus,
            )
            bus.close()
            return jsonl.read_bytes()

        assert run(11, "a") != run(12, "b")
