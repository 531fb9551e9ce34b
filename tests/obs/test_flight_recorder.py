"""Unit tests for the flight recorder (repro.obs.live.recorder)."""

import json

import pytest

from repro.baselines.tida_runners import run_tida
from repro.cuda.runtime import CudaRuntime
from repro.errors import FaultError, HazardError
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.obs.live import Alert, FlightRecorder, TelemetryBus
from repro.obs.live.bus import TelemetrySample
from repro.obs.live.recorder import INCIDENT_SCHEMA

SHAPE = (64, 64, 64)


def mk_sample(seq, *, dt=1e-3):
    return TelemetrySample(
        seq=seq, t=(seq + 1) * dt, dt=dt, totals={}, deltas={},
        h2d_bytes_per_s=0.0, d2h_bytes_per_s=0.0, stall_fraction=0.0,
        compute_fraction=0.5, transfer_fraction=0.5, cache_hit_rate=None,
        overlap_efficiency=None, queue_depth=0.0,
    )


def mk_alert(severity, t=1.0):
    return Alert(detector="stub", severity=severity, t=t,
                 window=(0.0, t), message="stub alert")


class TestRing:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.on_sample(mk_sample(i))
        assert len(rec.ring) == 4
        assert [s.seq for s in rec.ring] == [6, 7, 8, 9]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=1)


class TestAlertTriggeredDumps:
    def test_dump_on_severity_at_or_above_threshold(self, tmp_path):
        rec = FlightRecorder(incident_dir=tmp_path, min_severity="warning")
        bus = TelemetryBus(sample_interval=1e-3)
        bus.add_subscriber(rec)
        rec.on_alert(mk_alert("info"))
        assert rec.incident_paths == []
        rec.on_alert(mk_alert("warning"))
        rec.on_alert(mk_alert("critical"))
        assert [p.name for p in rec.incident_paths] == [
            "incident.json", "incident-2.json"]

    def test_min_severity_none_disables_alert_dumps(self, tmp_path):
        rec = FlightRecorder(incident_dir=tmp_path, min_severity=None)
        bus = TelemetryBus(sample_interval=1e-3)
        bus.add_subscriber(rec)
        rec.on_alert(mk_alert("critical"))
        assert rec.incident_paths == []
        # ...but hard incidents still dump
        bus.notify_incident("fault", error=RuntimeError("boom"))
        assert len(rec.incident_paths) == 1


class TestIncidentContents:
    @pytest.fixture
    def incident(self, tmp_path):
        rec = FlightRecorder(incident_dir=tmp_path, capacity=8)
        bus = TelemetryBus(sample_interval=1e-4)
        bus.add_subscriber(rec)
        plan = FaultPlan([FaultRule(op="h2d")])
        with pytest.raises(FaultError):
            run_tida("heat", shape=SHAPE, steps=2, n_regions=4, functional=False,
                     faults=plan, retry=RetryPolicy(max_attempts=2),
                     telemetry=bus)
        bus.close()
        assert len(rec.incident_paths) == 1
        return json.loads(rec.incident_paths[0].read_text())

    def test_schema_and_trigger(self, incident):
        assert incident["schema"] == INCIDENT_SCHEMA
        assert incident["trigger"]["kind"] == "fault"
        assert incident["trigger"]["error"] == "FaultError"

    def test_window_and_tails_are_self_contained(self, incident):
        assert incident["health"]["status"] == "critical"
        assert incident["trace_tail"], "trace tail missing"
        assert {"name", "category", "lane", "start", "end"} <= set(
            incident["trace_tail"][0])
        assert incident["metrics"]["counters"]["faults.injected"] > 0
        assert incident["active_ops"], "engine state missing"

    def test_dump_is_sorted_json(self, tmp_path):
        rec = FlightRecorder(incident_dir=tmp_path)
        bus = TelemetryBus(sample_interval=1e-3)
        bus.add_subscriber(rec)
        bus.notify_incident("fault", error=RuntimeError("x"))
        text = rec.incident_paths[0].read_text()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


class TestHazardIncident:
    def test_strict_hazard_dumps(self, tmp_path, tiny_machine):
        rec = FlightRecorder(incident_dir=tmp_path)
        bus = TelemetryBus(sample_interval=1e-3)
        bus.add_subscriber(rec)
        rt = CudaRuntime(tiny_machine, check="strict", telemetry=bus)
        host = rt.malloc_pinned((64, 64))
        dev = rt.malloc((64, 64))
        s1, s2 = rt.create_stream(), rt.create_stream()
        rt.memcpy_async(dev, host, s1)
        with pytest.raises(HazardError):
            # unsynchronized read-back of an in-flight upload: racy RAW
            rt.memcpy_async(host, dev, s2)
        assert len(rec.incident_paths) == 1
        incident = json.loads(rec.incident_paths[0].read_text())
        assert incident["trigger"]["kind"] == "hazard"
        assert incident["trigger"]["error"] == "HazardError"
