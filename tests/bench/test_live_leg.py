"""Tests for the live-telemetry gate (repro.bench.live).

The full ``python -m repro gate live`` sweep runs in CI; here each
mechanism is exercised with fast, shrunken legs.
"""

import json

from repro.baselines.tida_runners import run_tida
from repro.bench.live import Leg, _legs, _manifest, run_leg
from repro.errors import FaultError
from repro.faults import FaultPlan, FaultRule, RetryPolicy

SHAPE = (64, 64, 64)


def nominal_leg(name="mini_nominal"):
    return Leg(name, 1e-3,
               lambda t: run_tida("heat", shape=SHAPE, steps=2, n_regions=4,
                                  functional=False, telemetry=t))


def incident_leg():
    return Leg("mini_incident", 1e-3,
               lambda t: run_tida(
                   "heat", shape=SHAPE, steps=2, n_regions=4,
                   faults=FaultPlan([FaultRule(op="h2d")]),
                   retry=RetryPolicy(max_attempts=2),
                   functional=False, telemetry=t),
               nominal=False, expect_error=FaultError, expect_incident=True)


class TestRunLeg:
    def test_nominal_leg_passes_and_persists(self, tmp_path):
        entry = run_leg(nominal_leg(), tmp_path)
        assert entry["problems"] == []
        assert entry["samples"] > 0 and entry["alerts"] == []
        assert entry["health"]["status"] == "ok"
        session = tmp_path / "telemetry_mini_nominal.jsonl"
        assert session.exists()
        first = json.loads(session.read_text().splitlines()[0])
        assert first["schema"] == "repro-telemetry/1"

    def test_incident_leg_dumps_and_passes(self, tmp_path):
        entry = run_leg(incident_leg(), tmp_path)
        assert entry["problems"] == []
        assert entry["error"] == "FaultError"
        assert len(entry["incidents"]) == 1
        incident = json.loads((tmp_path / "incidents_mini_incident"
                               / "incident.json").read_text())
        assert incident["schema"] == "repro-incident/1"

    def test_unexpected_error_is_flagged(self, tmp_path):
        leg = Leg("mini_dies", 1e-3,
                  lambda t: run_tida(
                      "heat", shape=SHAPE, steps=2, n_regions=4,
                      faults=FaultPlan([FaultRule(op="h2d")]),
                      retry=RetryPolicy(max_attempts=2),
                      functional=False, telemetry=t))
        entry = run_leg(leg, tmp_path)
        assert any("died with FaultError" in p for p in entry["problems"])

    def test_missing_expected_alert_is_flagged(self, tmp_path):
        leg = Leg("mini_expects", 1e-3,
                  nominal_leg().run,
                  expect_alerts=frozenset({"overlap_collapse"}), nominal=False)
        entry = run_leg(leg, tmp_path)
        assert any("never fired" in p for p in entry["problems"])


class TestManifest:
    def test_shape_matches_report_cli_contract(self, tmp_path):
        entries = [run_leg(nominal_leg(), tmp_path)]
        manifest = _manifest(entries)
        assert manifest["schema"] == "repro-run-manifest/1"
        assert set(manifest["legs"]) == {"mini_nominal"}
        assert manifest["alerts"] == []
        assert manifest["health"]["mini_nominal"]["status"] == "ok"

    def test_leg_catalog_covers_expected_classes(self):
        legs = _legs()
        by_name = {leg.name: leg for leg in legs}
        assert sum(leg.nominal for leg in legs) == 4
        assert by_name["overlap_collapse"].expect_alerts == {"overlap_collapse"}
        assert by_name["cache_thrash"].expect_alerts == {"cache_thrash"}
        assert by_name["retry_storm"].expect_alerts == {"retry_storm"}
        assert by_name["incident_fault"].expect_incident
