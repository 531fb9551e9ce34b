"""Table.from_trace: the performance-counter summary."""

import pytest

from repro.baselines import run_tida
from repro.bench.report import Table
from repro.sim.trace import Trace


class TestTraceSummary:
    @pytest.fixture(scope="class")
    def summary(self, ):
        r = run_tida("compute", shape=(64, 64, 64), steps=3, n_regions=4,
                     kernel_iteration=8)
        return Table.from_trace(r.trace), r

    def test_has_all_metrics(self, summary):
        table, _ = summary
        metrics = set(table.column("metric"))
        assert {"span", "compute busy", "h2d busy", "d2h busy",
                "h2d bytes", "d2h bytes",
                "h2d achieved bandwidth",
                "transfer hidden behind compute"} <= metrics

    def test_utilization_bounded(self, summary):
        table, _ = summary
        for lane in ("compute", "h2d", "d2h"):
            util = table.row_by("metric", f"{lane} utilization")[1]
            assert 0.0 <= util <= 1.0

    def test_bytes_match_workload(self, summary):
        table, r = summary
        # resident run: whole array up once, down once
        expected = 64 ** 3 * 8
        assert table.row_by("metric", "h2d bytes")[1] == expected
        assert table.row_by("metric", "d2h bytes")[1] == expected

    def test_achieved_bandwidth_near_link_speed(self, summary, machine):
        table, _ = summary
        bw = table.row_by("metric", "h2d achieved bandwidth")[1]
        # achieved = payload / (latency + payload/bw): slightly below peak
        assert 0.8 * machine.link.h2d_bandwidth < bw <= machine.link.h2d_bandwidth

    def test_empty_trace(self):
        table = Table.from_trace(Trace())
        assert table.row_by("metric", "span")[1] == 0.0

    def test_formats(self, summary):
        table, _ = summary
        out = table.format()
        assert "achieved bandwidth" in out
