"""Critical-path profiling, overlap attribution, and what-if replay.

The two acceptance-grade properties live here: the per-category
attribution of a real checked heat run sums to its wall time within 1%,
and the "PCIe x2" what-if prediction lands within 5% of actually
re-simulating the same workload at double link rate (the Fig. 3
workload).  Around them, unit coverage for the classifiers, the replay,
the trace-only fallback, the multi-GPU peer nodes, and the
``obs.report --critpath`` CLI.
"""

import json
from dataclasses import replace

import pytest

from repro.baselines.tida_runners import run_tida
from repro.check.dag import DagNode, dag_to_json
from repro.config import PCIE_GEN3_X16, k40m_pcie3
from repro.obs.critpath import (
    CATEGORIES,
    RunDag,
    Scenario,
    attribution,
    attribution_by_field,
    attribution_by_region,
    categorize,
    critical_path,
    critpath_metrics,
    critpath_summary,
    field_of,
    flip_point,
    overlap_report,
    region_of,
    replay,
    whatif,
)
from repro.obs.report import main


def node(op_id, kind, label, start, end, *, deps=(), host_dep=None,
         host_gap=0.0, issue=None, nbytes=0):
    return DagNode(
        op_id=op_id, kind=kind, label=label, start=start, end=end,
        issue=start if issue is None else issue, nbytes=nbytes,
        streams=((0, 1),), engines=(kind,), deps=tuple(deps),
        host_dep=host_dep, host_gap=host_gap,
    )


@pytest.fixture(scope="module")
def heat_run():
    """A checked Fig. 3-style heat solve: DAG + iteration marks."""
    return run_tida(
        "heat", machine=k40m_pcie3(), shape=(64, 64, 64), steps=2, n_regions=4,
        check="observe",
    )


@pytest.fixture(scope="module")
def heat_dag(heat_run):
    marks = [m["ts"] for m in heat_run.trace.marks if m["name"] == "iteration"]
    return RunDag.from_nodes(heat_run.dag, marks=marks)


class TestClassifiers:
    def test_categorize_by_kind_and_label(self):
        cases = [
            ("kernel", "compute:heat3d:u_new.r3", "kernel"),
            ("h2d", "h2d:u_old.r0", "h2d"),
            ("h2d", "prefetch:u_old.r5", "h2d"),
            ("d2h", "d2h:u_new.r1", "d2h"),
            ("d2h", "evict:u_new.r7", "write-back"),
            ("kernel", "ghost:u_old.r1<-u_old.r0", "ghost"),
            ("kernel", "bc-faces:u_old.r0", "ghost"),
            ("peer", "peer:halo", "peer"),
        ]
        for kind, label, expected in cases:
            assert categorize(node(1, kind, label, 0.0, 1.0)) == expected

    def test_field_and_region_of(self):
        assert field_of("h2d:u_old.r3") == "u_old"
        assert region_of("h2d:u_old.r3") == "u_old.r3"
        assert field_of("compute:heat3d:u_new.r12") == "u_new"
        assert region_of("ghost:u_old.r1<-u_old.r0") == "u_old.r1"
        assert field_of("(issue)") == "(issue)"
        assert region_of("(issue)") == "-"


class TestCriticalPathSmall:
    """Hand-built DAGs with known critical paths."""

    def test_chain_tiles_exactly(self):
        nodes = [
            node(1, "h2d", "h2d:u.r0", 0.0, 2.0),
            node(2, "kernel", "compute:k:u.r0", 2.0, 5.0,
                 deps=[(1, "stream")]),
            node(3, "d2h", "d2h:u.r0", 5.0, 6.0, deps=[(2, "stream")]),
        ]
        segs = critical_path(nodes)
        assert [s.category for s in segs] == ["h2d", "kernel", "d2h"]
        assert segs[0].start == 0.0 and segs[-1].end == 6.0
        for a, b in zip(segs, segs[1:]):
            assert a.end == b.start

    def test_gap_becomes_host_segment(self):
        nodes = [
            node(1, "h2d", "h2d:u.r0", 0.0, 2.0),
            # starts 1s after its only dep finished: host-bound interval
            node(2, "kernel", "compute:k:u.r0", 3.0, 5.0,
                 deps=[(1, "stream")]),
        ]
        segs = critical_path(nodes)
        assert [s.category for s in segs] == ["h2d", "host", "kernel"]
        host = segs[1]
        assert (host.start, host.end) == (2.0, 3.0)
        assert host.op_id is None
        assert attribution(segs)["host"] == 1.0

    def test_leading_gap_before_first_op(self):
        nodes = [
            node(1, "h2d", "h2d:a", 0.0, 1.0),
            # the sink has no deps and starts late: everything before it
            # is charged to the host
            node(2, "kernel", "compute:k:b.r0", 4.0, 9.0),
        ]
        segs = critical_path(nodes)
        assert [s.category for s in segs] == ["host", "kernel"]
        assert segs[0].start == 0.0 and segs[0].end == 4.0

    def test_binding_predecessor_is_latest_finisher(self):
        nodes = [
            node(1, "h2d", "h2d:a", 0.0, 1.0),
            node(2, "h2d", "h2d:b", 0.0, 4.0),
            node(3, "kernel", "compute:k:c.r0", 4.0, 5.0,
                 deps=[(1, "event"), (2, "event")]),
        ]
        segs = critical_path(nodes)
        assert [s.op_id for s in segs] == [2, 3]

    def test_empty_dag(self):
        assert critical_path([]) == []
        assert overlap_report(RunDag(nodes=())) == []

    def test_grouped_attribution(self):
        segs = critical_path([
            node(1, "h2d", "h2d:u.r0", 0.0, 2.0),
            node(2, "kernel", "compute:k:v.r1", 2.0, 5.0,
                 deps=[(1, "stream")]),
        ])
        by_field = attribution_by_field(segs)
        assert by_field["u"]["h2d"] == 2.0
        assert by_field["v"]["kernel"] == 3.0
        by_region = attribution_by_region(segs)
        assert by_region["u.r0"]["h2d"] == 2.0


class TestReplaySmall:
    def test_identity_reproduces_recorded_times(self):
        nodes = [
            node(1, "h2d", "h2d:u.r0", 0.0, 2.0),
            node(2, "kernel", "compute:k:u.r0", 2.0, 5.0,
                 deps=[(1, "stream")]),
            node(3, "d2h", "d2h:u.r0", 5.0, 6.0, deps=[(2, "stream")]),
        ]
        out, makespan = replay(nodes, Scenario("baseline"))
        assert makespan == 6.0
        for orig, new in zip(nodes, out):
            assert new.start == orig.start and new.end == orig.end

    def test_host_gap_is_preserved(self):
        nodes = [
            node(1, "h2d", "h2d:u.r0", 0.0, 2.0),
            node(2, "kernel", "compute:k:u.r0", 2.5, 4.5,
                 deps=[(1, "stream")], host_dep=1, host_gap=0.5, issue=2.5),
        ]
        out, makespan = replay(nodes, Scenario("baseline"))
        assert out[1].issue == pytest.approx(2.5)
        assert makespan == pytest.approx(4.5)

    def test_kernel_factor_halves_kernels_only(self):
        nodes = [
            node(1, "h2d", "h2d:u.r0", 0.0, 2.0),
            node(2, "kernel", "compute:k:u.r0", 2.0, 6.0,
                 deps=[(1, "stream")]),
        ]
        out, _ = replay(nodes, Scenario("k2", kernel_factor=2.0))
        assert out[0].duration == 2.0          # transfer untouched
        assert out[1].duration == pytest.approx(2.0)

    def test_drop_writebacks_zeroes_evictions_only(self):
        nodes = [
            node(1, "d2h", "evict:u.r0", 0.0, 2.0),
            node(2, "d2h", "d2h:u.r1", 2.0, 3.0, deps=[(1, "engine")]),
        ]
        out, makespan = replay(
            nodes, Scenario("slots", drop_writebacks=True)
        )
        assert out[0].duration == 0.0
        assert out[1].duration == 1.0
        assert makespan == pytest.approx(1.0)

    def test_link_factor_keeps_fixed_latency(self):
        machine = k40m_pcie3()
        lat = machine.link.latency
        dur = lat + 1e-3
        nodes = [node(1, "h2d", "h2d:u.r0", 0.0, dur)]
        out, _ = replay(
            nodes, Scenario("x2", link_factor=2.0), machine=machine
        )
        assert out[0].duration == pytest.approx(lat + 1e-3 / 2)


class TestHeatRunAttribution:
    """The real checked heat run: acceptance property #1."""

    def test_dag_recorded(self, heat_run):
        assert heat_run.dag
        kinds = {n.kind for n in heat_run.dag}
        assert {"h2d", "kernel"} <= kinds

    def test_attribution_sums_to_wall_within_1pct(self, heat_dag):
        segs = critical_path(heat_dag.nodes)
        total = sum(attribution(segs).values())
        assert total == pytest.approx(heat_dag.wall, rel=0.01)

    def test_segments_tile_the_run_span(self, heat_dag):
        segs = critical_path(heat_dag.nodes)
        assert segs[0].start == pytest.approx(heat_dag.t0)
        assert segs[-1].end == pytest.approx(heat_dag.t_end)
        for a, b in zip(segs, segs[1:]):
            assert a.end == pytest.approx(b.start)

    def test_identity_replay_is_exact(self, heat_dag):
        out, makespan = replay(heat_dag.nodes, Scenario("baseline"))
        err = max(
            abs(new.end - orig.end)
            for orig, new in zip(heat_dag.nodes, out)
        )
        assert err == pytest.approx(0.0, abs=1e-12)
        assert makespan == pytest.approx(heat_dag.wall, abs=1e-12)

    def test_grouped_attributions_sum_to_total(self, heat_dag):
        segs = critical_path(heat_dag.nodes)
        total = sum(attribution(segs).values())
        for grouped in (attribution_by_field(segs),
                        attribution_by_region(segs)):
            flat = sum(v for cats in grouped.values() for v in cats.values())
            assert flat == pytest.approx(total)

    def test_overlap_report_per_iteration(self, heat_dag):
        rows = overlap_report(heat_dag)
        assert len(rows) >= 2   # one row per marked iteration
        assert sum(r["wall_s"] for r in rows) == pytest.approx(heat_dag.wall)
        # (the window before the first swap may hold only uploads, so
        # positivity is asserted on the totals, not per row)
        assert sum(r["compute_s"] for r in rows) > 0
        assert sum(r["transfer_s"] for r in rows) > 0
        for r in rows:
            assert r["ideal_s"] == max(r["compute_s"], r["transfer_s"])
            assert 0.0 <= r["efficiency"]

    def test_whatif_panel(self, heat_dag):
        rows = {r["scenario"]: r for r in whatif(heat_dag)}
        assert rows["baseline"]["speedup"] == pytest.approx(1.0)
        # this workload is transfer-dominated: faster links help, and
        # more link speed never hurts
        assert rows["pcie x2"]["speedup"] > 1.2
        assert rows["pcie x4"]["speedup"] >= rows["pcie x2"]["speedup"]
        assert rows["kernels x2"]["speedup"] >= 1.0
        for r in rows.values():
            assert r["bound"] in ("transfer", "compute", "host")

    def test_flip_point_on_transfer_bound_run(self, heat_dag):
        flip = flip_point(heat_dag)
        assert flip is not None and flip > 1.0

    def test_summary_and_metrics_flattening(self, heat_dag):
        summary = critpath_summary(heat_dag)
        assert summary["wall_s"] == pytest.approx(heat_dag.wall)
        assert summary["n_ops"] == len(heat_dag.nodes)
        assert set(summary["attribution"]) == set(CATEGORIES)
        flat = critpath_metrics(summary)
        assert flat["critpath.wall_s"] == pytest.approx(heat_dag.wall)
        assert "critpath.path.kernel_s" in flat
        assert "critpath.path.write_back_s" in flat
        assert "critpath.overlap_efficiency" in flat
        assert flat["critpath.whatif.baseline.speedup"] == pytest.approx(1.0)
        assert "critpath.whatif.pcie_x2.speedup" in flat
        assert "critpath.whatif.nvlink__x5.speedup" in flat


class TestPcieX2Prediction:
    """Acceptance property #2: the what-if matches a real re-simulation."""

    def test_x2_prediction_within_5pct_of_resimulation(self):
        machine = k40m_pcie3()
        kwargs = dict(shape=(128, 128, 128), steps=3, n_regions=8)
        r = run_tida("heat", machine=machine, check="observe", **kwargs)
        link2 = replace(
            PCIE_GEN3_X16,
            h2d_bandwidth=2 * PCIE_GEN3_X16.h2d_bandwidth,
            d2h_bandwidth=2 * PCIE_GEN3_X16.d2h_bandwidth,
        )
        r2 = run_tida("heat", machine=machine.with_link(link2), **kwargs)
        actual = r.elapsed / r2.elapsed

        dag = RunDag.from_nodes(r.dag)
        _, base = replay(dag.nodes, Scenario("baseline"), machine=machine)
        _, fast = replay(
            dag.nodes, Scenario("x2", link_factor=2.0), machine=machine
        )
        predicted = base / fast
        assert actual > 1.3     # the workload really is transfer-bound
        assert predicted == pytest.approx(actual, rel=0.05)


class TestFromTraceFallback:
    """Runs without a checker still get a (coarser) analysis."""

    def test_attribution_sums_to_wall(self, heat_run):
        dag = RunDag.from_trace(heat_run.trace)
        assert dag.nodes
        segs = critical_path(dag.nodes)
        total = sum(attribution(segs).values())
        assert total == pytest.approx(dag.wall, rel=0.01)

    def test_iteration_marks_survive(self, heat_run):
        dag = RunDag.from_trace(heat_run.trace)
        assert len(dag.iteration_marks) == heat_run.steps

    def test_from_manifest_prefers_recorded_dag(self, heat_run):
        manifest = {
            "traceEvents": heat_run.trace.to_chrome_trace(),
            "dag": dag_to_json(heat_run.dag),
        }
        dag = RunDag.from_manifest(manifest)
        assert dag is not None
        assert len(dag.nodes) == len(heat_run.dag)
        assert dag.iteration_marks   # recovered from the trace instants
        assert RunDag.from_manifest({"traceEvents": []}) is None


class TestMultiGpuPeerNodes:
    def test_peer_copies_recorded_with_peer_kind(self, machine):
        from repro.multi.runtime import MultiGpuRuntime

        multi = MultiGpuRuntime(machine, n_devices=2, check="observe")
        d0, d1 = multi.devices
        a = d0.malloc(1024, label="a")
        b = d1.malloc(1024, label="b")
        h = d0.malloc_pinned(1024, label="h")
        end = d0.memcpy_async(a, h, d0.create_stream())
        multi.peer_copy(1, b, 0, a, after=end)
        peers = [n for n in multi.checker.dag if n.kind == "peer"]
        assert len(peers) == 1
        (peer,) = peers
        assert peer.nbytes == a.nbytes > 0
        assert len(peer.streams) == 2           # source + destination
        assert categorize(peer) == "peer"
        assert (1, "after") in peer.deps


class TestReportCli:
    @pytest.fixture(scope="class")
    def manifest_path(self, heat_run, tmp_path_factory):
        path = tmp_path_factory.mktemp("critpath") / "run.json"
        path.write_text(json.dumps({
            "schema": "repro-run-manifest/1",
            "traceEvents": heat_run.trace.to_chrome_trace(),
            "metrics": heat_run.metrics,
            "dag": dag_to_json(heat_run.dag),
        }))
        return path

    def test_critpath_flag_prints_all_four_tables(self, manifest_path, capsys):
        assert main([str(manifest_path), "--critpath"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "critical-path attribution" in out
        assert "overlap efficiency" in out
        assert "what-if (replayed schedule)" in out
        assert "lane utilization" in out        # the base report still prints

    def test_json_format_round_trips(self, manifest_path, tmp_path):
        out_file = tmp_path / "report.json"
        rc = main([
            str(manifest_path), "--critpath",
            "--format", "json", "--out", str(out_file),
        ])
        assert rc == 0
        data = json.loads(out_file.read_text())
        titles = [t["title"] for t in data["tables"]]
        assert "critical-path attribution" in titles
        assert "what-if (replayed schedule)" in titles
        for t in data["tables"]:
            assert set(t) == {"title", "columns", "rows", "notes"}

    def test_critpath_works_without_dag_via_trace(self, heat_run, tmp_path,
                                                  capsys):
        path = tmp_path / "nodag.json"
        path.write_text(json.dumps({
            "schema": "repro-run-manifest/1",
            "traceEvents": heat_run.trace.to_chrome_trace(),
            "metrics": heat_run.metrics,
        }))
        assert main([str(path), "--critpath"]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
