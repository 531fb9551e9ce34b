"""Profiler CLI: ``python -m repro.obs.report <trace-or-run.json>``.

Input is either a Chrome/Perfetto trace file (as written by
:meth:`Trace.save_chrome_trace`) or a *run manifest* — a JSON object
carrying ``traceEvents`` and/or a ``metrics`` snapshot (as written by
``python -m repro trace`` and ``python -m repro bench --metrics-out``).  It prints:

* per-lane utilization and overlap fractions (the Fig. 3/7 health check);
* slot-cache statistics per field (hits, misses, evictions, write-backs);
* fault-injection statistics (injected/retried/recovered/degraded), when
  a fault plan was armed;
* the top-N widest pipeline stalls — engine-lane idle gaps, labelled
  with the operation that eventually filled them;
* counter-track and runtime-metric summaries.

``--critpath`` adds the causal-DAG analyses of
:mod:`repro.obs.critpath`: the critical path and its per-category /
per-field attribution, per-iteration overlap efficiency against the
``max(compute, transfer)`` lower bound, and the what-if panel of
predicted speedups under perturbed machines.  The DAG comes from the
manifest's ``"dag"`` key (recorded by the hazard checker) when present,
else it is reconstructed from the trace's FIFO orders.

``--format json`` emits every table as machine-readable JSON instead of
aligned text; ``--out FILE`` writes the output there instead of stdout.

``--compare baseline.json`` instead diffs the two manifests' metric
snapshots and fails when any metric regressed by more than
``--threshold`` (default 10%) — the seed of bench-trajectory gating.

``--slo`` / ``--blame`` add the multi-tenant operability tables: the
per-tenant SLO rollup (latency percentiles, error budget, burn rates)
from the manifest's ``"slo"`` key and the contention-blame decomposition
(who stole each job's time, summing to the mux-vs-solo delta) from its
``"blame"`` key, both written by ``repro.bench.slo_bench``.

``--alerts`` / ``--health`` add the live-telemetry tables (watchdog
alerts and the health rollup recorded under the manifest's ``"alerts"``
and ``"health"`` keys by the ``repro.bench.live`` leg);
``--fail-on-alerts [SEVERITY]`` gates on them, failing when any alert
at or above SEVERITY (default ``warning``) is present.

Every gate failure — a ``--compare`` regression, a ``--fail-on-alerts``
hit, or an unreadable/contentless input — exits with code **2**, so CI
jobs can treat the exit code uniformly across compare/critpath/alert
gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from ..bench.report import Table
from ..sim.trace import Trace
from .compare import compare_snapshots

#: Trace categories executed by a hardware engine (stall analysis targets).
_ENGINE_CATEGORIES = {"kernel", "h2d", "d2h"}


def load_manifest(
    path: str | Path,
) -> tuple[Trace | None, dict[str, Any] | None, dict[str, Any]]:
    """Load a run manifest or raw Chrome trace.

    Returns ``(trace, metrics, manifest)`` — the manifest dict gives
    access to the optional ``"dag"`` and ``"critpath"`` keys (empty
    for a bare Chrome event array).
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, list):  # bare Chrome event array
        return Trace.from_chrome_trace(data), None, {}
    trace = None
    if "traceEvents" in data:
        trace = Trace.from_chrome_trace(data["traceEvents"])
    return trace, data.get("metrics"), data


def load_run(path: str | Path) -> tuple[Trace | None, dict[str, Any] | None]:
    """Load a run manifest or raw Chrome trace; returns (trace, metrics)."""
    trace, metrics, _data = load_manifest(path)
    return trace, metrics


# -- trace-derived tables ---------------------------------------------------

def utilization_table(trace: Trace) -> Table:
    table = Table(
        title="lane utilization",
        columns=["lane", "busy_s", "utilization", "operations"],
    )
    span = trace.span()
    for lane in trace.lanes():
        busy = trace.busy_time(lane)
        table.add_row(lane, busy, busy / span if span else 0.0, len(trace.by_lane(lane)))
    transfer_lanes = [
        lane for lane in trace.lanes()
        if any(e.category in ("h2d", "d2h") for e in trace.by_lane(lane))
    ]
    compute_lanes = [
        lane for lane in trace.lanes()
        if any(e.category == "kernel" for e in trace.by_lane(lane))
    ]
    table.add_note(f"span = {span:.6g} s")
    table.add_note(
        "transfer hidden behind compute = "
        f"{trace.overlap_fraction(transfer_lanes, compute_lanes):.4g}"
    )
    table.add_note(
        "compute overlapped with transfer = "
        f"{trace.overlap_fraction(compute_lanes, transfer_lanes):.4g}"
    )
    table.add_note(
        "host/compute hybrid overlap = "
        f"{trace.overlap_fraction(['host'], compute_lanes):.4g}"
    )
    return table


def stall_table(trace: Trace, *, top: int = 10) -> Table:
    """The ``top`` widest idle gaps on engine lanes.

    A gap is a maximal interval inside the trace span during which an
    engine lane ran nothing; each is labelled with the operation that
    ended it (what the engine was waiting to start).
    """
    table = Table(
        title=f"widest pipeline stalls (top {top})",
        columns=["lane", "start_s", "width_s", "next_op"],
    )
    if len(trace) == 0:
        return table
    t0 = min(e.start for e in trace)
    gaps: list[tuple[float, str, float, str]] = []
    for lane in trace.lanes():
        events = sorted(
            (e for e in trace.by_lane(lane)
             if e.category in _ENGINE_CATEGORIES and e.duration > 0),
            key=lambda e: e.start,
        )
        if not events:
            continue
        cursor = t0
        for e in events:
            if e.start > cursor:
                gaps.append((e.start - cursor, lane, cursor, e.name))
            cursor = max(cursor, e.end)
    gaps.sort(key=lambda g: -g[0])
    for width, lane, start, next_op in gaps[:top]:
        table.add_row(lane, start, width, next_op)
    return table


def counter_track_table(trace: Trace) -> Table:
    table = Table(
        title="counter tracks",
        columns=["track", "samples", "last", "max"],
    )
    for track, samples in sorted(trace.counter_tracks.items()):
        values = [v for _ts, v in samples]
        table.add_row(track, len(samples), values[-1] if values else 0.0,
                      max(values) if values else 0.0)
    return table


# -- metrics-derived tables -------------------------------------------------

def cache_table(metrics: dict[str, Any]) -> Table:
    """Per-field slot-cache statistics from ``cache.<stat>.<field>`` counters."""
    table = Table(
        title="slot-cache statistics",
        columns=["field", "hits", "misses", "hit rate", "evictions",
                 "writeback_bytes", "writebacks_skipped", "upload_bytes_avoided",
                 "pf_issued", "pf_useful", "pf_wasted", "stall_s_avoided"],
    )
    counters = metrics.get("counters", {})
    fields: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        parts = name.split(".", 2)
        if len(parts) == 3 and parts[0] == "cache":
            fields.setdefault(parts[2], {})[parts[1]] = value
    for fname in sorted(fields):
        stats = fields[fname]
        hits = stats.get("hits", 0.0)
        misses = stats.get("misses", 0.0)
        accesses = hits + misses
        table.add_row(
            fname,
            int(hits),
            int(misses),
            hits / accesses if accesses else 0.0,
            int(stats.get("evictions", 0.0)),
            int(stats.get("writeback_bytes", 0.0)),
            int(stats.get("writebacks_skipped", 0.0)),
            int(stats.get("upload_bytes_avoided", 0.0)),
            int(stats.get("prefetch_issued", 0.0)),
            int(stats.get("prefetch_useful", 0.0)),
            int(stats.get("prefetch_wasted", 0.0)),
            stats.get("stall_seconds_avoided", 0.0),
        )
    return table


def faults_table(metrics: dict[str, Any]) -> Table:
    """Fault-injection and recovery statistics from ``faults.*`` counters."""
    table = Table(
        title="fault injection & recovery",
        columns=["field", "retries", "recovered", "degraded"],
    )
    counters = metrics.get("counters", {})
    per_field: dict[str, dict[str, float]] = {}
    totals: dict[str, float] = {}
    injected_by_op: dict[str, float] = {}
    for name, value in counters.items():
        if not name.startswith("faults."):
            continue
        parts = name.split(".", 2)
        stat = parts[1]
        if len(parts) == 2:
            totals[stat] = value
        elif stat == "injected":
            injected_by_op[parts[2]] = value
        else:
            per_field.setdefault(parts[2], {})[stat] = value
    for fname in sorted(per_field):
        stats = per_field[fname]
        table.add_row(
            fname,
            int(stats.get("retries", 0.0)),
            int(stats.get("recovered", 0.0)),
            int(stats.get("degraded", 0.0)),
        )
    if totals.get("injected"):
        ops = ", ".join(f"{op}={int(v)}" for op, v in sorted(injected_by_op.items()))
        table.add_note(f"injected = {int(totals['injected'])} ({ops})")
    if totals.get("hang_seconds"):
        table.add_note(f"hang time injected = {totals['hang_seconds']:.6g} s")
    return table


def hazard_table(
    trace: Trace | None, metrics: dict[str, Any] | None
) -> Table:
    """Happens-before hazards flagged by the checker (:mod:`repro.check`).

    Rows come from the ``hazard`` decision marks the checker writes to the
    trace (one per flagged pair); the note summarizes the ``check.*``
    counters.  An armed checker with zero rows is itself a result: every
    device-buffer access of the run was provably ordered.
    """
    table = Table(
        title="happens-before hazards",
        columns=["t_s", "severity", "kind", "buffer", "earlier", "later"],
    )
    if trace is not None:
        for m in trace.marks:
            if m["name"] != "hazard":
                continue
            a = m.get("args", {})
            table.add_row(
                m["ts"], a.get("severity", "?"), a.get("kind", "?"),
                a.get("buffer", "?"), a.get("earlier", "?"), a.get("later", "?"),
            )
    if metrics is not None:
        counters = metrics.get("counters", {})
        ops = int(counters.get("check.ops", 0))
        if ops:
            table.add_note(
                f"checked ops = {ops}; "
                f"racy = {int(counters.get('check.hazards.racy', 0))}, "
                f"fifo-luck = {int(counters.get('check.hazards.fifo_luck', 0))} "
                f"(RAW={int(counters.get('check.raw', 0))}, "
                f"WAR={int(counters.get('check.war', 0))}, "
                f"WAW={int(counters.get('check.waw', 0))})"
            )
        unresolved = int(counters.get("check.after_unresolved", 0))
        if unresolved:
            table.add_note(f"unresolved after= components = {unresolved}")
    return table


def metrics_table(metrics: dict[str, Any]) -> Table:
    table = Table(title="runtime metrics", columns=["metric", "value"])
    for name, value in metrics.get("counters", {}).items():
        # cache, fault, and hazard counters have their own tables
        if not name.startswith(("cache.", "faults.", "check.")):
            table.add_row(name, value)
    for name, g in metrics.get("gauges", {}).items():
        table.add_row(f"{name} (last/max)", f"{g['value']:g}/{g['max']:g}")
    for name, h in metrics.get("histograms", {}).items():
        table.add_row(name, h)
    return table


# -- critical-path tables ---------------------------------------------------

def critical_path_table(summary: dict[str, Any], *, top: int = 10) -> Table:
    """The ``top`` longest segments of the critical path, in time order."""
    table = Table(
        title="critical path",
        columns=["t_start_s", "duration_s", "category", "operation"],
    )
    path = summary.get("path", [])
    widest = sorted(path, key=lambda s: -s["duration"])[:top]
    keep = {id(s) for s in widest}
    for seg in path:
        if id(seg) in keep:
            table.add_row(seg["start"], seg["duration"], seg["category"],
                          seg["label"])
    table.add_note(
        f"wall = {summary['wall_s']:.6g} s over {summary['n_ops']} ops; "
        f"path has {len(path)} segments (showing the {len(widest)} longest)"
    )
    return table


def attribution_table(summary: dict[str, Any]) -> Table:
    """Per-category and per-field critical-path attribution.

    The category rows partition the wall time exactly (the path tiles
    the run span); field rows re-slice the same seconds by the field
    each operation targets, host stalls under ``"-"``.
    """
    table = Table(
        title="critical-path attribution",
        columns=["category", "path_s", "share"],
    )
    wall = summary["wall_s"] or 1.0
    for cat, secs in summary["attribution"].items():
        if secs > 0.0:
            table.add_row(cat, secs, secs / wall)
    by_field = summary.get("attribution_by_field", {})
    for fname in sorted(by_field):
        total = sum(by_field[fname].values())
        parts = ", ".join(
            f"{c}={s:.3g}s" for c, s in sorted(by_field[fname].items()) if s > 0
        )
        table.add_note(f"field {fname}: {total:.3g}s ({parts})")
    by_region = summary.get("attribution_by_region", {})
    regions = sorted(
        ((sum(cats.values()), r) for r, cats in by_region.items() if r != "-"),
        reverse=True,
    )
    if regions:
        table.add_note(
            "hottest regions: "
            + ", ".join(f"{r}={s:.3g}s" for s, r in regions[:5])
        )
    return table


def overlap_table(summary: dict[str, Any]) -> Table:
    """Per-iteration achieved vs. ideal overlap (the Fig. 3/7 metric)."""
    table = Table(
        title="overlap efficiency",
        columns=["iteration", "wall_s", "compute_s", "transfer_s",
                 "ideal_s", "achieved_overlap_s", "ideal_overlap_s",
                 "efficiency"],
    )
    rows = summary.get("overlap", [])
    for r in rows:
        table.add_row(r["iteration"], r["wall_s"], r["compute_s"],
                      r["transfer_s"], r["ideal_s"], r["achieved_overlap_s"],
                      r["ideal_overlap_s"], r["efficiency"])
    if rows:
        wall = sum(r["wall_s"] for r in rows)
        ideal = sum(r["ideal_s"] for r in rows)
        table.add_note(
            f"ideal lower bound sum(max(compute, transfer)) = {ideal:.6g} s "
            f"vs wall {wall:.6g} s ({wall / ideal if ideal else 0.0:.3g}x)"
        )
    return table


def whatif_table(summary: dict[str, Any]) -> Table:
    """Predicted speedups under perturbed machines, from the DAG replay."""
    table = Table(
        title="what-if (replayed schedule)",
        columns=["scenario", "makespan_s", "speedup", "bound"],
    )
    for r in summary.get("whatif", ()):
        table.add_row(r["scenario"], r["makespan_s"], r["speedup"], r["bound"])
    flip = summary.get("flip_link_factor")
    if flip is None:
        table.add_note("baseline is not transfer-bound: no link-speed flip point")
    elif flip == float("inf"):
        table.add_note("still transfer-bound at the largest swept link factor")
    else:
        table.add_note(
            f"bottleneck flips from transfer- to compute-bound at link x{flip:g}"
        )
    return table


def build_critpath_report(
    trace: Trace | None,
    manifest: dict[str, Any],
    *,
    top: int = 10,
) -> list[Table]:
    """The four critpath tables, from the manifest's DAG or the trace.

    Returns an empty list when neither a recorded DAG nor a usable
    trace is available.
    """
    from .critpath import RunDag, critpath_summary

    dag = RunDag.from_manifest(manifest) if manifest else None
    source = "checker-recorded DAG"
    if dag is None and trace is not None and len(trace):
        dag = RunDag.from_trace(trace)
        source = "trace FIFO reconstruction (no checker DAG in manifest)"
    if dag is None or not dag.nodes:
        return []
    summary = manifest.get("critpath") or critpath_summary(dag)
    tables = [
        critical_path_table(summary, top=top),
        attribution_table(summary),
        overlap_table(summary),
        whatif_table(summary),
    ]
    tables[0].add_note(f"DAG source: {source}")
    return tables


def build_report(
    trace: Trace | None, metrics: dict[str, Any] | None, *, top: int = 10
) -> list[Table]:
    tables: list[Table] = []
    if trace is not None:
        tables.append(utilization_table(trace))
        tables.append(stall_table(trace, top=top))
        if trace.counter_tracks:
            tables.append(counter_track_table(trace))
    if metrics is not None:
        cache = cache_table(metrics)
        if cache.rows:
            tables.append(cache)
        faults = faults_table(metrics)
        if faults.rows or faults.notes:
            tables.append(faults)
        tables.append(metrics_table(metrics))
    hazards = hazard_table(trace, metrics)
    if hazards.rows or hazards.notes:
        tables.append(hazards)
    return tables


def alerts_table(alerts: list[dict[str, Any]]) -> Table:
    """Watchdog alerts recorded under the manifest's ``"alerts"`` key."""
    table = Table(
        title="watchdog alerts",
        columns=["t_s", "leg", "detector", "severity", "message"],
    )
    for a in alerts:
        table.add_row(
            a.get("t", 0.0), a.get("leg", "-"), a.get("detector", "?"),
            a.get("severity", "?"), a.get("message", ""),
        )
    if not alerts:
        table.add_note("no alerts recorded")
    return table


def health_table(health: dict[str, Any]) -> Table:
    """Health rollups recorded under the manifest's ``"health"`` key.

    Accepts either one health dict (``TelemetryBus.health()``) or a
    mapping of leg name to health dict, as ``repro.bench.live`` writes.
    """
    table = Table(
        title="telemetry health",
        columns=["leg", "status", "samples", "warnings", "criticals",
                 "incidents", "t_s"],
    )
    legs = health if health and "status" not in health else {"-": health}
    for name in sorted(legs):
        h = legs[name] or {}
        alerts = h.get("alerts", {})
        table.add_row(
            name, h.get("status", "?"), h.get("samples", 0),
            alerts.get("warning", 0), alerts.get("critical", 0),
            h.get("incidents", 0), h.get("now", 0.0),
        )
    return table


def slo_table(slo: dict[str, Any]) -> Table:
    """Per-tenant SLO rollup from the manifest's ``"slo"`` key.

    Accepts one :meth:`~repro.obs.slo.SloTracker.snapshot` payload or a
    mapping of leg name to snapshot (as ``repro.bench.slo_bench``
    writes); leg names prefix the tenant column.
    """
    table = Table(
        title="per-tenant SLO status",
        columns=["tenant", "jobs", "p50_s", "p95_s", "p99_s", "target_s",
                 "objective", "budget_left", "burn_fast", "burn_slow",
                 "burning"],
    )
    legs = slo if slo and "tenants" not in slo else {"": slo}
    n_alerts = 0
    for leg in sorted(legs):
        snap = legs[leg] or {}
        n_alerts += len(snap.get("alerts", ()))
        for tenant in sorted(snap.get("tenants", {})):
            row = snap["tenants"][tenant]
            pol = row.get("policy") or {}
            lat = row.get("latency", {})
            budget = row.get("budget", {})
            table.add_row(
                f"{leg}/{tenant}" if leg else tenant,
                int(budget.get("jobs", lat.get("count", 0))),
                lat.get("p50"), lat.get("p95"), lat.get("p99"),
                pol.get("target", "-"),
                f"{pol['objective']:.0%}" if pol else "-",
                (f"{budget['remaining_fraction']:+.0%}"
                 if pol and budget else "-"),
                f"{row.get('burn_fast', 0.0):.2f}x" if pol else "-",
                f"{row.get('burn_slow', 0.0):.2f}x" if pol else "-",
                "BURNING" if row.get("burning") else "-",
            )
    table.add_note(f"burn alerts recorded = {n_alerts}")
    return table


def blame_table(blame: dict[str, Any], *, top: int = 10) -> Table:
    """Contention blame from the manifest's ``"blame"`` key.

    ``blame`` carries per-job :func:`~repro.obs.critpath
    .blame_decomposition` rows under ``"jobs"`` and their
    :func:`~repro.obs.critpath.blame_summary` under ``"summary"``; the
    table shows the ``top`` most-delayed jobs and the summary totals as
    notes.  Components sum to the observed mux-vs-solo delta by
    construction, so every second of slowdown is attributed.
    """
    from .critpath import BLAME_COMPONENTS

    table = Table(
        title=f"contention blame (top {top} by delta)",
        columns=["job", "delta_s"] + list(BLAME_COMPONENTS) + ["residual"],
    )
    rows = sorted(blame.get("jobs", ()),
                  key=lambda r: -abs(r.get("delta", 0.0)))[:top]
    for r in rows:
        comp = r.get("components", {})
        table.add_row(
            r.get("job", "?"), r.get("delta", 0.0),
            *(comp.get(c, 0.0) for c in BLAME_COMPONENTS),
            r.get("residual", 0.0),
        )
    summary = blame.get("summary")
    if summary:
        parts = ", ".join(
            f"{c}={summary['components'].get(c, 0.0):.3g}s"
            for c in BLAME_COMPONENTS
            if summary.get("components", {}).get(c)
        )
        table.add_note(
            f"{summary.get('jobs', 0)} jobs, total delta "
            f"{summary.get('delta', 0.0):.6g}s ({parts or 'no contention'})"
        )
        table.add_note(
            f"max residual = {summary.get('max_residual', 0.0):.3g}s "
            "(components sum to delta by construction)"
        )
    return table


def compare_table(rows: list[dict[str, Any]], *, show_ok: bool = False) -> Table:
    table = Table(
        title="metric comparison vs baseline",
        columns=["metric", "baseline", "current", "rel_change", "verdict"],
    )
    for row in rows:
        if not show_ok and row["verdict"] == "ok":
            continue
        rel = row["rel_change"]
        table.add_row(
            row["metric"],
            row["baseline"] if row["baseline"] is not None else "-",
            row["current"] if row["current"] is not None else "-",
            f"{rel:+.1%}" if rel is not None else "-",
            row["verdict"],
        )
    return table


def _emit(
    tables: list[Table],
    *,
    fmt: str,
    out: str | None,
    extra: dict[str, Any] | None = None,
) -> None:
    """Render tables as text or JSON, to stdout or ``out``.

    Missing parent directories of ``out`` are created.  Callers must
    validate ``out`` with :func:`check_out_path` first — this function
    overwrites unconditionally.
    """
    if fmt == "json":
        payload: dict[str, Any] = {"tables": [t.to_json() for t in tables]}
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        text = "\n\n".join(t.format() for t in tables) + "\n"
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        sys.stdout.write(text)


def check_out_path(out: str | None) -> str | None:
    """Refuse ``--out`` targets that would silently clobber foreign files.

    Reports, in either format, belong in ``.json`` or ``.txt`` files;
    overwriting those on a re-run is expected.  An *existing* file with
    any other suffix (a source file, a manifest the user meant as input,
    ...) is almost certainly a mistyped path, so it is an error rather
    than a silent overwrite.  Returns an error message, or None when the
    target is acceptable.
    """
    if out is None:
        return None
    path = Path(out)
    if path.exists() and path.suffix not in (".json", ".txt"):
        return (
            f"refusing to overwrite existing non-report file {out!r} "
            "(reports go to .json or .txt; pick a new path or delete it first)"
        )
    if path.exists() and path.is_dir():
        return f"--out target {out!r} is a directory"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("run", help="trace or run-manifest JSON file")
    parser.add_argument("--top", type=int, default=10,
                        help="number of widest stalls to show (default 10)")
    parser.add_argument("--critpath", action="store_true",
                        help="add critical-path, attribution, overlap-efficiency "
                             "and what-if tables (from the manifest's DAG, or "
                             "reconstructed from the trace)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the report there instead of stdout")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="diff metric snapshots against a baseline manifest; "
                             "exit 2 when any metric regresses past --threshold")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold for --compare (default 0.10)")
    parser.add_argument("--show-ok", action="store_true",
                        help="with --compare, list unchanged metrics too")
    parser.add_argument("--alerts", action="store_true",
                        help="add the watchdog-alert table (from the manifest's "
                             "'alerts' key, as written by repro.bench.live)")
    parser.add_argument("--health", action="store_true",
                        help="add the telemetry health table (from the manifest's "
                             "'health' key)")
    parser.add_argument("--slo", action="store_true",
                        help="add the per-tenant SLO table (from the manifest's "
                             "'slo' key, as written by repro.bench.slo_bench)")
    parser.add_argument("--blame", action="store_true",
                        help="add the contention-blame table (from the "
                             "manifest's 'blame' key)")
    parser.add_argument("--fail-on-alerts", nargs="?", const="warning",
                        default=None, choices=("info", "warning", "critical"),
                        metavar="SEVERITY",
                        help="exit 2 when the manifest carries any alert at or "
                             "above SEVERITY (default warning when given bare)")
    args = parser.parse_args(argv)

    out_error = check_out_path(args.out)
    if out_error is not None:
        print(f"error: {out_error}", file=sys.stderr)
        return 2

    try:
        trace, metrics, manifest = load_manifest(args.run)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load {args.run}: {exc}", file=sys.stderr)
        return 2

    if args.compare is not None:
        try:
            _base_trace, base_metrics = load_run(args.compare)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline {args.compare}: {exc}", file=sys.stderr)
            return 2
        if metrics is None or base_metrics is None:
            print("error: --compare needs a 'metrics' snapshot in both files",
                  file=sys.stderr)
            return 2
        rows, regressions = compare_snapshots(
            metrics, base_metrics, threshold=args.threshold
        )
        _emit(
            [compare_table(rows, show_ok=args.show_ok)],
            fmt=args.format, out=args.out,
            extra={"rows": rows, "regressions": regressions},
        )
        if regressions:
            print(f"{len(regressions)} metric(s) regressed beyond "
                  f"{args.threshold:.0%}:")
            for row in regressions:
                cur = ("missing" if row["current"] is None
                       else format(row["current"], "g"))
                rel = ("" if row["rel_change"] is None
                       else f" ({row['rel_change']:+.1%})")
                print(f"  {row['metric']}: {row['baseline']:g} -> {cur}{rel}")
            return 2
        print(f"no regressions beyond {args.threshold:.0%}")
        return 0

    manifest_alerts = list(manifest.get("alerts", ()))
    wants_live = (args.alerts or args.health or args.slo or args.blame
                  or args.fail_on_alerts is not None)
    if trace is None and metrics is None and not (wants_live and manifest):
        print(f"error: {args.run} carries neither traceEvents nor metrics",
              file=sys.stderr)
        return 2
    tables = build_report(trace, metrics, top=args.top)
    if args.alerts:
        tables.append(alerts_table(manifest_alerts))
    if args.health:
        tables.append(health_table(manifest.get("health", {})))
    if args.slo:
        slo = manifest.get("slo")
        if not slo:
            print(f"error: {args.run} carries no 'slo' snapshot "
                  "(write one with python -m repro gate slo)", file=sys.stderr)
            return 2
        tables.append(slo_table(slo))
    if args.blame:
        blame = manifest.get("blame")
        if not blame:
            print(f"error: {args.run} carries no 'blame' decomposition "
                  "(write one with python -m repro gate slo)", file=sys.stderr)
            return 2
        tables.append(blame_table(blame, top=args.top))
    if args.critpath:
        crit = build_critpath_report(trace, manifest, top=args.top)
        if not crit:
            print(f"error: {args.run} carries neither a DAG nor trace events "
                  "to build the critical path from", file=sys.stderr)
            return 2
        tables.extend(crit)
    _emit(tables, fmt=args.format, out=args.out)
    if args.fail_on_alerts is not None:
        from .compare import failing_alerts

        failing = failing_alerts(manifest_alerts, args.fail_on_alerts)
        if failing:
            print(f"{len(failing)} alert(s) at or above "
                  f"{args.fail_on_alerts!r}:")
            for a in failing:
                print(f"  [{a.get('severity', '?')}] {a.get('detector', '?')} "
                      f"t={a.get('t', 0.0):.6g}: {a.get('message', '')}")
            return 2
        print(f"no alerts at or above {args.fail_on_alerts!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
