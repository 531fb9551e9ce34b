"""The traced run: per-layer metrics of one workload.

Three passes share the time budget:

1. an untraced pass with the workload's own settings, which gives the
   deterministic per-layer counts, the raw-time diagnostics and the
   denominator of the tracing overhead;
2. for workloads that run the hazard checker, the same pass with the
   checker off (the ``check.cost_ms_per_step`` ablation);
3. a traced pass with a :class:`~spans.SpanRecorder` wrapped around the
   public entry points of every layer the workloads reach.

Span self times are normalised by the traced pass's median reference
probe, like every other host time of the benchmark.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from refwork import NOMINAL_SECONDS
from spans import SpanRecorder
import workloads as wl

#: Every per-layer metric, in BENCHMARK.json order: name -> unit.
LAYER_UNITS: dict[str, str] = {
    "tida.exchange_pairs_per_fill": "count",
    "core.fill_boundary_ms_p50": "ms",
    "core.fill_boundary_share": "ratio",
    "core.compute_us_p50": "us",
    "cuda.launch_us_p50": "us",
    "cuda.memcpy_async_us_p50": "us",
    "openacc.parallel_loop_us_p50": "us",
    "sim.engine_submit_us_p50": "us",
    "check.record_op_us_p50": "us",
    "check.ops": "count",
    "check.racy_hazards": "count",
    "check.cost_ms_per_step": "ms",
    "core.cache_hit_ratio": "ratio",
    "core.evictions": "count",
    "core.writeback_bytes": "bytes",
    "core.prefetch_useful_ratio": "ratio",
    "cuda.kernel_launches": "count",
    "cuda.h2d_bytes": "bytes",
    "cuda.d2h_bytes": "bytes",
    "cuda.api_calls": "count",
    "cuda.stall_s": "s",
    "sim.device_ops_per_step": "count",
    "sim.busy_s.compute": "s",
    "sim.busy_s.h2d": "s",
    "sim.busy_s.d2h": "s",
    "sim.trace_events": "count",
    "service.submit_us_p50": "us",
    "plan.plan_program_ms_p50": "ms",
    "plan.calls_per_job": "count",
    "service.run_self_ms_per_job": "ms",
    "service.quanta": "count",
    "service.backlog_max": "count",
    "service.defers": "count",
    "service.degraded": "count",
    "service.shed_slots": "count",
    "service.dedup_bytes_avoided": "bytes",
    "kernels.body_ms_total": "ms",
    "obs.snapshot_ms": "ms",
    "obs.trace_export_ms": "ms",
    "obs.slo_records": "count",
    "host.ref_ms": "ms",
    "host.raw_step_ms_p50": "ms",
    "host.raw_jobs_per_s": "1/s",
    "bench.trace_overhead_ratio": "ratio",
}

#: Kernel bodies, wrapped where their factories look them up, so every
#: kernel built while tracing times its functional body.
KERNEL_BODIES = {
    "repro.kernels.heat": ("_heat_body", "_coeff_heat_body"),
    "repro.kernels.compute_intensive": ("_ci_body",),
    "repro.kernels.exchange": ("_ghost_copy_body", "_face_copy_body",
                               "_bc_faces_body", "_face_fill_body"),
}


def install_spans(spans: SpanRecorder) -> None:
    """Wrap the layer entry points the workloads call."""
    import importlib

    from repro.check.hazards import HazardChecker
    from repro.core.library import TidaAcc
    from repro.cuda.runtime import CudaRuntime
    from repro.openacc.runtime import AccRuntime
    from repro.service import service as service_module
    from repro.sim.engine import FifoEngine
    from repro.tida.tile_array import TileArray

    for attr in ("fill_boundary", "iterator", "compute", "swap", "synchronize"):
        spans.install(TidaAcc, attr, f"core.{attr}")
    spans.install(TileArray, "exchange_pairs", "tida.exchange_pairs", count=len)
    spans.install(CudaRuntime, "launch", "cuda.launch")
    spans.install(CudaRuntime, "memcpy_async", "cuda.memcpy_async")
    spans.install(AccRuntime, "parallel_loop", "openacc.parallel_loop")
    spans.install(FifoEngine, "submit", "sim.engine_submit")
    spans.install(HazardChecker, "record_op", "check.record_op")
    spans.install(service_module, "plan_program", "plan.plan_program")
    spans.install(service_module.Service, "submit", "service.submit")
    spans.install(service_module.Service, "run", "service.run")
    # the service's on_finish hook probes host speed inside Service.run;
    # a span of its own keeps that time out of run's self time
    spans.install(wl.HostSpeed, "probe", "bench.ref_probe")
    for module_name, attrs in KERNEL_BODIES.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            spans.install(module, attr, "kernels.body")


def _run(workload: str, seed: int, seconds: float, *, check: str | None,
         keep: bool = False, verify: bool = False) -> wl.Measurement:
    if workload == "service-backlog":
        # one set-up per session, so plan and submit counts are per job
        return wl.run_service(seed, seconds, check=check, min_rounds=1,
                              keep=keep, verify=verify, setup_repeats=1)
    return wl.run_solver(wl.SOLVERS[workload], seed, seconds, check=check,
                         keep=keep)


def _sum(counters: dict[str, float], prefix: str) -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix))


def _ms(seconds: float, scale: float) -> float:
    return seconds * scale * 1e3


def layer_metrics(workload: str, seed: int, seconds: float
                  ) -> tuple[dict[str, float], list[wl.Measurement], dict[str, float]]:
    """Every per-layer metric, the passes that produced them, and each
    span's self time as a share of the traced pass's timed host time."""
    check = wl.default_check(workload)
    base = _run(workload, seed, 0.35 * seconds, check=check, verify=True)
    passes = [base]
    check_cost_ms = 0.0
    if check is not None:
        off = _run(workload, seed, 0.2 * seconds, check=None)
        passes.append(off)
        check_cost_ms = (statistics.median(base.unit_s)
                         - statistics.median(off.unit_s)) * 1e3
    spans = SpanRecorder()
    install_spans(spans)
    try:
        traced = _run(workload, seed, 0.45 * seconds, check=check, keep=True)
    finally:
        spans.uninstall()
    passes.append(traced)

    scale = NOMINAL_SECONDS / statistics.median(traced.speed.samples)
    kept = traced.kept
    t0 = perf_counter()
    kept.metrics.snapshot()
    snapshot_s = perf_counter() - t0
    t0 = perf_counter()
    kept.runtime.trace.to_chrome_trace()
    export_s = perf_counter() - t0
    traced.kept = None

    def self_p50(name: str) -> float:
        values = spans.self_s.get(name)
        return statistics.median(values) * scale if values else 0.0

    rec = base.records[0]
    c = rec["counters"]
    per_unit = len(rec["unit_latency_s"])
    fills = len(spans.self_s.get("core.fill_boundary", ()))
    traced_s = traced.raw_s
    hits, misses = _sum(c, "cache.hits."), _sum(c, "cache.misses.")
    issued = _sum(c, "cache.prefetch_issued.")
    submits = len(spans.self_s.get("service.submit", ()))
    is_service = workload == "service-backlog"
    metrics = {
        "tida.exchange_pairs_per_fill":
            spans.counts["tida.exchange_pairs"] / fills if fills else 0.0,
        "core.fill_boundary_ms_p50": self_p50("core.fill_boundary") * 1e3,
        "core.fill_boundary_share":
            spans.total_s["core.fill_boundary"] / traced_s,
        "core.compute_us_p50": self_p50("core.compute") * 1e6,
        "cuda.launch_us_p50": self_p50("cuda.launch") * 1e6,
        "cuda.memcpy_async_us_p50": self_p50("cuda.memcpy_async") * 1e6,
        "openacc.parallel_loop_us_p50": self_p50("openacc.parallel_loop") * 1e6,
        "sim.engine_submit_us_p50": self_p50("sim.engine_submit") * 1e6,
        "check.record_op_us_p50": self_p50("check.record_op") * 1e6,
        "check.ops": c.get("check.ops", 0.0),
        "check.racy_hazards": float(rec["racy"]),
        "check.cost_ms_per_step": check_cost_ms,
        "core.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.evictions": _sum(c, "cache.evictions."),
        "core.writeback_bytes": _sum(c, "cache.writeback_bytes."),
        "core.prefetch_useful_ratio":
            _sum(c, "cache.prefetch_useful.") / issued if issued else 0.0,
        "cuda.kernel_launches": c.get("cuda.kernel_launches", 0.0),
        "cuda.h2d_bytes": c.get("cuda.h2d_bytes", 0.0),
        "cuda.d2h_bytes": c.get("cuda.d2h_bytes", 0.0),
        "cuda.api_calls": c.get("cuda.api_calls", 0.0),
        "cuda.stall_s": c.get("cuda.stall_seconds", 0.0),
        "sim.device_ops_per_step": rec["device_ops"] / per_unit,
        "sim.busy_s.compute": rec["busy_s"]["compute"],
        "sim.busy_s.h2d": rec["busy_s"]["h2d"],
        "sim.busy_s.d2h": rec["busy_s"]["d2h"],
        "sim.trace_events": float(rec["trace_events"]),
        "service.submit_us_p50": self_p50("service.submit") * 1e6,
        "plan.plan_program_ms_p50": self_p50("plan.plan_program") * 1e3,
        "plan.calls_per_job":
            len(spans.self_s.get("plan.plan_program", ())) / submits
            if submits else 0.0,
        "service.run_self_ms_per_job":
            _ms(sum(spans.self_s.get("service.run", ())), scale) / traced.jobs
            if is_service else 0.0,
        "service.quanta": float(rec.get("quanta", 0)),
        "service.backlog_max": float(rec.get("backlog_max", 0)),
        "service.defers": float(rec.get("defers", 0)),
        "service.degraded": float(rec.get("degraded", 0)),
        "service.shed_slots": float(rec.get("shed_slots", 0)),
        "service.dedup_bytes_avoided": c.get("service.dedup_bytes_avoided", 0.0),
        "kernels.body_ms_total":
            _ms(spans.total_s["kernels.body"], scale) / traced.rounds,
        "obs.snapshot_ms": _ms(snapshot_s, scale),
        "obs.trace_export_ms": _ms(export_s, scale),
        "obs.slo_records": float(rec.get("slo_records", 0)),
        "host.ref_ms": statistics.median(base.speed.samples) * 1e3,
        "host.raw_step_ms_p50": statistics.median(base.raw_unit_s) * 1e3,
        "host.raw_jobs_per_s": statistics.median(base.raw_jobs_rate),
        "bench.trace_overhead_ratio":
            statistics.median(traced.unit_s) / statistics.median(base.unit_s),
    }
    shares = {name: sum(v) / traced_s for name, v in sorted(spans.self_s.items())}
    return metrics, passes, shares
