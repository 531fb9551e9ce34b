"""Service gate: ``python -m repro gate service``.

The acceptance spine of the multi-tenant service layer (see
:mod:`repro.service`): a seeded 8-tenant contention mix — one priority
tenant at weight 2.0 plus seven best-effort tenants, Poisson bursts from
the deterministic load generator — is replayed through four legs:

* **uncontended** — only the priority tenant's arrivals, at the same
  virtual times; its p95 latency is the QoS baseline;
* **contention** — the full mix under the weighted-fair scheduler; this
  leg yields aggregate device utilization and the priority tenant's
  contended p95;
* **serialized** — the same arrivals with ``scheduler="serial"`` (one
  job at a time, runtime reset between jobs): the utilization
  denominator the overlap claim is measured against;
* **dedup** — two variable-coefficient jobs sharing one proven
  read-only coefficient table; the second must borrow the first's
  device-resident copy instead of re-transferring it.

Conformance: every job in the contention and serialized legs must be
**byte-identical** to its solo run on a dedicated service, with zero
racy hazards anywhere, and re-running the contention leg under the same
seed must produce a byte-identical session log.

Exit codes: 1 when any conformance leg diverges (digest mismatch, racy
hazard, or session drift), 2 when a floor is missed: utilization
speedup below ``SPEEDUP_FLOOR`` (the issue's 1.5x bar), priority p95
slowdown above ``P95_SLOWDOWN_CEILING`` (the 1.25x bar), or no dedup
savings.

Every gated counter is a deterministic virtual-time value, gated at its
measured value; raw detail lives under the manifest's ungated
``"service"`` key.  ``--quick`` solo-checks only the priority tenant's
jobs plus a couple of best-effort ones; the gated counters are
identical either way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from ..service import LoadGenerator, Service, TrafficPattern, run_solo
from .gate import GateResult

#: Hard acceptance floors (exit 2), from the issue's acceptance criteria.
SPEEDUP_FLOOR = 1.5
P95_SLOWDOWN_CEILING = 1.25

#: The committed contention mix: 8 tenants, priority t0 at double
#: weight, bursty open-loop arrivals, one transfer-heavy and one
#: compute-heavy workload so overlap across jobs has something to hide.
SEED = 42
N_JOBS = 16
TOTAL_SLOTS = 144
PRIORITY_TENANT = "t0"
TENANTS = tuple(f"t{i}" for i in range(8))
WORKLOAD_KWARGS: dict[str, dict[str, Any]] = {
    "heat": {"shape": (96, 48, 48), "steps": 1},
    "compute": {"shape": (16, 8, 8), "steps": 2, "kernel_iteration": 8192},
}
PATTERN = TrafficPattern(mean_gap=2e-5, burst_size=2)

#: Solo-differential coverage under ``--quick``: every priority-tenant
#: job plus this many best-effort jobs (full mode checks all of them).
QUICK_SOLO_BEST_EFFORT = 2


def arrivals():
    gen = LoadGenerator(
        SEED, TENANTS, workloads=tuple(WORKLOAD_KWARGS),
        pattern=PATTERN, workload_kwargs=WORKLOAD_KWARGS,
    )
    return gen.arrivals(N_JOBS)


def _service(scheduler: str) -> Service:
    svc = Service(total_slots=TOTAL_SLOTS, scheduler=scheduler)
    svc.add_tenant(PRIORITY_TENANT, 2.0, priority=True)
    for t in TENANTS[1:]:
        svc.add_tenant(t, 1.0)
    return svc


def _submit_all(svc: Service, arr, *, only_tenant: str | None = None):
    """Submit arrivals; returns ``{job_id: arrival}`` in submission order."""
    jobs = {}
    for a in arr:
        if only_tenant is not None and a.tenant != only_tenant:
            continue
        jid = svc.submit(a.tenant, workload=a.workload, at=a.t,
                         workload_kwargs=dict(a.kwargs, seed=a.seed))
        jobs[jid] = a
    return jobs


def _run_leg(scheduler: str, arr, *, only_tenant: str | None = None):
    svc = _service(scheduler)
    jobs = _submit_all(svc, arr, only_tenant=only_tenant)
    report = svc.run()
    session = svc.session.to_bytes()
    svc.close()
    return report, jobs, session


def _p95(latencies) -> float:
    return float(np.percentile(latencies, 95))


def differential_check(report, jobs, leg: str, *, quick: bool) -> tuple[list[str], int]:
    """Every selected job must be byte-identical to its solo run."""
    failures: list[str] = []
    selected = []
    be_taken = 0
    for jid, a in jobs.items():
        if quick and a.tenant != PRIORITY_TENANT:
            if be_taken >= QUICK_SOLO_BEST_EFFORT:
                continue
            be_taken += 1
        selected.append((jid, a))
    for jid, a in selected:
        solo = run_solo(a.tenant, workload=a.workload,
                        workload_kwargs=dict(a.kwargs, seed=a.seed),
                        total_slots=TOTAL_SLOTS)
        if report.jobs[jid].digests != solo.digests:
            failures.append(f"{leg}/{jid}: digests diverge from solo run")
    return failures, len(selected)


def measure_dedup() -> dict[str, Any]:
    """Two coeff-heat jobs sharing one read-only coefficient table."""
    svc = Service(total_slots=32)
    svc.add_tenant("a")
    svc.add_tenant("b")
    kw = {"shape": (32, 16, 16), "steps": 2, "seed": 0}
    # the borrower arrives a beat later: datasets register after the
    # donor's first quantum, so a simultaneous arrival would plan its own
    # transfers before the donor's table is published
    for tenant, at in (("a", 0.0), ("b", 2e-4)):
        svc.submit(tenant, workload="coeff-heat", workload_kwargs=kw,
                   at=at, n_regions=8)
    report = svc.run()
    counters = svc.runtime.metrics.snapshot()["counters"]
    shared = sorted(
        f for r in report.jobs.values() for f in r.shared_fields
    )
    digests = [r.digests for r in report.jobs.values()]
    svc.close()
    return {
        "hits": float(counters.get("service.dedup_hits", 0)),
        "bytes_avoided": float(counters.get("service.dedup_bytes_avoided", 0)),
        "shared_fields": shared,
        "byte_identical": digests[0] == digests[1],
        "racy": report.racy_hazards,
    }


def run(out_dir: Path, *, quick: bool = False) -> GateResult:
    arr = arrivals()

    solo_rep, _solo_jobs, _ = _run_leg("fair", arr, only_tenant=PRIORITY_TENANT)
    fair_rep, fair_jobs, fair_session = _run_leg("fair", arr)
    serial_rep, serial_jobs, _ = _run_leg("serial", arr)

    failures: list[str] = []
    for leg, rep in (("uncontended", solo_rep), ("contention", fair_rep),
                     ("serialized", serial_rep)):
        if rep.racy_hazards:
            failures.append(f"{leg}: {rep.racy_hazards} racy hazards")

    # the serialized leg runs the same jobs, so it must agree bit-for-bit
    # with the contention leg before either is compared to solo runs
    serial_by_arrival = {id(a): jid for jid, a in serial_jobs.items()}
    for jid, a in fair_jobs.items():
        sjid = serial_by_arrival[id(a)]
        if fair_rep.jobs[jid].digests != serial_rep.jobs[sjid].digests:
            failures.append(f"{jid}: contention and serialized digests diverge")

    diff_failures, n_checked = differential_check(
        fair_rep, fair_jobs, "contention", quick=quick)
    failures.extend(diff_failures)

    # same seed, same arrivals => byte-identical session log
    rerun_rep, _rerun_jobs, rerun_session = _run_leg("fair", arr)
    if rerun_session != fair_session:
        failures.append("determinism: same-seed session logs differ")
    if rerun_rep.racy_hazards:
        failures.append(f"determinism: {rerun_rep.racy_hazards} racy hazards")

    dedup = measure_dedup()
    if not dedup["byte_identical"]:
        failures.append("dedup: borrower diverged from donor's results")
    if dedup["racy"]:
        failures.append(f"dedup: {dedup['racy']} racy hazards")

    if failures:
        return GateResult(failures=failures)

    speedup = fair_rep.utilization / serial_rep.utilization
    p95_un = _p95(solo_rep.latencies(PRIORITY_TENANT))
    p95_con = _p95(fair_rep.latencies(PRIORITY_TENANT))
    slowdown = p95_con / p95_un

    print(f"conformance: {n_checked}/{len(fair_jobs)} jobs byte-identical to "
          f"solo runs, serialized leg bit-equal, zero racy hazards, "
          f"same-seed session byte-identical")
    print(f"utilization: contention {fair_rep.utilization:.3f} vs serialized "
          f"{serial_rep.utilization:.3f}  (speedup {speedup:.3f}x, floor "
          f"{SPEEDUP_FLOOR}x)")
    print(f"priority p95: contended {p95_con*1e3:.3f} ms vs uncontended "
          f"{p95_un*1e3:.3f} ms  (slowdown {slowdown:.3f}x, ceiling "
          f"{P95_SLOWDOWN_CEILING}x)")
    print(f"latency: overall p50 {np.percentile(fair_rep.latencies(), 50)*1e3:.3f} ms  "
          f"p95 {_p95(fair_rep.latencies())*1e3:.3f} ms over {len(fair_jobs)} jobs")
    print(f"dedup: {dedup['hits']:.0f} hits, {dedup['bytes_avoided']:.0f} bytes "
          f"avoided (shared: {', '.join(dedup['shared_fields']) or '-'})")

    gated = {
        "bench.service.utilization_speedup": speedup,
        "bench.service.aggregate_utilization": fair_rep.utilization,
        "bench.service.dedup_bytes_avoided": dedup["bytes_avoided"],
        "bench.service.priority_p95_slowdown": slowdown,
    }

    raw = {
        "config": {
            "seed": SEED, "n_jobs": N_JOBS, "total_slots": TOTAL_SLOTS,
            "tenants": list(TENANTS), "priority_tenant": PRIORITY_TENANT,
            "workload_kwargs": WORKLOAD_KWARGS,
            "pattern": {"mean_gap": PATTERN.mean_gap,
                        "burst_size": PATTERN.burst_size},
        },
        "utilization": {"contention": fair_rep.utilization,
                        "serialized": serial_rep.utilization,
                        "uncontended": solo_rep.utilization,
                        "speedup": speedup},
        "latency_ms": {
            "priority_p95_uncontended": p95_un * 1e3,
            "priority_p95_contended": p95_con * 1e3,
            "priority_slowdown": slowdown,
            "overall_p50": float(np.percentile(fair_rep.latencies(), 50)) * 1e3,
            "overall_p95": _p95(fair_rep.latencies()) * 1e3,
        },
        "solo_differential": {"checked": n_checked, "total": len(fair_jobs),
                              "quick": quick},
        "dedup": dedup,
        "tenants": {t: {k: v for k, v in info.items() if k != "latencies"}
                    for t, info in fair_rep.tenants.items()},
    }

    floor_misses = []
    if speedup < SPEEDUP_FLOOR:
        floor_misses.append(
            f"utilization speedup {speedup:.3f} < {SPEEDUP_FLOOR}")
    if slowdown > P95_SLOWDOWN_CEILING:
        floor_misses.append(
            f"priority p95 slowdown {slowdown:.3f} > {P95_SLOWDOWN_CEILING}")
    if dedup["bytes_avoided"] <= 0:
        floor_misses.append("dedup bytes_avoided not strictly positive")
    return GateResult(metrics={"counters": gated}, raw={"service": raw},
                      misses=floor_misses)
