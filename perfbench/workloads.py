"""The benchmark's three workloads, their correctness checks and metrics.

Every workload is measured in *rounds*: a fixed, seeded unit of work on
a fresh runtime.  A round's virtual-time results, operation counts and
output digests depend only on the seed, so the first round of each kind
is recorded and every later repetition must reproduce it exactly; host
time is measured over as many rounds as fit in the time budget.

* ``heat-ghost`` and ``compute-evict`` are timing-mode solvers driven
  through the public ``TidaAcc`` loop (``fill_boundary``/``iterator``/
  ``compute``/``swap``/``synchronize``).  A round is construction, one
  warm-up step (both counted as set-up) and ``steps`` timed steps.  The
  seed jitters the simulated machine's rates by a few percent, so virtual
  metrics vary between seeds while the host work stays the same.
* ``service-backlog`` is a functional-mode :class:`~repro.service.Service`
  fed seeded open-loop traffic.  A round is one session: construction and
  every ``submit`` (set-up), then ``run``.  Sessions cycle through
  ``SESSIONS`` sub-seeds, and the virtual metrics pool all of them.

Host times are normalised by the reference routine in :mod:`refwork`,
probed after every timed unit (see :class:`HostSpeed`).
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable

import numpy as np

from refwork import NOMINAL_SECONDS, reference_work
from repro import Neumann, TidaAcc, heat_kernel
from repro.baselines.common import reference_compute_intensive, reference_heat
from repro.check.explore import perturb_machine
from repro.config import DEFAULT_MACHINE
from repro.kernels.compute_intensive import (
    DEFAULT_KERNEL_ITERATION,
    compute_intensive_kernel,
)
from repro.obs.slo import SloPolicy
from repro.service import Arrival, LoadGenerator, Service, TrafficPattern, run_solo

#: Relative jitter the seed applies to every simulated machine rate.
MACHINE_JITTER = 0.02
COPY_LANES = ("h2d", "d2h")
#: Steps of each solver's functional twin (see :func:`solver_twin_ok`).
TWIN_STEPS = 2


class HostSpeed:
    """Recent duration of the reference routine, for normalising host time.

    ``scale()`` converts a raw host duration measured now into seconds at
    the calibration host's speed from the median of the last ``window``
    probes.  The host's speed changes within a second or two, so where a
    probe follows every unit, two probes, which bracket the unit just
    timed, track it best; a longer window lags the changes and widens the
    tail of the normalised times.  Where probes are sparser than units, a
    longer window smooths the probes' own noise.
    """

    def __init__(self, window: int = 2) -> None:
        self._recent: deque[float] = deque(maxlen=window)
        self.samples: list[float] = []
        for _ in range(3):
            self.probe()

    def probe(self) -> float:
        t0 = perf_counter()
        reference_work()
        dt = perf_counter() - t0
        self._recent.append(dt)
        self.samples.append(dt)
        return dt

    def scale(self) -> float:
        return NOMINAL_SECONDS / statistics.median(self._recent)


@dataclass
class Measurement:
    """Host timings and correctness tallies of one timed pass.

    Rates and unit percentiles are taken per round and reported as the
    median over rounds, so a slow spell of the host spoils a few rounds
    instead of shifting the whole figure.
    """

    setup_s: list[float] = field(default_factory=list)   # normalised, per round
    unit_s: list[float] = field(default_factory=list)    # normalised, per step/job
    raw_unit_s: list[float] = field(default_factory=list)
    round_p50: list[float] = field(default_factory=list)
    round_p90: list[float] = field(default_factory=list)
    ops_rate: list[float] = field(default_factory=list)  # device ops / timed s
    jobs_rate: list[float] = field(default_factory=list)
    raw_jobs_rate: list[float] = field(default_factory=list)
    raw_s: float = 0.0           # raw host seconds of every round
    jobs: int = 0
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    records: list[dict[str, Any]] = field(default_factory=list)
    speed: HostSpeed | None = None
    kept: Any = None             # first round's runtime, when asked to keep it

    def add_unit(self, raw: float, scale: float) -> None:
        self.raw_unit_s.append(raw)
        self.unit_s.append(raw * scale)

    def close_round(self, first_unit: int, *, ops: int, jobs: int,
                    extra_s: float = 0.0, raw_extra_s: float = 0.0) -> None:
        """Summarise the units since ``first_unit``; a job's time also
        counts ``extra_s`` (normalised) and ``raw_extra_s`` (raw)."""
        units = self.unit_s[first_unit:]
        raw = sum(self.raw_unit_s[first_unit:]) + raw_extra_s
        timed = sum(units)
        self.round_p50.append(statistics.median(units))
        self.round_p90.append(percentile(units, 0.90))
        self.ops_rate.append(ops / timed)
        self.jobs_rate.append(jobs / (timed + extra_s))
        self.raw_jobs_rate.append(jobs / raw)
        self.raw_s += raw
        self.jobs += jobs
        self.rounds += 1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for ev in trace:
        h.update(repr((ev.name, ev.category, ev.lane, ev.start, ev.end,
                       ev.stream, ev.nbytes)).encode())
    return h.hexdigest()


def _engines(runtime) -> dict[str, Any]:
    return {"compute": runtime.compute_engine, "h2d": runtime.h2d_engine,
            "d2h": runtime.d2h_engine}


def _device_done(lib: TidaAcc) -> float:
    """Virtual time at which all work issued so far completes."""
    return max(lib.now, *(e.tail for e in _engines(lib.runtime).values()))


def _device_ops(metrics) -> int:
    return int(sum(metrics.value(f"cuda.{k}") for k in
                   ("kernel_launches", "h2d_copies", "d2h_copies")))


def runtime_record(runtime, makespan: float) -> dict[str, Any]:
    """Deterministic virtual-time facts about one round's runtime."""
    engines = _engines(runtime)
    distinct = list({id(e): e for e in engines.values()}.values())
    busy = sum(e.busy_time for e in distinct)
    return {
        "virtual_makespan_s": makespan,
        "overlap_frac": runtime.trace.overlap_fraction(COPY_LANES, ("compute",)),
        "utilization": busy / (len(distinct) * makespan),
        "busy_s": {k: e.busy_time for k, e in engines.items()},
        "device_ops": sum(e.op_count for e in distinct),
        "trace_events": len(runtime.trace),
        "counters": runtime.metrics.snapshot()["counters"],
    }


# -- solvers ----------------------------------------------------------------


@dataclass(frozen=True)
class Solver:
    name: str
    shape: tuple[int, ...]
    n_regions: int
    halo: int
    fields: tuple[str, ...]          # iterator order, the written field first
    out: str                         # the result after a step, read by the next
    kernel: Callable[[], Any]
    params: dict[str, Any]
    resident: int | None             # regions per field that fit on the device
    check: str | None
    steps: int                       # timed steps per round
    twin_shape: tuple[int, ...]
    reference: Callable[[np.ndarray, int], np.ndarray]

    def build(self, machine, *, mode: str = "timing", check: str | None = None,
              shape: tuple[int, ...] | None = None) -> TidaAcc:
        shape = shape or self.shape
        limit = None
        if self.resident is not None:
            region_bytes = 8 * math.prod(shape) // self.n_regions
            limit = self.resident * region_bytes * len(self.fields) + 4096
        lib = TidaAcc(machine, mode=mode, check=check, device_memory_limit=limit)
        for name in self.fields:
            lib.add_array(name, shape, n_regions=self.n_regions, halo=self.halo)
        return lib

    def step(self, lib: TidaAcc, kernel) -> None:
        if self.halo:
            lib.fill_boundary(self.out, Neumann())
        it = lib.iterator(*self.fields).reset(gpu=True)
        while it.is_valid():
            lib.compute(it, kernel, params=self.params)
            it.next()
        if len(self.fields) == 2:
            lib.swap(self.fields[1], self.fields[0])

    def finish(self, lib: TidaAcc) -> None:
        for name in self.fields:
            lib.manager(name).flush_to_host()
        lib.synchronize()


def _reference_heat(init: np.ndarray, steps: int) -> np.ndarray:
    ghosted = np.zeros(tuple(n + 2 for n in init.shape))
    ghosted[(slice(1, -1),) * init.ndim] = init
    return reference_heat(ghosted, steps)


def _reference_compute(init: np.ndarray, steps: int) -> np.ndarray:
    return reference_compute_intensive(
        init, steps, kernel_iteration=DEFAULT_KERNEL_ITERATION)


HEAT_GHOST = Solver(
    name="heat-ghost", shape=(256, 128, 128), n_regions=32, halo=1,
    fields=("u_new", "u_old"), out="u_old", kernel=lambda: heat_kernel(3),
    params={"coef": 0.1}, resident=None, check=None, steps=48,
    twin_shape=(128, 32, 32), reference=_reference_heat,
)
COMPUTE_EVICT = Solver(
    name="compute-evict", shape=(256, 128, 128), n_regions=32, halo=0,
    fields=("data",), out="data",
    kernel=lambda: compute_intensive_kernel(DEFAULT_KERNEL_ITERATION),
    params={"kernel_iteration": DEFAULT_KERNEL_ITERATION}, resident=11,
    check="strict", steps=100, twin_shape=(128, 16, 16),
    reference=_reference_compute,
)


SOLVERS = {s.name: s for s in (HEAT_GHOST, COMPUTE_EVICT)}
WORKLOADS = (*SOLVERS, "service-backlog")


def default_check(workload: str) -> str | None:
    return "strict" if workload == "service-backlog" else SOLVERS[workload].check


def solver_machine(seed: int):
    return perturb_machine(DEFAULT_MACHINE, seed, jitter=MACHINE_JITTER)


def solver_round_record(lib: TidaAcc, step_latency: list[float]) -> dict[str, Any]:
    rec = runtime_record(lib.runtime, lib.now)
    rec["unit_latency_s"] = step_latency
    rec["priority_latency_s"] = step_latency
    rec["trace_digest"] = trace_digest(lib.trace)
    rec["racy"] = len(lib.checker.racy()) if lib.checker is not None else 0
    return rec


def run_solver(spec: Solver, seed: int, seconds: float, *, check: str | None,
               keep: bool = False) -> Measurement:
    machine = solver_machine(seed)
    speed = HostSpeed()
    m = Measurement(speed=speed)
    deadline = perf_counter() + seconds
    while not m.rounds or perf_counter() < deadline:
        gc.collect()
        speed.probe()
        t0 = perf_counter()
        kernel = spec.kernel()
        lib = spec.build(machine, check=check)
        spec.step(lib, kernel)
        setup = perf_counter() - t0
        speed.probe()
        m.setup_s.append(setup * speed.scale())
        first_unit = len(m.unit_s)
        ops0 = _device_ops(lib.metrics)
        step_latency = [_device_done(lib)]
        gc.collect()
        for _ in range(spec.steps):
            t0 = perf_counter()
            spec.step(lib, kernel)
            dt = perf_counter() - t0
            step_latency.append(_device_done(lib))
            speed.probe()
            m.add_unit(dt, speed.scale())
        m.close_round(first_unit, ops=_device_ops(lib.metrics) - ops0, jobs=1,
                      extra_s=m.setup_s[-1], raw_extra_s=setup)
        spec.finish(lib)
        rec = solver_round_record(
            lib, [b - a for a, b in zip(step_latency, step_latency[1:])])
        m.attempted += spec.steps
        if rec["racy"] or (m.records and rec != m.records[0]):
            m.failed += spec.steps
        if not m.records:
            m.records.append(rec)
            if keep:
                m.kept = lib
    return m


def solver_twin_ok(spec: Solver, seed: int) -> bool:
    """Functional twin: same schedule as timing mode, reference numerics.

    Runs ``TWIN_STEPS`` steps on ``twin_shape`` with the same region count
    and residency in functional and in timing mode.  Both runs must record
    the same trace, counters and virtual times, with no racy hazard, and
    the functional result must equal the pure-numpy reference bit for bit.
    """
    machine = solver_machine(seed)
    init = np.random.default_rng(seed).random(spec.twin_shape)
    records = {}
    result = None
    for mode in ("functional", "timing"):
        lib = spec.build(machine, mode=mode, check="strict", shape=spec.twin_shape)
        if mode == "functional":
            for name in spec.fields:
                lib.field(name).from_global(init)
        kernel = spec.kernel()
        done = [_device_done(lib)]
        for _ in range(TWIN_STEPS):
            spec.step(lib, kernel)
            done.append(_device_done(lib))
        latency = [b - a for a, b in zip(done, done[1:])]
        spec.finish(lib)
        if mode == "functional":
            result = lib.field(spec.out).to_global()
        records[mode] = solver_round_record(lib, latency)
    return (records["functional"] == records["timing"]
            and records["timing"]["racy"] == 0
            and np.array_equal(result, spec.reference(init, TWIN_STEPS)))


# -- service ----------------------------------------------------------------

PRIORITY_TENANT = "p0"
BEST_EFFORT_TENANTS = tuple(f"b{i}" for i in range(1, 8))
JOB_SHAPE = (16, 8, 8)
SERVICE_JOBS: dict[str, dict[str, Any]] = {
    "heat": {"shape": JOB_SHAPE, "steps": 2},
    "compute": {"shape": JOB_SHAPE, "steps": 2, "kernel_iteration": 64},
    "coeff-heat": {"shape": JOB_SHAPE, "steps": 2},
}
#: Best-effort bursts arrive about twice as fast as the device drains
#: them, so the backlog grows to hundreds of jobs.
BEST_EFFORT_JOBS = 224
BEST_EFFORT_PATTERN = TrafficPattern(mean_gap=4e-5, burst_size=2)
#: The priority tenant submits one heat job per period, at a seeded point
#: inside it: an interactive client whose latency the QoS layer protects.
PRIORITY_JOBS = 64
PRIORITY_PERIOD = 3e-4
PRIORITY_SLO = SloPolicy(PRIORITY_TENANT, target=5e-4)
#: Distinct sub-seeded sessions the virtual metrics pool.
SESSIONS = 4
#: Probe the reference routine after every this many finished jobs, and
#: normalise by the median of this many recent probes.
REF_EVERY = 4
REF_WINDOW = 9
#: Set-up is short next to a session's run, so each session sets up this
#: many services and runs the last, for more set-up samples per run.
SETUP_REPEATS = 3


def service_arrivals(seed: int, session: int) -> list[Arrival]:
    """One session's arrivals.  The seed draws the best-effort burst times
    and tenants, the priority offsets and every job's initial data; job
    types rotate in arrival order, so every session has the same mix."""
    seq = np.random.SeedSequence([seed, session])
    gen_seed = int(seq.generate_state(1)[0])
    kinds = tuple(SERVICE_JOBS)
    best_effort = [
        replace(a, workload=kinds[i % len(kinds)],
                kwargs=tuple(sorted(SERVICE_JOBS[kinds[i % len(kinds)]].items())))
        for i, a in enumerate(LoadGenerator(
            gen_seed, BEST_EFFORT_TENANTS, pattern=BEST_EFFORT_PATTERN,
        ).arrivals(BEST_EFFORT_JOBS))
    ]
    rng = np.random.default_rng(seq.spawn(1)[0])
    heat = tuple(sorted(SERVICE_JOBS["heat"].items()))
    priority = [
        Arrival(t=(i + float(rng.uniform(0.1, 0.9))) * PRIORITY_PERIOD,
                tenant=PRIORITY_TENANT, workload="heat",
                seed=int(rng.integers(2**31)), kwargs=heat)
        for i in range(PRIORITY_JOBS)
    ]
    return sorted([*best_effort, *priority], key=lambda a: (a.t, a.tenant))


def open_service(arrivals: list[Arrival], check: str | None) -> tuple[Service, list[str]]:
    svc = Service(check=check, slo=[PRIORITY_SLO])
    svc.add_tenant(PRIORITY_TENANT, 2.0, priority=True)
    for tenant in BEST_EFFORT_TENANTS:
        svc.add_tenant(tenant, 1.0)
    ids = [
        svc.submit(a.tenant, workload=a.workload, at=a.t,
                   workload_kwargs=dict(a.kwargs, seed=a.seed))
        for a in arrivals
    ]
    return svc, ids


def session_record(svc: Service, report, backlog_max: int) -> dict[str, Any]:
    rec = runtime_record(svc.runtime, report.makespan)
    rec["utilization"] = report.utilization
    jobs = sorted(report.jobs.items())
    rec["unit_latency_s"] = [r.latency for _, r in jobs]
    rec["priority_latency_s"] = [r.latency for _, r in jobs
                                 if r.tenant == PRIORITY_TENANT]
    rec["digests"] = {jid: r.digests for jid, r in jobs}
    rec["racy"] = report.racy_hazards
    rec["session_digest"] = hashlib.sha256(report.session.to_bytes()).hexdigest()
    rec["slo_records"] = len(svc.slo.to_text().splitlines())
    rec["backlog_max"] = backlog_max
    rec["quanta"] = sum(r.timeline["quanta"] for _, r in jobs)
    rec["defers"] = sum(1 for _, r in jobs if set(r.timeline["wait"]) - {"queued"})
    rec["degraded"] = sum(1 for _, r in jobs if r.degraded)
    rec["shed_slots"] = sum(r.shed for _, r in jobs)
    return rec


def solo_digests(arrivals: list[Arrival], ids: list[str]) -> dict[str, Any]:
    """Each job's output digests when it runs alone on a fresh service."""
    return {
        jid: run_solo(a.tenant, workload=a.workload,
                      workload_kwargs=dict(a.kwargs, seed=a.seed)).digests
        for jid, a in zip(ids, arrivals)
    }


def run_service(seed: int, seconds: float, *, check: str | None,
                min_rounds: int = SESSIONS, keep: bool = False,
                verify: bool = True, setup_repeats: int = SETUP_REPEATS,
                ) -> Measurement:
    arrivals = [service_arrivals(seed, k) for k in range(SESSIONS)]
    speed = HostSpeed(window=REF_WINDOW)
    m = Measurement(speed=speed)
    expected: dict[int, dict[str, Any]] = {}   # session -> job id -> digests
    first: dict[int, dict[str, Any]] = {}      # session -> recorded record
    deadline = perf_counter() + seconds
    while m.rounds < min_rounds or perf_counter() < deadline:
        k = m.rounds % SESSIONS
        arr = arrivals[k]
        times = [a.t for a in arr]
        for rep in range(setup_repeats):
            if rep:
                svc.close()
            gc.collect()
            speed.probe()
            t0 = perf_counter()
            svc, ids = open_service(arr, check)
            setup = perf_counter() - t0
            speed.probe()
            m.setup_s.append(setup * speed.scale())
        done = 0
        backlog_max = 0
        first_unit = len(m.unit_s)
        gc.collect()
        last = perf_counter()

        def on_finish(result, service) -> None:
            nonlocal done, backlog_max, last
            m.add_unit(perf_counter() - last, speed.scale())
            done += 1
            backlog_max = max(backlog_max, bisect_right(times, service.now) - done)
            if done % REF_EVERY == 0:
                speed.probe()
            last = perf_counter()

        svc.on_finish = on_finish
        ops0 = _device_ops(svc.metrics)
        report = svc.run()
        m.close_round(first_unit, ops=_device_ops(svc.metrics) - ops0,
                      jobs=len(report.jobs))
        rec = session_record(svc, report, backlog_max)
        svc.close()
        if k not in expected:
            t0 = perf_counter()
            expected[k] = (solo_digests(arr, ids) if verify
                           else rec["digests"])
            deadline += perf_counter() - t0   # checking is not measuring
            first[k] = rec
            m.records.append(rec)
            if keep and m.kept is None:
                m.kept = svc
        same = rec == first[k]
        for jid in ids:
            m.attempted += 1
            got = rec["digests"].get(jid)
            if rec["racy"] or not same or got is None or got != expected[k][jid]:
                m.failed += 1
    return m


# -- metrics ----------------------------------------------------------------

#: Every end-to-end metric, in BENCHMARK.json order: name -> unit.
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "sim_ops_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "jobs_per_s": "1/s",
    "virtual_makespan_s": "s",
    "overlap_frac": "ratio",
    "utilization": "ratio",
    "job_latency_ms_p50": "ms",
    "job_latency_ms_p99": "ms",
    "priority_latency_ms_p90": "ms",
    "peak_mem_mb": "MB",
    "ok_frac": "ratio",
}


def run(workload: str, seed: int, seconds: float) -> Measurement:
    """The untraced pass that yields the end-to-end metrics."""
    check = default_check(workload)
    if workload == "service-backlog":
        return run_service(seed, seconds, check=check)
    return run_solver(SOLVERS[workload], seed, seconds, check=check)



def peak_mem_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: Measurement, mem_mb: float) -> dict[str, float]:
    """Every end-to-end metric, from one untraced pass."""
    latency = [v for r in m.records for v in r["unit_latency_s"]]
    priority = [v for r in m.records for v in r["priority_latency_s"]]
    n = len(m.records)
    return {
        "setup_s": statistics.median(m.setup_s),
        "sim_ops_per_s": statistics.median(m.ops_rate),
        "step_ms_p50": statistics.median(m.round_p50) * 1e3,
        "step_ms_p90": statistics.median(m.round_p90) * 1e3,
        "jobs_per_s": statistics.median(m.jobs_rate),
        "virtual_makespan_s": sum(r["virtual_makespan_s"] for r in m.records) / n,
        "overlap_frac": sum(r["overlap_frac"] for r in m.records) / n,
        "utilization": sum(r["utilization"] for r in m.records) / n,
        "job_latency_ms_p50": statistics.median(latency) * 1e3,
        "job_latency_ms_p99": percentile(latency, 0.99) * 1e3,
        "priority_latency_ms_p90": percentile(priority, 0.90) * 1e3,
        "peak_mem_mb": mem_mb,
        "ok_frac": (m.attempted - m.failed) / m.attempted,
    }
