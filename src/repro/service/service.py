"""The multi-tenant GPU service: one device, one clock, many jobs.

Tenants submit declarative :class:`~repro.plan.Program`\\ s (or named
workloads); the service plans each job, gates it through
:class:`~repro.service.admission.AdmissionController`, and runs every
admitted job as a *cooperative generator*
(:func:`~repro.plan.executor.program_stepper`) on one shared
:class:`~repro.cuda.runtime.CudaRuntime`.  Scheduling is deterministic
weighted fair queueing (:class:`~repro.sim.engine.WeightedFairQueue`):
each quantum — one region's compute, one reduction, one halo fill — is
charged to its tenant at ``device busy-time / weight``, and the runnable
tenant furthest behind its fair share goes next.  Priority tenants
preempt best-effort tenants at every quantum boundary and may trigger
slot shedding (:meth:`~repro.core.tile_acc.TileAcc.shed_slots`) on
best-effort jobs when they need device memory.

Isolation is structural: every job gets a private
:class:`~repro.core.library.TidaAcc` with private fields, so interleaved
schedules never share a mutable device buffer.  The one deliberate
exception is cross-job *read-only* dedup: coefficient tables proven
``access="ro"`` by the planner and byte-identical across jobs (keyed by
content digest + geometry) are attached into later jobs instead of
re-allocated and re-uploaded — concurrent readers cannot conflict, so
byte-identity and hazard-freedom survive the sharing.

The asyncio flavor of the API is *virtual-clock-driven*: there is no
wall-clock event loop, because the simulator's
:class:`~repro.sim.engine.HostClock` already provides the single timeline
every engine, stream, and telemetry sample lives on.  ``submit(at=...)``
schedules future arrivals; ``run()`` is the deterministic event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

import numpy as np

from ..baselines.workloads import build_workload
from ..config import MachineSpec
from ..core.library import TidaAcc
from ..core.slots import SlotPartitioner
from ..cuda.runtime import CudaRuntime
from ..errors import PlanError, ServiceError
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs.slo import LATENCY_BUCKETS, JobSli, SloPolicy, SloTracker
from ..openacc.runtime import AccRuntime
from ..plan.executor import program_stepper
from ..plan.planner import plan_program
from ..sim.engine import WeightedFairQueue
from .admission import (
    ADMIT,
    DEFER,
    DEGRADE,
    REJECT,
    AdmissionController,
    plan_footprint_bytes,
    plan_slot_bytes,
    plan_total_slots,
)
from .session import ServiceSession

#: Default total device-slot budget the partitioner apportions.
DEFAULT_TOTAL_SLOTS = 32

#: Job lifecycle states.
QUEUED, RUNNING, DONE = "queued", "running", "done"


@dataclass
class Tenant:
    name: str
    weight: float = 1.0
    priority: bool = False


@dataclass
class JobResult:
    """Externally visible outcome of one finished job."""

    job: str
    tenant: str
    workload: str | None
    arrival: float                 # virtual submission time
    admitted: float
    finished: float
    latency: float                 # finished - arrival (queueing included)
    elapsed: float                 # the program's own active span
    iterations: int
    degraded: bool
    shed: int                      # slots this job gave up to priority tenants
    shared_fields: tuple[str, ...]
    digests: dict[str, str] | None  # per-field content digests (functional)
    env: dict[str, float]
    n_regions: int
    n_slots: int | None
    #: Virtual-clock lifecycle stamps: submitted/admitted/started/
    #: last_quantum_end/drained, own_seconds (clock time inside the job's
    #: own quanta), quanta (count), and wait (reason -> seconds tiling
    #: submit->admit).  The input of the contention blame profiler
    #: (:func:`repro.obs.critpath.blame_decomposition`).
    timeline: dict[str, Any] | None = None


@dataclass
class ServiceReport:
    """Aggregate outcome of one :meth:`Service.run` drain."""

    jobs: dict[str, JobResult]
    makespan: float                # first admission -> last finish
    busy_seconds: float            # summed over distinct engines
    n_engines: int
    utilization: float             # busy / (n_engines * makespan)
    racy_hazards: int
    session: ServiceSession
    tenants: dict[str, dict[str, Any]]

    def latencies(self, tenant: str | None = None) -> list[float]:
        return [
            r.latency for r in self.jobs.values()
            if tenant is None or r.tenant == tenant
        ]


class _Job:
    """Internal job record."""

    __slots__ = (
        "id", "tenant", "prog", "inputs", "env", "workload", "arrival",
        "seq", "state", "plan", "lib", "stepper", "plan_kwargs", "order",
        "order_seed", "tile_shape", "admit_t", "finish_t", "slots_held",
        "degraded", "shed", "shared_fields", "registered", "footprint",
        "result", "start_t", "last_q_end", "own_seconds", "n_quanta",
        "wait_mark", "wait_reason", "wait",
    )

    def __init__(self, **kw: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, kw.get(name))


class Service:
    """A virtual-clock multi-tenant job service over one simulated GPU."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        *,
        functional: bool = True,
        mode: str | None = None,
        device_memory_limit: int | None = None,
        check: str | bool | None = "strict",
        telemetry=None,
        watchdog: bool = True,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        headroom_bytes: int = 0,
        admission_policy: str = "degrade",
        total_slots: int = DEFAULT_TOTAL_SLOTS,
        scheduler: str = "fair",
        max_engine_lag: float | None = None,
        dedup: bool = True,
        per_tenant_concurrency: int | None = 1,
        session_meta: dict[str, Any] | None = None,
        slo: list[SloPolicy] | dict[str, Any] | None = None,
        backpressure: bool = False,
    ) -> None:
        if scheduler not in ("fair", "serial"):
            raise ServiceError(
                f"unknown scheduler {scheduler!r}; have 'fair', 'serial'",
                reason="bad-scheduler",
            )
        self.runtime = CudaRuntime(
            machine, functional=functional, mode=mode,
            device_memory_limit=device_memory_limit, check=check,
            telemetry=telemetry,
        )
        if faults is not None:
            self.runtime.set_fault_plan(faults)
        self.acc = AccRuntime(self.runtime)
        self.clock = self.runtime.clock
        self.retry = retry
        self.scheduler = scheduler
        self.max_engine_lag = max_engine_lag
        self.dedup = bool(dedup)
        # one running job per tenant by default: a tenant's jobs share its
        # slot quota, so concurrent siblings would split it into thrashing
        # single-slot pools; queueing them behind each other keeps every
        # admitted pool at full quota (None = unlimited)
        self.per_tenant_concurrency = per_tenant_concurrency
        self.admission = AdmissionController(
            self.runtime, headroom_bytes=headroom_bytes, policy=admission_policy,
        )
        self.partitioner = SlotPartitioner(total_slots)
        self.wfq = WeightedFairQueue()
        self.session = ServiceSession(meta=dict(
            scheduler=scheduler, policy=admission_policy,
            total_slots=total_slots, **(session_meta or {}),
        ))
        # SLO tracking is pure observation (it never touches the clock or
        # the schedule), so a monitored run stays byte-identical to an
        # unmonitored one; backpressure is the opt-in that changes admission
        self.slo: SloTracker | None = (
            SloTracker(slo, metrics=self.runtime.metrics)
            if slo is not None else None
        )
        if backpressure:
            if self.slo is None:
                raise ServiceError(
                    "backpressure=True needs slo= policies to protect",
                    reason="bad-slo",
                )
            self.admission.set_backpressure_hook(self._slo_backpressured)
        if telemetry is not None and watchdog:
            from ..obs.live.watchdog import Watchdog, default_detectors
            telemetry.add_subscriber(
                Watchdog(default_detectors(
                    metrics=self.runtime.metrics, slo=self.slo,
                ))
            )
        self.on_finish: Callable[[JobResult, "Service"], None] | None = None
        self.tenants: dict[str, Tenant] = {}
        self._queued: list[_Job] = []
        self._running: list[_Job] = []
        self._draining: list[tuple[_Job, float]] = []
        self._results: dict[str, JobResult] = {}
        self._jobs_ever = 0
        self._admit_seq = 0
        self._busy_accum = 0.0     # busy time folded in before serial resets
        self._t_first_admit: float | None = None
        self._t_last_finish = 0.0
        # cross-job read-only dedup: content+geometry key -> dataset record
        self._datasets: dict[tuple, dict[str, Any]] = {}
        # distinct engines (d2h may alias h2d on single-copy-engine parts)
        self._engines = list({id(e): e for e in (
            self.runtime.compute_engine,
            self.runtime.h2d_engine,
            self.runtime.d2h_engine,
        )}.values())

    # -- tenancy ------------------------------------------------------------

    def add_tenant(self, name: str, weight: float = 1.0, *,
                   priority: bool = False) -> Tenant:
        tenant = Tenant(name, float(weight), bool(priority))
        self.tenants[name] = tenant
        self.partitioner.add_tenant(name, weight, priority=priority)
        self.wfq.register(name, weight, priority=priority)
        self.session.emit("tenant", self.now, tenant=name, weight=weight,
                          priority=priority)
        return tenant

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def metrics(self):
        return self.runtime.metrics

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        tenant: str,
        program=None,
        *,
        workload: str | None = None,
        workload_kwargs: dict[str, Any] | None = None,
        inputs: dict[str, np.ndarray] | None = None,
        env: dict[str, float] | None = None,
        at: float | None = None,
        name: str | None = None,
        order: str = "sequential",
        order_seed: int | None = None,
        tile_shape: tuple[int, ...] | None = None,
        **plan_kwargs: Any,
    ) -> str:
        """Queue a job; returns its id.  Raises ``ServiceError`` when the
        tenant is unknown, both/neither of program and workload are
        given, or the job could never fit the device (a *reject* — jobs
        that fit an empty device but not the current one *queue*)."""
        if tenant not in self.tenants:
            raise ServiceError(
                f"unknown tenant {tenant!r}; add_tenant() first",
                tenant=tenant, reason="unknown-tenant",
            )
        if (program is None) == (workload is None):
            raise ServiceError(
                "submit exactly one of a Program or a workload name",
                tenant=tenant, reason="bad-submission",
            )
        if workload is not None:
            ws = build_workload(workload, **(workload_kwargs or {}))
            program, inputs = ws.prog, dict(ws.inputs)
        job_id = name if name is not None else f"{tenant}.j{self._jobs_ever}"
        if job_id in self._results or any(
            j.id == job_id for j in self._queued + self._running
        ):
            raise ServiceError(f"duplicate job id {job_id!r}",
                               tenant=tenant, job=job_id, reason="duplicate-job")
        self._jobs_ever += 1
        arrival = self.now if at is None else max(float(at), self.now)

        # reject-at-submit: a job whose minimum footprint exceeds an
        # *empty* device can never be admitted, no matter how long it waits
        try:
            min_plan = plan_program(
                program, machine=self.runtime.machine,
                free_memory=self.admission.capacity(),
                n_slots=1,
                **{k: v for k, v in plan_kwargs.items() if k != "n_slots"},
            )
        except PlanError as exc:
            raise ServiceError(
                f"job {job_id!r} of tenant {tenant!r} is unplannable "
                f"within device capacity: {exc}",
                tenant=tenant, job=job_id, reason="reject",
            ) from exc
        min_footprint = plan_footprint_bytes(min_plan)
        if min_footprint > self.admission.capacity():
            raise ServiceError(
                f"job {job_id!r} of tenant {tenant!r} needs at least "
                f"{min_footprint} device bytes; capacity is "
                f"{self.admission.capacity()} — rejected",
                tenant=tenant, job=job_id, reason="reject",
            )

        job = _Job(
            id=job_id, tenant=tenant, prog=program,
            inputs=dict(inputs or {}), env=dict(env or {}),
            workload=workload, arrival=arrival, seq=self._jobs_ever,
            state=QUEUED, plan=None, lib=None, stepper=None,
            plan_kwargs=dict(plan_kwargs), order=order,
            order_seed=order_seed, tile_shape=tile_shape,
            admit_t=None, finish_t=None, slots_held=0, degraded=False,
            shed=0, shared_fields=(), registered=False, footprint=0,
            result=None, start_t=None, last_q_end=None, own_seconds=0.0,
            n_quanta=0, wait_mark=arrival, wait_reason=None, wait={},
        )
        self._queued.append(job)
        self.session.emit("submit", arrival, tenant=tenant, job=job_id,
                          workload=workload or "program")
        self._update_backlog(tenant)
        return job_id

    # -- per-tenant observability -------------------------------------------

    def _update_backlog(self, tenant: str) -> None:
        backlog = sum(1 for j in self._queued if j.tenant == tenant)
        self.metrics.set_gauge(f"service.tenant.{tenant}.backlog", backlog)

    def _note_wait(self, job: _Job, reason: str | None) -> None:
        """Close the job's open wait segment and start a new one.

        Wait segments tile [submit, admit] by reason: the span since the
        last mark is charged to the *standing* reason (``"queued"`` until
        an admission attempt says otherwise), then ``reason`` becomes the
        standing classification.  ``None`` closes the final segment at
        admission.  Pure bookkeeping — never touches the clock.
        """
        now = self.now
        if now > job.wait_mark:
            prev = job.wait_reason or "queued"
            job.wait[prev] = job.wait.get(prev, 0.0) + (now - job.wait_mark)
            job.wait_mark = now
        job.wait_reason = reason

    def _slo_backpressured(self, tenant: str) -> bool:
        """Admission hook: defer best-effort tenants while a budget burns.

        Protected = any tenant currently burning its error budget; held
        back = everyone else without the priority bit.  Burning tenants
        and priority tenants are never deferred by their own protection.
        """
        if self.slo is None:
            return False
        burning = self.slo.burning()
        return (bool(burning) and tenant not in burning
                and not self.tenants[tenant].priority)

    # -- admission ----------------------------------------------------------

    def _reserved(self) -> int:
        """Device bytes promised to running jobs (their pools fill lazily)."""
        return sum(j.footprint for j in self._running)

    def _plan_job(self, job: _Job, *, n_slots: int | None = None):
        kwargs = dict(job.plan_kwargs)
        if n_slots is not None:
            kwargs["n_slots"] = n_slots
        budget = max(self.admission.budget(self._reserved()), 1)
        return plan_program(
            job.prog, machine=self.runtime.machine,
            free_memory=budget, **kwargs,
        )

    def _dataset_key(self, plan, fname: str, arr: np.ndarray) -> tuple:
        from ..check.explore import digest
        fplan = plan.fields[fname]
        halo = fplan.halo
        if isinstance(halo, int):
            halo = (halo,) * len(tuple(plan.domain))
        return (
            digest(np.ascontiguousarray(arr)),
            tuple(plan.domain), plan.n_regions, tuple(halo),
            str(np.dtype(plan.dtype)),
        )

    def _shareable_fields(self, job: _Job, plan) -> dict[str, tuple]:
        """Read-only planned fields whose input content is dedup-keyable."""
        if not self.dedup or not self.runtime.functional:
            return {}
        out = {}
        for fname in plan.ro_fields:
            if fname in job.inputs:
                out[fname] = self._dataset_key(plan, fname, job.inputs[fname])
        return out

    def _try_admit(self, job: _Job) -> bool:
        tenant = self.tenants[job.tenant]
        plan = self._plan_job(job)

        # QoS slot cap: the job's pool must fit the tenant's remaining
        # fair-share quota (floor of one slot per field keeps it runnable)
        allowed = max(self.partitioner.headroom(job.tenant), 1)
        if plan_total_slots(plan) > allowed:
            capped = max(1, allowed // max(len(plan.fields), 1))
            plan = self._plan_job(job, n_slots=capped)

        shareable = self._shareable_fields(job, plan)
        borrowed = {
            f: key for f, key in shareable.items() if key in self._datasets
        }
        own_fields = [f for f in plan.fields if f not in borrowed]
        n_slots_eff = plan.n_slots if plan.n_slots is not None else plan.n_regions
        footprint = sum(
            n_slots_eff * plan_slot_bytes(plan, f) for f in own_fields
        )
        degraded_footprint = sum(plan_slot_bytes(plan, f) for f in own_fields)

        decision = self.admission.decide(
            footprint, degraded_footprint, reserved=self._reserved(),
        )
        if decision == DEFER and tenant.priority:
            if self._shed_for(job, footprint):
                decision = ADMIT
        if decision == DEFER:
            self._note_wait(job, "deferred")
            return False
        if decision == REJECT:
            raise ServiceError(
                f"job {job.id!r} of tenant {job.tenant!r} exceeds device "
                f"capacity even degraded — rejected",
                tenant=job.tenant, job=job.id, reason="reject",
            )
        if decision == DEGRADE:
            plan = self._plan_job(job, n_slots=1)
            job.degraded = True
            self.metrics.inc("service.degraded")
            self.session.emit("degrade", self.now, tenant=job.tenant,
                              job=job.id, footprint=footprint,
                              budget=self.admission.budget(self._reserved()))
            n_slots_eff = plan.n_slots if plan.n_slots is not None else plan.n_regions
            own_fields = [f for f in plan.fields if f not in borrowed]
            footprint = sum(
                n_slots_eff * plan_slot_bytes(plan, f) for f in own_fields
            )

        lib = TidaAcc(
            runtime=self.runtime, acc=self.acc,
            prefetch_depth=plan.prefetch_depth, eviction=plan.eviction,
            retry=self.retry, label_prefix=f"{job.id}:",
        )
        for fname, key in borrowed.items():
            ds = self._datasets[key]
            lib.attach_shared_field(fname, ds["array"], ds["manager"])
            ds["borrowers"].add(job.id)
            self.metrics.inc("service.dedup_hits")
            self.metrics.inc(
                "service.dedup_bytes_avoided",
                n_slots_eff * plan_slot_bytes(plan, fname),
            )
        job.shared_fields = tuple(sorted(borrowed))
        job.plan = plan
        job.lib = lib
        job.stepper = program_stepper(
            lib, job.prog, plan, inputs=job.inputs, env=job.env,
            order=job.order, order_seed=job.order_seed,
            tile_shape=job.tile_shape,
        )
        job.slots_held = n_slots_eff * len(own_fields)
        job.footprint = footprint
        self.partitioner.acquire(job.tenant, job.slots_held)
        job.state = RUNNING
        self._note_wait(job, None)   # close the final wait segment
        job.admit_t = self.now
        self._admit_seq += 1
        job.seq = self._admit_seq
        if self._t_first_admit is None:
            self._t_first_admit = self.now
        self._queued.remove(job)
        self._running.append(job)
        self.session.emit(
            "admit", self.now, tenant=job.tenant, job=job.id,
            slots=job.slots_held, footprint=footprint,
            degraded=job.degraded, shared=list(job.shared_fields),
        )
        self._update_backlog(job.tenant)
        return True

    def _shed_for(self, job: _Job, footprint: int) -> bool:
        """Free device memory for a priority job by shrinking best-effort pools."""
        if footprint <= self.admission.budget(self._reserved()):
            return True
        victims = self.partitioner.shed_candidates(
            self.partitioner.total_slots, protect=(job.tenant,)
        )
        for victim_tenant in victims:
            victim_job = next(
                (j for j in self._running if j.tenant == victim_tenant
                 and j.lib is not None), None,
            )
            if victim_job is None:
                continue
            pairs = [
                (f, victim_job.lib.manager(f))
                for f in victim_job.lib.field_names()
                if f not in victim_job.lib._shared
            ]
            pairs = [(f, m) for f, m in pairs if len(m.slots) > 1]
            if not pairs:
                continue
            fname, target = max(pairs, key=lambda fm: len(fm[1].slots))
            if target.shed_slots(1):
                victim_job.shed += 1
                victim_job.slots_held -= 1
                victim_job.footprint -= plan_slot_bytes(victim_job.plan, fname)
                self.partitioner.release(victim_tenant, 1)
                self.metrics.inc("service.evictions.priority")
                self.session.emit(
                    "shed", self.now, tenant=victim_tenant,
                    job=victim_job.id, beneficiary=job.id, slots=1,
                )
            if footprint <= self.admission.budget(self._reserved()):
                return True
        return footprint <= self.admission.budget(self._reserved())

    def _evict_dataset_cache(self) -> bool:
        """Drop cached read-only datasets nobody is borrowing (memory relief)."""
        running = {j.id for j in self._running}
        freed = False
        for key in list(self._datasets):
            ds = self._datasets[key]
            ds["borrowers"] &= running
            if ds["owner"] in running or ds["borrowers"]:
                continue
            ds["manager"].release_device_memory()
            del self._datasets[key]
            self.metrics.inc("service.dedup_evicted")
            freed = True
        return freed

    def _register_datasets(self, job: _Job) -> None:
        """Publish the job's read-only inputs for later jobs to borrow."""
        if job.plan is None or job.lib is None:
            return
        for fname, key in self._shareable_fields(job, job.plan).items():
            if key in self._datasets or fname in job.lib._shared:
                continue
            self._datasets[key] = {
                "array": job.lib.field(fname),
                "manager": job.lib.manager(fname),
                "owner": job.id,
                "borrowers": set(),
            }
            job.lib.mark_field_shared(fname)

    # -- the scheduling loop ------------------------------------------------

    def _busy_total(self) -> float:
        return self._busy_accum + sum(e.busy_time for e in self._engines)

    def _admit_ready(self) -> None:
        if self.scheduler == "serial" and self._running:
            return
        now = self.now
        ready = sorted(
            (j for j in self._queued if j.arrival <= now),
            key=lambda j: (not self.tenants[j.tenant].priority, j.arrival, j.seq),
        )
        cap = self.per_tenant_concurrency
        for job in ready:
            if cap is not None:
                in_flight = sum(1 for j in self._running if j.tenant == job.tenant)
                if in_flight >= cap:
                    self._note_wait(job, "queued")
                    continue
            if self.admission.backpressured(job.tenant):
                self._note_wait(job, "backpressure")
                self.metrics.inc("service.slo.backpressure_deferrals")
                continue
            self._try_admit(job)
            if self.scheduler == "serial" and self._running:
                return

    def _pick(self) -> _Job:
        if self.scheduler == "serial":
            return self._running[0]
        tenant = self.wfq.pick({j.tenant for j in self._running})
        return min(
            (j for j in self._running if j.tenant == tenant),
            key=lambda j: j.seq,
        )

    def _step(self, job: _Job) -> None:
        busy0 = self._busy_total()
        t0 = self.now
        done = False
        run = None
        try:
            next(job.stepper)
        except StopIteration as stop:
            done = True
            run = stop.value
        t1 = self.now
        if job.start_t is None:
            job.start_t = t0
        job.own_seconds += t1 - t0
        job.last_q_end = t1
        job.n_quanta += 1
        cost = (self._busy_total() - busy0) + (t1 - t0)
        self.wfq.charge(job.tenant, cost)
        if not job.registered and not done:
            # fields exist after the stepper's lazy setup ran: publish the
            # job's read-only inputs so co-running jobs can borrow them
            self._register_datasets(job)
            job.registered = True
        m = self.metrics
        m.inc(f"service.tenant.{job.tenant}.quanta")
        m.inc(f"service.tenant.{job.tenant}.busy_seconds",
              max(self._busy_total() - busy0, 0.0))
        if done:
            self._finish(job, run)
        elif self.max_engine_lag is not None:
            tail = max(e.tail for e in self._engines)
            if tail - self.now > self.max_engine_lag:
                self.clock.advance_to(tail - self.max_engine_lag)

    def _finish(self, job: _Job, run) -> None:
        lib = job.lib
        self._register_datasets(job)
        # Queue the final writebacks WITHOUT a host sync: lib.close() (or a
        # synchronous flush) would floor the shared clock at this job's
        # drain point, and every co-running job's next issue with it — the
        # single biggest serializer between multiplexed jobs.  Functional
        # copies move bytes eagerly at issue, so digests are already exact;
        # the copies' virtual completion defines the job's finish time, and
        # slot release is deferred until the clock actually passes it.
        drain_end = self.now
        for fname in sorted(job.plan.fields):
            if fname in lib._shared:
                continue
            mgr = lib.manager(fname)
            if not mgr.read_only:
                drain_end = max(drain_end, mgr.flush_to_host(sync=False))
        digests = None
        if self.runtime.functional:
            from ..check.explore import digest
            digests = {
                fname: digest(lib.field(fname).to_global())
                for fname in sorted(job.plan.fields)
            }
        self._draining.append((job, drain_end))
        job.state = DONE
        job.finish_t = drain_end
        self._t_last_finish = max(self._t_last_finish, drain_end)
        latency = job.finish_t - job.arrival
        started = job.start_t if job.start_t is not None else job.admit_t
        last_end = job.last_q_end if job.last_q_end is not None else self.now
        queue_wait = job.admit_t - job.arrival
        start_delay = started - job.admit_t
        execute = last_end - started
        drain = job.finish_t - last_end
        timeline = {
            "submitted": job.arrival, "admitted": job.admit_t,
            "started": started, "last_quantum_end": last_end,
            "drained": job.finish_t, "own_seconds": job.own_seconds,
            "quanta": job.n_quanta,
            "wait": {k: v for k, v in sorted(job.wait.items())},
        }
        result = JobResult(
            job=job.id, tenant=job.tenant, workload=job.workload,
            arrival=job.arrival, admitted=job.admit_t,
            finished=job.finish_t, latency=latency, elapsed=run.elapsed,
            iterations=run.iterations, degraded=job.degraded,
            shed=job.shed, shared_fields=job.shared_fields,
            digests=digests, env=dict(run.env),
            n_regions=job.plan.n_regions, n_slots=job.plan.n_slots,
            timeline=timeline,
        )
        self._results[job.id] = result
        self._running.remove(job)
        m = self.metrics
        m.inc(f"service.tenant.{job.tenant}.jobs_completed")
        for phase, value in (("latency", latency), ("queue_wait", queue_wait),
                             ("start_delay", start_delay),
                             ("execute", execute), ("drain", drain)):
            m.histogram(f"service.tenant.{job.tenant}.{phase}",
                        LATENCY_BUCKETS).observe(value)
        if self.slo is not None:
            self.slo.observe(JobSli(
                job=job.id, tenant=job.tenant, t=job.finish_t,
                latency=latency, queue_wait=queue_wait,
                start_delay=start_delay, execute=execute, drain=drain,
            ))
        self.session.emit(
            "finish", self.now, tenant=job.tenant, job=job.id,
            latency=latency, elapsed=run.elapsed, degraded=job.degraded,
            shed=job.shed, quanta=job.n_quanta,
        )
        self._update_backlog(job.tenant)
        if self.scheduler == "serial":
            # the serialized baseline drains each job fully: advance to its
            # writeback completion, release its slots, fold its engine time
            # into the ledger, then hand the next job a clean schedule *and*
            # a clean per-job DAG/hazard record (the reset_schedule
            # lifecycle fix this service relies on)
            if drain_end > self.now:
                self.clock.advance_to(drain_end)
            self._reap_drained()
            self._busy_accum += sum(e.busy_time for e in self._engines)
            self.runtime.reset_schedule(drop_dag=True)
        if self.on_finish is not None:
            self.on_finish(result, self)

    def _reap_drained(self) -> None:
        """Release slots of finished jobs whose writebacks have completed."""
        now = self.now
        still = []
        for job, end in self._draining:
            if end > now:
                still.append((job, end))
                continue
            for fname in sorted(job.plan.fields):
                if fname not in job.lib._shared:
                    job.lib.manager(fname).release_device_memory()
            self.partitioner.release(job.tenant, job.slots_held)
        self._draining = still

    def run(self) -> ServiceReport:
        """Drain the queue deterministically; returns the aggregate report."""
        while self._queued or self._running:
            self._reap_drained()
            self._admit_ready()
            if self._running:
                self._step(self._pick())
                continue
            now = self.now
            future = [j for j in self._queued if j.arrival > now]
            blocked = [j for j in self._queued if j.arrival <= now]
            if blocked:
                relief = self.admission.pressure_relief_time()
                if relief is not None and relief > now:
                    self.session.emit("wait-pressure", now, until=relief)
                    self.clock.advance_to(relief)
                    continue
                if self._draining:
                    # finished jobs still hold slots until their writebacks
                    # land; the earliest drain point is the next admit chance
                    self.clock.advance_to(min(end for _, end in self._draining))
                    continue
                if self._evict_dataset_cache():
                    continue
                if (self.slo is not None
                        and self.slo.backpressure_active()
                        and all(self.admission.backpressured(j.tenant)
                                for j in blocked)):
                    if future:
                        # protected tenants still have arrivals coming:
                        # hold the deferral and wait for them rather
                        # than releasing the flood between two arrivals
                        self.clock.advance_to(min(j.arrival for j in future))
                        continue
                    if self.slo.release_backpressure():
                        # only backpressured jobs remain and every
                        # protected tenant is drained: releasing the burn
                        # state (with a "release" mark in the SLO stream)
                        # beats deadlock
                        continue
                job = blocked[0]
                raise ServiceError(
                    f"job {job.id!r} of tenant {job.tenant!r} cannot be "
                    f"admitted: footprint exceeds the device budget with "
                    f"nothing left to wait for",
                    tenant=job.tenant, job=job.id, reason="stuck",
                )
            if future:
                self.clock.advance_to(min(j.arrival for j in future))
        if self._draining:
            self.clock.advance_to(max(end for _, end in self._draining))
            self._reap_drained()
        return self.report()

    # -- reporting ----------------------------------------------------------

    def report(self) -> ServiceReport:
        t0 = self._t_first_admit if self._t_first_admit is not None else 0.0
        t1 = max(self._t_last_finish, t0)
        makespan = t1 - t0
        busy = self._busy_total()
        n_engines = len(self._engines)
        util = busy / (n_engines * makespan) if makespan > 0 else 0.0
        checker = self.runtime.checker
        racy = len(checker.racy()) if checker is not None else 0
        per_tenant: dict[str, dict[str, Any]] = {}
        for name in self.tenants:
            hist = self.metrics.find_histogram(
                f"service.tenant.{name}.latency")
            per_tenant[name] = {
                "weight": self.tenants[name].weight,
                "priority": self.tenants[name].priority,
                "quanta": self.metrics.value(f"service.tenant.{name}.quanta"),
                "busy_seconds": self.metrics.value(
                    f"service.tenant.{name}.busy_seconds"),
                "jobs_completed": self.metrics.value(
                    f"service.tenant.{name}.jobs_completed"),
                "latencies": sorted(
                    r.latency for r in self._results.values()
                    if r.tenant == name
                ),
                # streaming (bucket-interpolated) percentiles — what the
                # metrics surface exposes to compare gates and dashboards
                "latency_p50": hist.percentile(0.50) if hist else None,
                "latency_p95": hist.percentile(0.95) if hist else None,
                "latency_p99": hist.percentile(0.99) if hist else None,
            }
        return ServiceReport(
            jobs=dict(self._results), makespan=makespan,
            busy_seconds=busy, n_engines=n_engines, utilization=util,
            racy_hazards=racy, session=self.session, tenants=per_tenant,
        )

    # -- lifetime -----------------------------------------------------------

    def close(self) -> None:
        """Release cached shared datasets and drain the device."""
        for ds in self._datasets.values():
            ds["manager"].release_device_memory()
        self._datasets.clear()
        self.runtime.device_synchronize()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_solo(
    tenant: str,
    *,
    machine: MachineSpec | None = None,
    functional: bool = True,
    mode: str | None = None,
    device_memory_limit: int | None = None,
    check: str | bool | None = "strict",
    workload: str | None = None,
    workload_kwargs: dict[str, Any] | None = None,
    program=None,
    inputs: dict[str, np.ndarray] | None = None,
    env: dict[str, float] | None = None,
    total_slots: int = DEFAULT_TOTAL_SLOTS,
    **submit_kwargs: Any,
) -> JobResult:
    """Run one job alone on a dedicated runtime (the differential baseline).

    Builds a single-tenant service around a fresh
    :class:`~repro.cuda.runtime.CudaRuntime`, submits the job, drains
    it, and returns its :class:`JobResult` — the digests the isolation
    suite compares every multiplexed run against.
    """
    svc = Service(
        machine, functional=functional, mode=mode,
        device_memory_limit=device_memory_limit, check=check,
        total_slots=total_slots, dedup=False,
    )
    svc.add_tenant(tenant)
    job_id = svc.submit(
        tenant, program, workload=workload,
        workload_kwargs=workload_kwargs, inputs=inputs, env=env,
        **submit_kwargs,
    )
    report = svc.run()
    svc.close()
    return report.jobs[job_id]
