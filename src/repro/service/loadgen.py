"""Seeded load generator: heavy-traffic arrival patterns for the service.

Replays deterministic multi-tenant traffic against a
:class:`~repro.service.Service`:

* **open loop** — arrival times are drawn up front (Poisson process or
  Poisson bursts) and jobs are submitted with ``at=``; tenants keep
  submitting regardless of completions, which is what drives the
  contention the QoS machinery exists for;
* **closed loop** — each tenant keeps at most one job in flight and
  thinks for an exponential gap after every completion, the classic
  interactive-tenant model.

Everything is derived from one ``numpy`` generator seeded explicitly, so
the same seed reproduces the same arrivals, tenants, workloads, and
initial data — the property the ``service.jsonl`` byte-determinism test
pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..baselines.workloads import WORKLOADS
from ..errors import ServiceError


@dataclass(frozen=True)
class Arrival:
    """One generated job submission."""

    t: float                 # virtual submission time
    tenant: str
    workload: str
    seed: int                # perturbs the job's initial condition
    kwargs: tuple            # extra build_workload knobs, as sorted items


@dataclass(frozen=True)
class TrafficPattern:
    """Knobs of the arrival process."""

    mean_gap: float = 2e-3          # mean inter-arrival gap, virtual seconds
    burst_size: int = 1             # arrivals per burst (1 = plain Poisson)
    burst_gap: float = 1e-5         # gap between arrivals inside one burst
    start: float = 0.0


class LoadGenerator:
    """Deterministic arrival-pattern generator over a tenant set."""

    def __init__(
        self,
        seed: int,
        tenants: Sequence[str],
        *,
        workloads: Sequence[str] = ("heat", "compute"),
        pattern: TrafficPattern | None = None,
        workload_kwargs: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        if not tenants:
            raise ServiceError("load generator needs at least one tenant",
                               reason="no-tenants")
        for w in workloads:
            if w not in WORKLOADS:
                raise ServiceError(
                    f"unknown workload {w!r}; have {', '.join(WORKLOADS)}",
                    reason="unknown-workload",
                )
        self.seed = int(seed)
        self.tenants = tuple(tenants)
        self.workloads = tuple(workloads)
        self.pattern = pattern if pattern is not None else TrafficPattern()
        self.workload_kwargs = dict(workload_kwargs or {})

    def _job_kwargs(self, workload: str) -> tuple:
        return tuple(sorted(self.workload_kwargs.get(workload, {}).items()))

    def arrivals(self, n_jobs: int) -> tuple[Arrival, ...]:
        """Open-loop arrival list: Poisson process (with optional bursts).

        Bursts model the "a tenant submits a batch" pattern: gaps
        *between* bursts are exponential with the configured mean, gaps
        *inside* a burst are a fixed tiny spacing, and each burst stays
        on one tenant (a burst is one tenant's batch).
        """
        if n_jobs < 1:
            raise ServiceError(f"need at least one job, got {n_jobs}",
                               reason="bad-load")
        rng = np.random.default_rng(self.seed)
        p = self.pattern
        out: list[Arrival] = []
        t = p.start
        while len(out) < n_jobs:
            t += float(rng.exponential(p.mean_gap))
            tenant = self.tenants[int(rng.integers(len(self.tenants)))]
            for i in range(min(p.burst_size, n_jobs - len(out))):
                workload = self.workloads[int(rng.integers(len(self.workloads)))]
                out.append(Arrival(
                    t=t + i * p.burst_gap,
                    tenant=tenant,
                    workload=workload,
                    seed=int(rng.integers(2**31)),
                    kwargs=self._job_kwargs(workload),
                ))
        return tuple(out)

    def think_time(self, rng: np.random.Generator) -> float:
        """One closed-loop think gap (exponential, same mean as arrivals)."""
        return float(rng.exponential(self.pattern.mean_gap))

    def replay_open(self, service, n_jobs: int) -> list[str]:
        """Submit ``n_jobs`` open-loop arrivals; returns the job ids."""
        ids = []
        for a in self.arrivals(n_jobs):
            ids.append(service.submit(
                a.tenant, workload=a.workload, at=a.t,
                workload_kwargs=dict(a.kwargs, seed=a.seed),
            ))
        return ids

    def replay_closed(self, service, jobs_per_tenant: int) -> list[str]:
        """Closed loop: one job in flight per tenant, think-gap resubmits.

        Submits the first wave, then chains follow-ups from the
        service's completion hook.  Returns the ids of the first wave
        (later ids appear in the service report).
        """
        rng = np.random.default_rng(self.seed)
        remaining = {t: jobs_per_tenant - 1 for t in self.tenants}
        ids = []

        def on_finish(result, svc) -> None:
            tenant = result.tenant
            if remaining.get(tenant, 0) <= 0:
                return
            remaining[tenant] -= 1
            workload = self.workloads[int(rng.integers(len(self.workloads)))]
            svc.submit(
                tenant, workload=workload,
                at=svc.now + self.think_time(rng),
                workload_kwargs=dict(self._job_kwargs(workload),
                                     seed=int(rng.integers(2**31))),
            )

        service.on_finish = on_finish
        for tenant in self.tenants:
            workload = self.workloads[int(rng.integers(len(self.workloads)))]
            ids.append(service.submit(
                tenant, workload=workload,
                at=self.pattern.start + self.think_time(rng),
                workload_kwargs=dict(self._job_kwargs(workload),
                                     seed=int(rng.integers(2**31))),
            ))
        return ids
