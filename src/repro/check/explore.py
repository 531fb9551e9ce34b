"""Schedule exploration: perturb timings and orders, demand identical results.

The hazard checker (:mod:`repro.check.hazards`) proves ordering for *one*
schedule.  This module supplies the other half of the conformance story:
run the same workload under many schedules — jittered engine/link speeds
(which reorder every FIFO race), shuffled tile-visit orders, different
eviction policies and prefetch depths — and assert that

1. the numerical result is **byte-identical** across all of them
   (:func:`digest` compares sha256 of the raw array bytes, not allclose), and
2. no run observed a racy hazard.

Timing jitter is the simulated analogue of "run it on a slower machine /
a busier PCIe bus": any ordering that only held because one engine
happened to be faster than another breaks under perturbation, and the
digest (or the checker) catches it.

Everything is seeded — a failing combination is reproducible from its
:class:`ScheduleRun.label` alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..config import MachineSpec
from .hazards import HazardChecker

__all__ = [
    "ExploreReport",
    "ScheduleRun",
    "conformance_matrix",
    "digest",
    "explore",
    "perturb_machine",
]


def digest(arr: Any) -> str:
    """sha256 over an array's dtype, shape, and raw bytes.

    Byte-identity is the right bar here: every schedule runs the same
    floating-point operations in the same per-cell order, so even
    non-associative arithmetic must agree exactly.  ``allclose`` would
    mask exactly the class of bug this harness exists to find (a stale
    region slipping into one schedule's result).
    """
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def perturb_machine(
    machine: MachineSpec, seed: int, *, jitter: float = 0.25
) -> MachineSpec:
    """A copy of ``machine`` with every rate/latency jittered by ±``jitter``.

    Kernel, transfer, and host durations all derive from these numbers,
    so this perturbs every engine latency in the simulation at once —
    reordering any two operations whose order was decided by timing
    rather than by a synchronization edge.
    """
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must be in [0, 1), got {jitter}")
    rng = np.random.default_rng(seed)

    def j(value: float) -> float:
        return float(value) * float(rng.uniform(1.0 - jitter, 1.0 + jitter))

    link = replace(
        machine.link,
        h2d_bandwidth=j(machine.link.h2d_bandwidth),
        d2h_bandwidth=j(machine.link.d2h_bandwidth),
        latency=j(machine.link.latency),
    )
    gpu = replace(
        machine.gpu,
        dp_flops=j(machine.gpu.dp_flops),
        mem_bandwidth=j(machine.gpu.mem_bandwidth),
        kernel_launch_overhead=j(machine.gpu.kernel_launch_overhead),
    )
    cpu = replace(
        machine.cpu,
        dp_flops=j(machine.cpu.dp_flops),
        mem_bandwidth=j(machine.cpu.mem_bandwidth),
        api_call_overhead=j(machine.cpu.api_call_overhead),
        ghost_index_rate=j(machine.cpu.ghost_index_rate),
    )
    return replace(
        machine, name=f"{machine.name}~s{seed}", cpu=cpu, gpu=gpu, link=link
    )


@dataclass(frozen=True)
class ScheduleRun:
    """One schedule's outcome: config label, result digest, hazard counts."""

    label: str
    digest: str
    hazards: dict[str, int]
    elapsed: float
    meta: Any = None

    @property
    def racy(self) -> int:
        return self.hazards.get("error", 0)


@dataclass
class ExploreReport:
    """Outcomes of a schedule sweep, plus the two conformance verdicts."""

    runs: list[ScheduleRun]

    @property
    def digests(self) -> set[str]:
        """Distinct result digests (timing-only legs, ``digest == ""``, are
        excluded: they carry no numerics to compare)."""
        return {r.digest for r in self.runs if r.digest}

    @property
    def byte_identical(self) -> bool:
        return len(self.digests) <= 1

    @property
    def racy(self) -> int:
        return sum(r.racy for r in self.runs)

    @property
    def ok(self) -> bool:
        return self.byte_identical and self.racy == 0

    def failures(self) -> list[str]:
        """Human-readable conformance violations (empty when ``ok``)."""
        out: list[str] = []
        if not self.byte_identical:
            by_digest: dict[str, list[str]] = {}
            for r in self.runs:
                by_digest.setdefault(r.digest[:12], []).append(r.label)
            out.append(f"results diverge across schedules: {by_digest}")
        for r in self.runs:
            if r.racy:
                out.append(f"{r.label}: {r.racy} racy hazard(s)")
        return out


def explore(
    run: Callable[..., Any],
    variants: Iterable[dict[str, Any]],
    *,
    machine: MachineSpec | None = None,
    timing_seeds: Sequence[int] = (0,),
    jitter: float = 0.25,
) -> ExploreReport:
    """Run ``run(machine=..., **variant)`` across variants × perturbed machines.

    ``run`` must return an object with ``result`` (the array to digest),
    ``elapsed``, and ``metrics`` (a mapping; ``check.hazards.*`` counters
    are read from it) — the shape of
    :class:`~repro.baselines.common.BaselineResult`.  Each variant dict is
    splatted into the call; a ``label`` key (optional) names the runs.

    ``timing_seeds`` selects machine perturbations: seed ``0`` runs the
    unperturbed machine, any other seed a :func:`perturb_machine` copy.
    """
    runs: list[ScheduleRun] = []
    for seed in timing_seeds:
        m = machine
        if seed and machine is not None:
            m = perturb_machine(machine, seed, jitter=jitter)
        elif seed:
            raise ValueError("timing_seeds beyond 0 require an explicit machine")
        for variant in variants:
            variant = dict(variant)
            label = variant.pop("label", None) or ",".join(
                f"{k}={v}" for k, v in sorted(variant.items())
            )
            res = run(machine=m, **variant)
            metrics = getattr(res, "metrics", None) or {}
            # accept either a flat counter mapping or a full registry
            # snapshot ({"counters": {...}, "gauges": ..., ...})
            counters = metrics.get("counters", metrics)
            hazards = {
                "warning": int(counters.get("check.hazards.fifo_luck", 0)),
                "error": int(counters.get("check.hazards.racy", 0)),
            }
            runs.append(
                ScheduleRun(
                    label=f"t{seed}/{label}",
                    digest=digest(res.result),
                    hazards=hazards,
                    elapsed=float(res.elapsed),
                    meta=getattr(res, "meta", None),
                )
            )
    return ExploreReport(runs)


def conformance_matrix(
    workload: str = "heat",
    *,
    machine: MachineSpec | None = None,
    evictions: Sequence[str] = ("lru", "lookahead", "modulo"),
    prefetch_depths: Sequence[int | None] = (0, 2),
    order_seeds: Sequence[int | None] = (None, 1),
    timing_seeds: Sequence[int] = (0, 1),
    jitter: float = 0.25,
    faults_spec: str | None = None,
    surrogate: str = "full",
    timing_only: Callable[[dict], bool] | None = None,
    **workload_kwargs: Any,
) -> ExploreReport:
    """The canonical sweep: eviction × prefetch depth × visit order × timing.

    Runs the named catalog workload (``"heat"``, ``"wave"``,
    ``"compute"``, ``"coeff-heat"`` through
    :func:`~repro.baselines.tida_runners.run_tida`, or their hand-built
    ``"*-hand"`` oracles) in functional mode with the hazard checker
    observing, over every combination, and reports digests + hazard
    counts.
    ``faults_spec`` additionally arms a
    :class:`~repro.faults.plan.FaultPlan` (``FaultPlan.from_spec``) with a
    retry policy, folding transfer-fault re-issues into the explored
    schedules.

    ``surrogate`` picks how the timing-seed axis is swept.  ``"full"``
    re-simulates every (variant, seed) combination.  ``"replay"`` runs
    each *variant* once on the unperturbed machine — that leg asserts
    byte-identity and records the causal DAG — then predicts every
    perturbed-seed leg by rescheduling that DAG under the jittered
    machine (:func:`~repro.obs.critpath.replay_machine`).  Replayed legs
    carry the base leg's digest and hazard counts (a replay moves times,
    never data) and ``meta={"surrogate": "replay"}``; the report shape
    (run count, labels) matches a full sweep.

    ``timing_only`` (a predicate over the variant dict) marks variants to
    run in timing mode — no numerics, no digest (``""``; excluded from
    :attr:`ExploreReport.digests`), hazard stream still checked.  The
    ``--quick`` harness path uses it to keep slow legs cheap.
    """
    # late imports: baselines import the library, which imports this package
    from ..baselines.hand_built import run_hand_built
    from ..baselines.tida_runners import run_tida
    from ..baselines.workloads import WORKLOADS
    from ..config import DEFAULT_MACHINE
    from ..faults.retry import RetryPolicy
    from ..obs.critpath import replay_machine

    if machine is None:
        machine = DEFAULT_MACHINE
    if surrogate not in ("full", "replay"):
        raise ValueError(
            f'surrogate must be "full" or "replay", got {surrogate!r}'
        )
    # "<name>" runs the catalog Program through run_tida; "<name>-hand"
    # runs the hand-built oracle.  A "<name>" matrix must produce the
    # same digest set as its "-hand" counterpart — that differential is
    # the planner's acceptance spine.
    runners = {name: partial(run_tida, name) for name in WORKLOADS}
    runners.update({f"{name}-hand": partial(run_hand_built, name)
                    for name in WORKLOADS})
    try:
        runner = runners[workload]
    except KeyError:
        raise ValueError(
            f"workload must be one of {sorted(runners)}, got {workload!r}"
        ) from None

    def run(machine: MachineSpec | None, *, functional: bool, **variant: Any):
        kwargs = dict(workload_kwargs)
        kwargs.update(variant)
        if faults_spec is not None:
            from ..faults.plan import FaultPlan

            kwargs.setdefault("faults", FaultPlan.from_spec(faults_spec))
            kwargs.setdefault("retry", RetryPolicy(max_attempts=8))
        return runner(machine, functional=functional, check="observe", **kwargs)

    variants = []
    for ev in evictions:
        for depth in prefetch_depths:
            for oseed in order_seeds:
                variants.append(
                    {
                        "eviction": ev,
                        "prefetch_depth": depth,
                        "order": "sequential" if oseed is None else "shuffled",
                        "order_seed": oseed,
                        "label": f"{ev}/d{depth}/o{oseed}",
                    }
                )

    def hazard_counts(res: Any) -> dict[str, int]:
        metrics = getattr(res, "metrics", None) or {}
        counters = metrics.get("counters", metrics)
        return {
            "warning": int(counters.get("check.hazards.fifo_luck", 0)),
            "error": int(counters.get("check.hazards.racy", 0)),
        }

    runs: list[ScheduleRun] = []
    for variant in variants:
        v = dict(variant)
        label = v.pop("label")
        functional = not (timing_only is not None and timing_only(variant))
        # the base leg: unperturbed machine, full simulation — the one
        # place byte-identity is asserted and (replay mode) the DAG source
        base = run(machine, functional=functional, **v)
        base_digest = digest(base.result) if functional else ""
        base_hazards = hazard_counts(base)
        for seed in timing_seeds:
            if seed == 0:
                runs.append(ScheduleRun(
                    label=f"t0/{label}", digest=base_digest,
                    hazards=dict(base_hazards), elapsed=float(base.elapsed),
                    meta=getattr(base, "meta", None),
                ))
                continue
            perturbed = perturb_machine(machine, seed, jitter=jitter)
            if surrogate == "replay":
                if not base.dag:
                    raise ValueError(
                        "replay surrogate needs the base leg's DAG; the "
                        "runner returned none (checker disarmed?)"
                    )
                _, makespan = replay_machine(
                    base.dag, machine=machine, perturbed=perturbed
                )
                runs.append(ScheduleRun(
                    label=f"t{seed}/{label}", digest=base_digest,
                    hazards=dict(base_hazards), elapsed=float(makespan),
                    meta={"surrogate": "replay"},
                ))
            else:
                res = run(perturbed, functional=functional, **v)
                runs.append(ScheduleRun(
                    label=f"t{seed}/{label}",
                    digest=digest(res.result) if functional else "",
                    hazards=hazard_counts(res), elapsed=float(res.elapsed),
                    meta=getattr(res, "meta", None),
                ))
    return ExploreReport(runs)
