"""The TiDA-acc driver for every workload in the catalog.

:func:`run_tida` builds the named workload's
:class:`~repro.plan.Program` (:func:`~repro.baselines.workloads.build_workload`),
plans it with the caller's pinned knobs and executes it through
:meth:`~repro.core.library.TidaAcc.run_program`, parameterized the way
the evaluation needs it: region count (Fig. 5: "16 regions gave the best
performance"), device-memory limit (Figs. 7/8), slot count, tile shape
(ablation A4), and CPU/GPU mixing.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_MACHINE, MachineSpec
from ..core.library import TidaAcc
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..kernels.compute_intensive import DEFAULT_KERNEL_ITERATION
from ..plan import plan_program, writebacks_skipped
from ..tida.boundary import BoundaryCondition
from .common import BaselineResult
from .workloads import build_workload


def run_tida(
    workload: str,
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...],
    steps: int,
    n_regions: int | None = 16,
    n_slots: int | None = None,
    eviction: str | None = "lru",
    prefetch_depth: int | None = None,
    device_memory_limit: int | None = None,
    functional: bool = False,
    mode: str | None = None,
    initial: np.ndarray | None = None,
    coef: float = 0.1,
    c2: float = 0.25,
    kernel_iteration: int = DEFAULT_KERNEL_ITERATION,
    bc: BoundaryCondition | None = None,
    gpu: bool = True,
    tile_shape: tuple[int, ...] | None = None,
    order: str = "sequential",
    order_seed: int | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    check: str | bool | None = None,
    telemetry=None,
) -> BaselineResult:
    """Run ``workload`` (a :data:`~repro.baselines.workloads.WORKLOADS` name).

    ``n_regions`` and ``eviction`` default to the paper's configuration;
    ``None`` for either (or for ``n_slots``/``prefetch_depth``) lets the
    planner derive it.  Region transfers pipeline across per-slot
    streams, and stencil halos are exchanged with the hybrid CPU/GPU
    updater whenever the planner cannot prove them clean.  ``faults``
    arms a fault plan on the runtime and ``retry`` a recovery policy (the
    Fig. 9 resilience benchmark drives both); ``check`` arms the hazard
    checker (see :mod:`repro.check`); ``order``/``order_seed`` control
    the tile-visit order (the schedule-exploration harness shuffles it).
    Initial arrays are built only in functional mode.
    """
    machine = machine if machine is not None else DEFAULT_MACHINE
    spec = build_workload(
        workload, shape=shape, steps=steps, initial=initial, coef=coef,
        c2=c2, kernel_iteration=kernel_iteration, bc=bc, gpu=gpu,
    )
    plan = plan_program(
        spec.prog, machine=machine, free_memory=device_memory_limit,
        n_regions=n_regions, n_slots=n_slots,
        eviction=eviction, prefetch_depth=prefetch_depth,
    )
    lib = TidaAcc(machine, functional=functional, mode=mode,
                  device_memory_limit=device_memory_limit,
                  prefetch_depth=plan.prefetch_depth, eviction=plan.eviction,
                  faults=faults, retry=retry, check=check, telemetry=telemetry)
    functional = lib.runtime.functional
    run = lib.run_program(
        spec.prog, plan=plan, inputs=spec.inputs if functional else None,
        order=order, order_seed=order_seed, tile_shape=tile_shape,
    )
    result = lib.gather(spec.gather) if functional else None
    if not functional:
        lib.manager(spec.gather).flush_to_host()
    lib.synchronize()
    metrics = lib.metrics.snapshot()
    return BaselineResult(
        name=f"tida-acc-{workload}", elapsed=lib.now - run.start,
        shape=tuple(shape), steps=steps, trace=lib.trace, result=result,
        meta={
            "n_regions": plan.n_regions,
            "n_slots": lib.manager(spec.gather).n_slots,
            "device_memory_limit": device_memory_limit,
            "eviction": plan.eviction,
            "prefetch_depth": plan.prefetch_depth,
            "ro_fields": list(plan.ro_fields),
            "loop_invariant_halos": list(plan.loop_invariant_halos),
            "fills": run.fills,
            "fills_elided": run.fills_elided,
            "halo_bytes_saved": run.halo_bytes_saved,
            "writebacks_skipped": writebacks_skipped(metrics, plan),
            "mode": lib.mode,
        },
        metrics=metrics,
        dag=(list(lib.checker.dag) if lib.checker is not None else None),
    )
