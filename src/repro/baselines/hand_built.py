"""Hand-built §V loops: the differential oracle for the workload catalog.

These are the programs §V sketches, written directly against the public
:class:`~repro.core.library.TidaAcc` API with no planner involved: every
field is declared ``rw``, every stencil-read halo is exchanged every
step, and the schedule is the one a careful human would write.
:func:`~repro.baselines.tida_runners.run_tida` must reproduce their
results bit-for-bit (the conformance matrix's ``<name>`` against
``<name>-hand``); with the knobs pinned, heat, wave and compute also
reproduce their trace, DAG and elapsed time.  ``coeff-heat`` is the
naive variable-coefficient baseline: it refills the never-written
``kappa`` halo every step and writes ``kappa`` back on eviction — the
redundant traffic the planner proves away.

Fields are declared in the planner's order (first use in the step), so
slot streams are numbered the same way on both sides.
"""

from __future__ import annotations

from ..config import DEFAULT_MACHINE, MachineSpec
from ..core.library import TidaAcc
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..kernels.compute_intensive import DEFAULT_KERNEL_ITERATION, compute_intensive_kernel
from ..kernels.heat import coeff_heat_kernel, heat_kernel
from ..kernels.wave import wave_kernel
from ..tida.boundary import Dirichlet, Neumann
from .common import BaselineResult, default_init, default_kappa


def run_hand_built(
    workload: str,
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...],
    steps: int,
    n_regions: int = 16,
    n_slots: int | None = None,
    device_memory_limit: int | None = None,
    functional: bool = False,
    eviction: str = "lru",
    prefetch_depth: int | None = None,
    order: str = "sequential",
    order_seed: int | None = None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    check: str | bool | None = None,
) -> BaselineResult:
    """Run ``workload`` as its hand-written §V loop (catalog defaults)."""
    ndim = len(shape)
    if workload == "heat":
        kernel, params = heat_kernel(ndim), {"coef": 0.1}
        fields, filled, bc = ("u_new", "u_old"), ("u_old",), Neumann()
        swaps, state, gather = (("u_old", "u_new"),), ("u_old", "u_new"), "u_old"
    elif workload == "coeff-heat":
        kernel, params = coeff_heat_kernel(ndim), {"coef": 0.1}
        fields, filled, bc = ("u_new", "u_old", "kappa"), ("u_old", "kappa"), Neumann()
        swaps, state, gather = (("u_old", "u_new"),), ("u_old", "u_new"), "u_old"
    elif workload == "wave":
        kernel, params = wave_kernel(ndim), {"c2": 0.25}
        fields, filled, bc = ("u_next", "u", "u_prev"), ("u",), Dirichlet(0.0)
        swaps, state, gather = (("u_prev", "u"), ("u", "u_next")), ("u", "u_prev"), "u"
    elif workload == "compute":
        kernel = compute_intensive_kernel(DEFAULT_KERNEL_ITERATION)
        params = {"kernel_iteration": DEFAULT_KERNEL_ITERATION}
        fields, filled, bc = ("data",), (), None
        swaps, state, gather = (), ("data",), "data"
    else:
        raise ValueError(f"no hand-built loop for workload {workload!r}")

    machine = machine if machine is not None else DEFAULT_MACHINE
    lib = TidaAcc(machine, functional=functional,
                  device_memory_limit=device_memory_limit,
                  prefetch_depth=prefetch_depth, eviction=eviction,
                  faults=faults, retry=retry, check=check)
    functional = lib.runtime.functional
    halo = 1 if filled else 0
    for name in fields:
        lib.add_array(name, shape, n_regions=n_regions, halo=halo, n_slots=n_slots)
    if functional:
        init = default_init(shape, 0)
        for name in state:
            lib.field(name).from_global(init)
        if workload == "coeff-heat":
            lib.field("kappa").from_global(default_kappa(shape))

    t0 = lib.now
    for _ in range(steps):
        for name in filled:
            lib.fill_boundary(name, bc)
        it = lib.iterator(*fields, order=order, seed=order_seed).reset(gpu=True)
        while it.is_valid():
            lib.compute(it, kernel, params=params)
            it.next()
        for a, b in swaps:
            lib.swap(a, b)
    result = lib.gather(gather) if functional else None
    if not functional:
        lib.manager(gather).flush_to_host()
    lib.synchronize()
    return BaselineResult(
        name=f"tida-acc-{workload}-hand", elapsed=lib.now - t0,
        shape=tuple(shape), steps=steps, trace=lib.trace, result=result,
        meta={"n_regions": n_regions, "n_slots": lib.manager(gather).n_slots,
              "device_memory_limit": device_memory_limit, "mode": lib.mode},
        metrics=lib.metrics.snapshot(),
        dag=(list(lib.checker.dag) if lib.checker is not None else None),
    )
