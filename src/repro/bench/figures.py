"""One experiment function per paper figure (and per ablation).

Every function runs timing-only simulations at the paper's sizes by
default but accepts smaller ``shape``/``steps`` so the test suite can
exercise the same code paths quickly.  Returned tables carry exactly the
rows/series the paper plots; timeline figures also return the rendered
ASCII Gantt and overlap metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DEFAULT_MACHINE, MiB, MachineSpec, k40m_pcie3, p100_nvlink
from ..baselines.acc_compute import run_acc_compute
from ..baselines.acc_heat import run_acc_heat
from ..baselines.cuda_compute import run_cuda_compute
from ..baselines.cuda_heat import run_cuda_heat
from ..baselines.hybrid_heat import run_hybrid_heat
from ..baselines.tida_runners import run_tida
from ..faults import FaultPlan, FaultRule, RetryPolicy
from ..kernels.compute_intensive import DEFAULT_KERNEL_ITERATION, compute_intensive_kernel
from ..kernels.heat import heat_kernel
from ..model.analytic import estimate_resident, estimate_streaming
from ..model.autotune import sweep_prefetch_depth, sweep_region_counts
from .report import Table


def _cells(shape: tuple[int, ...]) -> int:
    n = 1
    for s in shape:
        n *= s
    return n


def _region_bytes(shape: tuple[int, ...], n_regions: int, itemsize: int = 8) -> int:
    return _cells(shape) * itemsize // n_regions


# ---------------------------------------------------------------------------
# Figure 1 — execution models x memory kinds, heat 384^3 x 100 iterations
# ---------------------------------------------------------------------------

def figure1(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (384, 384, 384),
    steps: int = 100,
) -> Table:
    """Running time of the heat solver under the nine §II-C execution models."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    table = Table(
        title=f"Figure 1: heat {shape}, {steps} iterations — execution models",
        columns=["model", "memory", "seconds"],
    )
    runners = {"cuda": run_cuda_heat, "openacc": run_acc_heat, "cuda+openacc": run_hybrid_heat}
    for model, runner in runners.items():
        for memory in ("pageable", "pinned", "managed"):
            r = runner(machine, shape=shape, steps=steps, memory=memory)
            table.add_row(model, memory, r.elapsed)
    table.add_note("paper: CUDA-pinned fastest; managed slowest per model; hybrid close to CUDA")
    return table


# ---------------------------------------------------------------------------
# Figure 3 — transfers overlapped with tile execution (timeline)
# ---------------------------------------------------------------------------

@dataclass
class TimelineResult:
    table: Table
    gantt: str
    overlap_fraction: float


def figure3(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (256, 256, 256),
    n_regions: int = 8,
    steps: int = 1,
) -> TimelineResult:
    """The §III overlap schematic, regenerated from a real run's trace.

    The heat workload is transfer-bound, so the figure's quantity of
    interest is the fraction of *kernel* time that executes while a
    transfer is in flight (every such second is transfer latency hidden),
    plus the pipelining gain: end-to-end span versus the serial sum of
    engine busy times.
    """
    machine = machine if machine is not None else DEFAULT_MACHINE
    r = run_tida("heat", machine, shape=shape, steps=steps, n_regions=n_regions)
    overlap = r.trace.overlap_fraction(["compute"], ["h2d", "d2h"])
    serial = sum(r.trace.busy_time(lane) for lane in ("h2d", "compute", "d2h"))
    table = Table(
        title=f"Figure 3: transfer/compute overlap, heat {shape}, {n_regions} regions",
        columns=["lane", "busy_seconds"],
    )
    for lane in ("h2d", "compute", "d2h"):
        table.add_row(lane, r.trace.busy_time(lane))
    table.add_row("end_to_end", r.elapsed)
    table.add_row("serial_sum", serial)
    table.add_row("compute_overlap_fraction", overlap)
    return TimelineResult(table=table, gantt=r.trace.gantt(width=100), overlap_fraction=overlap)


# ---------------------------------------------------------------------------
# Figure 4 — hybrid ghost update: CPU index work overlapping GPU kernels
# ---------------------------------------------------------------------------

def figure4(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (128, 128, 128),
    n_regions: int = 4,
) -> TimelineResult:
    """The §IV-B.6 ghost-update overlap, from the trace of one exchange.

    Two steps are run: the first leaves every region device-resident, so
    the second step's exchange takes the hybrid CPU/GPU path Fig. 4 shows.
    """
    machine = machine if machine is not None else DEFAULT_MACHINE
    r = run_tida("heat", machine, shape=shape, steps=2, n_regions=n_regions)
    ghost_events = [
        e for e in r.trace
        if e.name.startswith(("ghost-idx", "bc-idx", "ghost:", "bc-faces"))
    ]
    host_busy = sum(e.duration for e in ghost_events if e.lane == "host")
    gpu_busy = sum(e.duration for e in ghost_events if e.lane == "compute")
    if ghost_events:
        span = max(e.end for e in ghost_events) - min(e.start for e in ghost_events)
    else:
        span = 0.0
    table = Table(
        title=f"Figure 4: hybrid ghost update, heat {shape}, {n_regions} regions",
        columns=["quantity", "seconds"],
    )
    table.add_row("host index computation", host_busy)
    table.add_row("gpu ghost kernels", gpu_busy)
    table.add_row("exchange span", span)
    table.add_note("span < host + gpu time means the two overlapped (Fig. 4's point)")
    return TimelineResult(
        table=table,
        gantt=r.trace.gantt(width=100, lanes=["host", "compute", "h2d", "d2h"]),
        overlap_fraction=(host_busy + gpu_busy - span) / max(gpu_busy, 1e-30),
    )


# ---------------------------------------------------------------------------
# Figure 5 — heat speedups over CUDA-pageable vs iteration count
# ---------------------------------------------------------------------------

def figure5(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (512, 512, 512),
    iterations: tuple[int, ...] = (1, 10, 100, 1000),
    n_regions: int = 16,
) -> Table:
    """Speedup over CUDA-pageable: CUDA-pinned, OpenACC-pageable, TiDA-acc."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    table = Table(
        title=f"Figure 5: heat {shape} speedup over CUDA-pageable ({n_regions} regions)",
        columns=["iterations", "cuda-pinned", "openacc-pageable", "tida-acc"],
    )
    for steps in iterations:
        base = run_cuda_heat(machine, shape=shape, steps=steps, memory="pageable").elapsed
        pinned = run_cuda_heat(machine, shape=shape, steps=steps, memory="pinned").elapsed
        acc = run_acc_heat(machine, shape=shape, steps=steps, memory="pageable").elapsed
        tida = run_tida("heat", machine, shape=shape, steps=steps, n_regions=n_regions).elapsed
        table.add_row(steps, base / pinned, base / acc, base / tida)
    table.add_note("paper: TiDA-acc largest at few iterations; converges to CUDA; OpenACC lowest")
    return table


# ---------------------------------------------------------------------------
# Figure 6 — compute-intensive kernel execution times
# ---------------------------------------------------------------------------

def figure6(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (512, 512, 512),
    steps: int = 100,
    kernel_iteration: int = DEFAULT_KERNEL_ITERATION,
    n_regions: int = 16,
) -> Table:
    """Execution times of the five Fig. 6 implementations."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    table = Table(
        title=f"Figure 6: compute-intensive {shape}, {steps} steps",
        columns=["implementation", "seconds"],
    )
    table.add_row(
        "cuda",
        run_cuda_compute(machine, shape=shape, steps=steps, variant="pageable",
                         kernel_iteration=kernel_iteration).elapsed,
    )
    table.add_row(
        "cuda-pinned",
        run_cuda_compute(machine, shape=shape, steps=steps, variant="pinned",
                         kernel_iteration=kernel_iteration).elapsed,
    )
    table.add_row(
        "cuda-pinned-fastmath",
        run_cuda_compute(machine, shape=shape, steps=steps, variant="pinned-fastmath",
                         kernel_iteration=kernel_iteration).elapsed,
    )
    table.add_row(
        "openacc-pageable",
        run_acc_compute(machine, shape=shape, steps=steps, memory="pageable",
                        kernel_iteration=kernel_iteration).elapsed,
    )
    table.add_row(
        "tida-acc",
        run_tida("compute", machine, shape=shape, steps=steps, n_regions=n_regions,
                 kernel_iteration=kernel_iteration).elapsed,
    )
    table.add_note("paper: PGI-math builds (OpenACC, TiDA-acc) and fast-math beat CUDA libm")
    return table


# ---------------------------------------------------------------------------
# Figure 7 — limited-memory two-stream timeline
# ---------------------------------------------------------------------------

def figure7(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (512, 512, 512),
    steps: int = 2,
    n_regions: int = 16,
    kernel_iteration: int = DEFAULT_KERNEL_ITERATION,
) -> TimelineResult:
    """The Fig. 7 pipeline: two device slots, full transfer/compute overlap."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    region_bytes = _region_bytes(shape, n_regions)
    limit = 2 * region_bytes + region_bytes // 2
    r = run_tida(
        "compute", machine, shape=shape, steps=steps, n_regions=n_regions,
        kernel_iteration=kernel_iteration, device_memory_limit=limit,
    )
    overlap = r.trace.overlap_fraction(["h2d", "d2h"], ["compute"])
    table = Table(
        title=f"Figure 7: limited memory (2 slots), compute-intensive {shape}",
        columns=["lane", "busy_seconds"],
    )
    for lane in ("h2d", "compute", "d2h"):
        table.add_row(lane, r.trace.busy_time(lane))
    table.add_row("overlap_fraction", overlap)
    table.add_note("paper: transfers fully overlapped with computation (no performance loss)")
    return TimelineResult(table=table, gantt=r.trace.gantt(width=100), overlap_fraction=overlap)


# ---------------------------------------------------------------------------
# Figure 8 — limited memory vs full memory vs one region
# ---------------------------------------------------------------------------

def figure8(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (512, 512, 512),
    steps: int = 1000,
    n_regions: int = 16,
    kernel_iteration: int = DEFAULT_KERNEL_ITERATION,
) -> Table:
    """TiDA-acc, TiDA-acc with 2-region memory, and TiDA-acc single-region."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    region_bytes = _region_bytes(shape, n_regions)
    limit = 2 * region_bytes + region_bytes // 2
    full = run_tida("compute", machine, shape=shape, steps=steps, n_regions=n_regions,
                    kernel_iteration=kernel_iteration)
    limited = run_tida("compute", machine, shape=shape, steps=steps, n_regions=n_regions,
                       kernel_iteration=kernel_iteration, device_memory_limit=limit)
    one = run_tida("compute", machine, shape=shape, steps=steps, n_regions=1,
                   kernel_iteration=kernel_iteration)
    table = Table(
        title=f"Figure 8: compute-intensive {shape}, {steps} steps",
        columns=["configuration", "seconds", "n_slots"],
    )
    table.add_row("tida-acc", full.elapsed, full.meta["n_slots"])
    table.add_row("tida-acc limited memory", limited.elapsed, limited.meta["n_slots"])
    table.add_row("tida-acc 1 region", one.elapsed, one.meta["n_slots"])
    table.add_note("paper: all three almost identical; CUDA cannot run the limited case at all")
    return table


# ---------------------------------------------------------------------------
# Figure 8 variant — lookahead prefetch pipeline in the limited-memory regime
# ---------------------------------------------------------------------------

def figure8_prefetch(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (512, 512, 512),
    steps: int = 40,
    n_regions: int = 12,
    n_slots: int = 6,
    kernel_iteration: int = 1,
    prefetch_depth: int = 1,
) -> Table:
    """Fig. 8's limited-memory scenario, re-run with the associative slot
    cache and lookahead prefetching.

    The demand-paged baseline keeps the paper's fixed ``rid % n_slots``
    mapping (``eviction="modulo"``); the sweep is cyclic, so at 12
    regions over 6 slots every access is a conflict miss.  The lookahead
    (Belady-style) policy plus a ``prefetch_depth``-deep pipeline keeps
    next-needed regions resident and overlaps eviction write-backs (on
    the dedicated D2H queue) with replacement uploads.
    """
    machine = machine if machine is not None else DEFAULT_MACHINE
    region_bytes = _region_bytes(shape, n_regions)
    limit = n_slots * region_bytes + region_bytes // 2
    table = Table(
        title=f"Figure 8 (prefetch): compute-intensive {shape}, {steps} steps, "
              f"{n_regions} regions / {n_slots} slots",
        columns=["configuration", "seconds", "speedup", "h2d_uploads",
                 "prefetch_useful", "stall_s_avoided"],
    )
    configs = (
        ("demand modulo (paper)", dict(prefetch_depth=0, eviction="modulo")),
        ("demand lru", dict(prefetch_depth=0, eviction="lru")),
        (f"prefetch({prefetch_depth}) lookahead",
         dict(prefetch_depth=prefetch_depth, eviction="lookahead")),
    )
    base = None
    for label, kw in configs:
        r = run_tida("compute", machine, shape=shape, steps=steps, n_regions=n_regions,
                     kernel_iteration=kernel_iteration,
                     device_memory_limit=limit, **kw)
        counters = r.metrics["counters"]

        def total(prefix: str) -> float:
            return sum(v for k, v in counters.items() if k.startswith(prefix))

        base = base if base is not None else r.elapsed
        table.add_row(
            label,
            r.elapsed,
            base / r.elapsed,
            int(total("cache.misses.") + total("cache.prefetch_issued.")),
            int(total("cache.prefetch_useful.")),
            total("cache.stall_seconds_avoided."),
        )
    table.add_note("uploads = demand misses + speculative prefetches; "
                   "lookahead eviction cuts the cyclic sweep's conflict misses")
    table.add_note("acceptance: prefetch+lookahead >= 20% below the demand baseline")
    return table


# ---------------------------------------------------------------------------
# Figure 9 — resilience under injected faults (beyond the paper)
# ---------------------------------------------------------------------------

def figure9_resilience(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (256, 256, 256),
    steps: int = 10,
    n_regions: int = 16,
    fault_rates: tuple[float, ...] = (0.005, 0.02, 0.05),
    plan_spec: str | None = None,
    seed: int = 42,
    max_attempts: int = 5,
) -> Table:
    """The Fig. 5 heat configuration re-run under injected chaos.

    Each row arms a seeded :class:`~repro.faults.FaultPlan` that fails
    transfers with per-copy probability ``rate`` and launches with
    ``rate/2`` (ECC-style), recovered by same-slot re-issue with
    exponential backoff.  The interesting outputs are the *slowdown*
    (how much scheduling slack the overlap pipeline donates to recovery)
    and the transfer-overlap fraction, which should degrade gracefully
    rather than collapse.  ``plan_spec`` — the harness ``--faults`` knob
    — replaces the rate sweep with one explicit plan.
    """
    machine = machine if machine is not None else DEFAULT_MACHINE
    retry = RetryPolicy(max_attempts=max_attempts, jitter_seed=seed)
    table = Table(
        title=f"Figure 9: resilience, heat {shape}, {steps} steps, "
              f"{n_regions} regions",
        columns=["plan", "seconds", "slowdown", "injected", "retries",
                 "recovered", "transfer_overlap"],
    )
    plans: list[tuple[str, FaultPlan | None]] = [("fault-free", None)]
    if plan_spec is not None:
        plans.append(("spec", FaultPlan.from_spec(plan_spec)))
    else:
        for rate in fault_rates:
            plans.append((
                f"p={rate:g}",
                FaultPlan(
                    [FaultRule(op="copy", p=rate),
                     FaultRule(op="launch", p=rate / 2)],
                    seed=seed,
                ),
            ))
    base = None
    for label, plan in plans:
        r = run_tida("heat", machine, shape=shape, steps=steps, n_regions=n_regions,
                     faults=plan, retry=retry)
        counters = r.metrics["counters"]
        base = base if base is not None else r.elapsed
        lanes = r.trace.lanes()
        transfer = [l for l in lanes
                    if any(e.category in ("h2d", "d2h") for e in r.trace.by_lane(l))]
        compute = [l for l in lanes
                   if any(e.category == "kernel" for e in r.trace.by_lane(l))]
        table.add_row(
            label,
            r.elapsed,
            r.elapsed / base,
            int(counters.get("faults.injected", 0.0)),
            int(counters.get("faults.retries", 0.0)),
            int(counters.get("faults.recovered", 0.0)),
            r.trace.overlap_fraction(transfer, compute),
        )
    table.add_note("every faulted run completes with correct host data "
                   "(byte-identical to fault-free in functional mode)")
    table.add_note("acceptance: recovered tracks injected; overlap degrades "
                   "gracefully instead of collapsing")
    return table


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def ablation_region_count(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (512, 512, 512),
    steps: int = 10,
    candidates: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
) -> Table:
    """A1: measured + modelled time vs region count (paper picked 16)."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    kernel = heat_kernel(len(shape))
    measured = sweep_region_counts(
        machine, kernel=kernel, domain_cells=_cells(shape), steps=steps,
        candidates=candidates, strategy="measure",
        measure_fn=lambda n: run_tida("heat", machine, shape=shape, steps=steps, n_regions=n).elapsed,
    )
    modelled = sweep_region_counts(
        machine, kernel=kernel, domain_cells=_cells(shape), steps=steps,
        candidates=candidates, strategy="model", resident=True,
        fields=2, result_fields=1, ghost_width=1,
    )
    table = Table(
        title=f"Ablation A1: region-count sweep, heat {shape}, {steps} steps",
        columns=["n_regions", "measured_s", "model_s"],
    )
    for m, p in zip(measured, modelled):
        table.add_row(m.n_regions, m.seconds, p.seconds)
    return table


def ablation_prefetch_depth(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (256, 256, 256),
    steps: int = 20,
    n_regions: int = 12,
    n_slots: int = 6,
    kernel_iteration: int = 1,
    candidates: tuple[int, ...] = (0, 1, 2, 4),
) -> Table:
    """A7: measured time vs lookahead prefetch depth (depth 0 = demand).

    Deeper is not better: each extra speculative upload must displace a
    slot, so past the point where transfers hide behind compute the
    pipeline only pays for more eviction write-backs.
    """
    machine = machine if machine is not None else DEFAULT_MACHINE
    region_bytes = _region_bytes(shape, n_regions)
    limit = n_slots * region_bytes + region_bytes // 2
    sweep = sweep_prefetch_depth(
        candidates=candidates,
        measure_fn=lambda depth: run_tida(
            "compute", machine, shape=shape, steps=steps, n_regions=n_regions,
            kernel_iteration=kernel_iteration, device_memory_limit=limit,
            prefetch_depth=depth, eviction="lookahead",
        ).elapsed,
    )
    table = Table(
        title=f"Ablation A7: prefetch-depth sweep, compute-intensive {shape}, "
              f"{n_regions} regions / {n_slots} slots, {steps} steps",
        columns=["prefetch_depth", "seconds"],
    )
    for p in sweep:
        table.add_row(p.prefetch_depth, p.seconds)
    return table


def ablation_interconnect(
    machine_a: MachineSpec | None = None,
    machine_b: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (512, 512, 512),
    steps: int = 1,
    n_regions: int = 16,
) -> Table:
    """A2: PCIe Gen3 vs NVLink (paper intro: >=5x transfer speed)."""
    machine_a = machine_a if machine_a is not None else k40m_pcie3()
    machine_b = machine_b if machine_b is not None else k40m_pcie3().with_link(p100_nvlink().link)
    table = Table(
        title=f"Ablation A2: interconnect, heat {shape}, {steps} step(s)",
        columns=["interconnect", "cuda-pinned_s", "tida-acc_s"],
    )
    for label, m in ((machine_a.link.name, machine_a), (machine_b.link.name, machine_b)):
        cuda = run_cuda_heat(m, shape=shape, steps=steps, memory="pinned").elapsed
        tida = run_tida("heat", m, shape=shape, steps=steps, n_regions=n_regions).elapsed
        table.add_row(label, cuda, tida)
    table.add_note("a faster link shrinks TiDA-acc's advantage on transfer-bound runs")
    return table


def ablation_model_accuracy(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (512, 512, 512),
    n_regions: int = 16,
    kernel_iteration: int = DEFAULT_KERNEL_ITERATION,
) -> Table:
    """A3: analytic model vs simulator for resident and streaming runs."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    cells = _cells(shape)
    table = Table(
        title="Ablation A3: analytic model vs simulator",
        columns=["scenario", "model_s", "simulated_s", "ratio"],
    )
    ck = compute_intensive_kernel(kernel_iteration)

    sim = run_tida("compute", machine, shape=shape, steps=10, n_regions=n_regions,
                   kernel_iteration=kernel_iteration).elapsed
    mod = estimate_resident(machine, ck, domain_cells=cells, steps=10,
                            n_regions=n_regions).total
    table.add_row("compute-intensive resident (10 steps)", mod, sim, mod / sim)

    region_bytes = _region_bytes(shape, n_regions)
    limit = 2 * region_bytes + region_bytes // 2
    sim = run_tida("compute", machine, shape=shape, steps=10, n_regions=n_regions,
                   kernel_iteration=kernel_iteration,
                   device_memory_limit=limit).elapsed
    mod = estimate_streaming(machine, ck, domain_cells=cells, steps=10,
                             n_regions=n_regions).total
    table.add_row("compute-intensive streaming (10 steps)", mod, sim, mod / sim)

    hk = heat_kernel(len(shape))
    sim = run_tida("heat", machine, shape=shape, steps=10, n_regions=n_regions).elapsed
    mod = estimate_resident(machine, hk, domain_cells=cells, steps=10,
                            n_regions=n_regions, fields=2, result_fields=1,
                            ghost_width=1).total
    table.add_row("heat resident (10 steps)", mod, sim, mod / sim)
    return table


def ablation_cpu_tile_size(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (256, 256, 256),
    steps: int = 5,
    n_regions: int = 2,
) -> Table:
    """A6: TiDA's original multicore claim (§IV-A) — CPU tiles sized to the
    last-level cache beat region-sized loops by keeping stencil reuse
    resident.  Pure CPU execution (gpu=False)."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    table = Table(
        title=f"Ablation A6: CPU tile size, heat {shape}, {steps} steps (gpu=False)",
        columns=["tile_shape", "working_set_MiB", "seconds"],
    )
    slab = shape[0] // n_regions
    # two fields of doubles per tile cell
    candidates: list[tuple[int, ...] | None] = [
        None,                                 # tile == region (way over LLC)
        (slab, shape[1], max(1, shape[2] // 8)),
        (max(1, slab // 8), shape[1], max(1, shape[2] // 8)),  # cache-sized
    ]
    for tile_shape in candidates:
        if tile_shape is None:
            cells = slab * shape[1] * shape[2]
        else:
            cells = 1
            for s in tile_shape:
                cells *= s
        ws = cells * 8 * 2 / MiB
        r = run_tida("heat", machine, shape=shape, steps=steps, n_regions=n_regions,
                     tile_shape=tile_shape, gpu=False)
        table.add_row("region" if tile_shape is None else str(tile_shape), ws, r.elapsed)
    table.add_note("paper §IV-A: pick tile size for cache reuse (CPU), region size for parallelism")
    return table


def ablation_tile_size(
    machine: MachineSpec | None = None,
    *,
    shape: tuple[int, ...] = (256, 256, 256),
    steps: int = 10,
    n_regions: int = 8,
) -> Table:
    """A4: §V's advice — on GPU, tiles smaller than a region only add launches."""
    machine = machine if machine is not None else DEFAULT_MACHINE
    slab = shape[0] // n_regions
    table = Table(
        title=f"Ablation A4: tile size, heat {shape}, {n_regions} regions, {steps} steps",
        columns=["tile_shape", "seconds", "kernel_launches"],
    )
    for tile_shape in (None, (slab, shape[1], shape[2] // 2), (slab, shape[1] // 2, shape[2] // 2)):
        r = run_tida("heat", machine, shape=shape, steps=steps, n_regions=n_regions,
                     tile_shape=tile_shape)
        launches = len([e for e in r.trace if e.category == "kernel"])
        table.add_row("region" if tile_shape is None else str(tile_shape), r.elapsed, launches)
    table.add_note("paper §V: tile size == region size recommended for GPU execution")
    return table
