"""Simulator-speed gate: ``python -m repro gate simspeed``.

Measures how fast the simulator itself runs — simulated device-ops per
wall-clock second — in the three execution modes (see DESIGN.md):

* **functional** — full numerics: every kernel body and copy moves real
  array data;
* **timing** — ``mode="timing"``: the same schedule with all array math
  and host/device copies skipped (byte-identical trace/DAG/metrics,
  asserted here before anything is timed);
* **replay** — no simulation at all: the recorded causal DAG rescheduled
  by :func:`~repro.obs.critpath.replay_machine`.

and how much those fast paths buy the two sweep surfaces that use them:

* the conformance matrix (``surrogate="replay"`` vs ``"full"``);
* machine autotuning (:func:`~repro.model.autotune.sweep_machines`,
  ``strategy="replay"`` vs ``"measure"``).

Exit codes: 1 when timing mode drifts from functional (trace, DAG,
counters, or elapsed differ on any workload), 2 when the timing-mode
speedup lands under its 25x floor or either sweep speedup under 10x.

The gated counters are wall-clock ratios, so they are *clamped* —
``min(measured, ceiling)`` with each ceiling at or above its floor — and
host noise above the ceiling never moves the committed numbers.  The
raw measurements live under the manifest's ungated ``"simspeed"`` key.
"""

from __future__ import annotations

import gc
import json
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable

from ..baselines.tida_runners import run_tida
from ..check.dag import dag_to_json
from ..check.explore import conformance_matrix
from ..config import DEFAULT_MACHINE, MachineSpec
from ..model.autotune import sweep_machines
from ..multi.heat import run_multi_gpu_heat
from .gate import GateResult

#: Clamp ceilings for the gated ratio counters.  Chosen below what a
#: healthy run measures (so the committed baseline sits exactly at the
#: ceiling, immune to machines faster than CI) and at or above the floors
#: the hard gate enforces.  Do not change without regenerating
#: BENCH_simspeed.json.
REPLAY_SPEEDUP_CEILING = 20.0
SWEEP_SPEEDUP_CEILING = 12.0
#: Timing mode skips all array math, so it must beat functional mode by
#: at least this factor (healthy runs measure ~100x); the gated counter
#: is clamped at the floor itself.
TIMING_SPEEDUP_FLOOR = 25.0
#: The tentpole acceptance bar: replay-surrogate sweeps must beat full
#: re-simulation by at least this factor.
SWEEP_SPEEDUP_FLOOR = 10.0

#: The fixed mode-throughput workload: limited-memory compute-intensive
#: (every step is the Fig. 7 eviction/upload/kernel pipeline, so the op
#: stream exercises both copy engines and the kernel path).
MODES_CONFIG = dict(
    shape=(144, 48, 48), steps=10, n_regions=12, n_slots=6,
    device_memory_limit=None,  # set from shape below
)

#: Small differential workloads: every one must be byte-identical
#: between functional and timing mode before any timing is trusted.
DRIFT_WORKLOADS: tuple[tuple[str, Callable[..., Any], dict[str, Any]], ...] = (
    ("heat", partial(run_tida, "heat"),
     dict(shape=(32, 16, 16), steps=2, n_regions=8)),
    ("wave", partial(run_tida, "wave"), dict(shape=(48, 48), steps=3, n_regions=8)),
    ("limited-memory", partial(run_tida, "compute"),
     dict(shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
          device_memory_limit=70_000)),
    ("multi-gpu", run_multi_gpu_heat,
     dict(shape=(32, 16, 16), steps=2, n_devices=2, regions_per_device=4)),
)


def _fingerprint(res: Any) -> tuple[str, str, str, float]:
    """Everything a timing-only run must reproduce bit-for-bit."""
    trace = json.dumps(res.trace.to_chrome_trace(), sort_keys=True)
    dag = json.dumps(dag_to_json(res.dag or []), sort_keys=True)
    metrics = res.metrics or {}
    counters = json.dumps(metrics.get("counters", metrics), sort_keys=True)
    return trace, dag, counters, float(res.elapsed)


def drift_check(workloads=DRIFT_WORKLOADS) -> list[str]:
    """Functional vs timing differential; returns drift descriptions."""
    failures: list[str] = []
    for name, fn, kw in workloads:
        fp = {}
        for mode in ("functional", "timing"):
            res = fn(functional=(mode == "functional"), mode=mode,
                     check="observe", **kw)
            fp[mode] = _fingerprint(res)
        for part, a, b in zip(
            ("trace", "dag", "counters", "elapsed"),
            fp["functional"], fp["timing"],
        ):
            if a != b:
                failures.append(f"{name}: {part} differs between modes")
    return failures


def measure_modes(config: dict[str, Any] | None = None) -> dict[str, float]:
    """Wall-time one workload in each mode; simulated device-ops/sec."""
    from ..obs.critpath import replay_machine

    kw = dict(MODES_CONFIG if config is None else config)
    kw.pop("device_memory_limit", None)
    # limit device memory so only half the regions fit: the op stream
    # then carries eviction write-backs as well as uploads and kernels
    import math

    cells = math.prod(kw["shape"])
    region_bytes = 8 * cells // kw["n_regions"]
    machine = DEFAULT_MACHINE
    wall: dict[str, float] = {}
    dag = None
    for mode in ("functional", "timing"):
        t0 = time.perf_counter()
        res = run_tida(
            "compute", machine, functional=(mode == "functional"), mode=mode,
            check="observe",
            device_memory_limit=(kw["n_slots"] * region_bytes + 4096),
            **kw,
        )
        wall[mode] = time.perf_counter() - t0
        dag = res.dag
    n_ops = len(dag)
    t0 = time.perf_counter()
    replay_machine(dag, machine=machine, perturbed=machine)
    wall["replay"] = time.perf_counter() - t0
    out = {"device_ops": float(n_ops)}
    for mode, secs in wall.items():
        out[f"{mode}_wall_s"] = secs
        out[f"{mode}_ops_per_s"] = n_ops / secs if secs > 0 else float("inf")
    out["timing_speedup"] = wall["functional"] / wall["timing"]
    out["replay_speedup"] = wall["functional"] / wall["replay"]
    return out


def measure_conformance_sweep(
    *,
    timing_seeds=tuple(range(32)),
    **kwargs: Any,
) -> dict[str, float]:
    """Wall-time the conformance matrix, full vs replay surrogate."""
    kw = dict(
        evictions=("lru", "lookahead"), prefetch_depths=(1,),
        order_seeds=(None,), timing_seeds=timing_seeds,
        shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
        device_memory_limit=70_000,
    )
    kw.update(kwargs)
    wall: dict[str, float] = {}
    reports = {}
    for surrogate in ("full", "replay"):
        t0 = time.perf_counter()
        reports[surrogate] = conformance_matrix(
            "compute", surrogate=surrogate, **kw
        )
        wall[surrogate] = time.perf_counter() - t0
    if not all(r.ok for r in reports.values()):
        raise AssertionError(
            "conformance failed during simspeed measurement: "
            f"{[f for r in reports.values() for f in r.failures()]}"
        )
    legs = len(reports["full"].runs)
    return {
        "legs": float(legs),
        "full_wall_s": wall["full"],
        "replay_wall_s": wall["replay"],
        "speedup": wall["full"] / wall["replay"],
    }


def measure_machine_sweep(n_candidates: int = 96) -> dict[str, float]:
    """Wall-time a machine autotune sweep, measure vs replay strategy."""
    from ..check.explore import perturb_machine

    base = DEFAULT_MACHINE
    candidates: list[MachineSpec] = [base] + [
        perturb_machine(base, seed) for seed in range(1, n_candidates)
    ]

    def measure(machine: MachineSpec):
        return run_tida(
            "compute", machine, check="observe",
            shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
            device_memory_limit=70_000,
        )

    wall: dict[str, float] = {}
    for strategy in ("measure", "replay"):
        # each side takes only tens of ms: a full collection of garbage
        # left by earlier work would land in one side and swamp the ratio
        gc.collect()
        t0 = time.perf_counter()
        sweep_machines(candidates, measure_result_fn=measure,
                       strategy=strategy, base=base)
        wall[strategy] = time.perf_counter() - t0
    return {
        "candidates": float(len(candidates)),
        "measure_wall_s": wall["measure"],
        "replay_wall_s": wall["replay"],
        "speedup": wall["measure"] / wall["replay"],
    }


def run(out_dir: Path, *, quick: bool = False) -> GateResult:
    failures = drift_check()
    if failures:
        return GateResult(failures=failures)
    print("drift check: functional and timing runs byte-identical "
          f"on {len(DRIFT_WORKLOADS)} workloads")

    modes = measure_modes()
    print(f"device ops:            {modes['device_ops']:.0f}")
    for mode in ("functional", "timing", "replay"):
        print(f"{mode:<10} {modes[f'{mode}_wall_s']*1e3:9.1f} ms   "
              f"{modes[f'{mode}_ops_per_s']:12.0f} ops/s")
    print(f"timing speedup:        {modes['timing_speedup']:.2f}x")
    print(f"replay speedup:        {modes['replay_speedup']:.2f}x")

    conf = measure_conformance_sweep()
    print(f"conformance sweep:     {conf['legs']:.0f} legs, "
          f"full {conf['full_wall_s']:.2f} s vs replay "
          f"{conf['replay_wall_s']:.2f} s -> {conf['speedup']:.1f}x")
    mach = measure_machine_sweep()
    print(f"machine sweep:         {mach['candidates']:.0f} candidates, "
          f"measure {mach['measure_wall_s']:.2f} s vs replay "
          f"{mach['replay_wall_s']:.2f} s -> {mach['speedup']:.1f}x")

    gated = {
        "bench.simspeed.timing_speedup":
            min(modes["timing_speedup"], TIMING_SPEEDUP_FLOOR),
        "bench.simspeed.replay_speedup":
            min(modes["replay_speedup"], REPLAY_SPEEDUP_CEILING),
        "bench.simspeed.conformance_sweep_speedup":
            min(conf["speedup"], SWEEP_SPEEDUP_CEILING),
        "bench.simspeed.machine_sweep_speedup":
            min(mach["speedup"], SWEEP_SPEEDUP_CEILING),
    }
    floors = (
        ("timing speedup", modes["timing_speedup"], TIMING_SPEEDUP_FLOOR),
        ("conformance sweep", conf["speedup"], SWEEP_SPEEDUP_FLOOR),
        ("machine sweep", mach["speedup"], SWEEP_SPEEDUP_FLOOR),
    )
    return GateResult(
        metrics={"counters": gated},
        raw={"simspeed": {"modes": modes, "conformance_sweep": conf,
                          "machine_sweep": mach}},
        misses=[f"{name} = {value:.1f}x < {floor:.0f}x"
                for name, value, floor in floors if value < floor],
    )
