"""Planner gate: ``python -m repro gate plan``.

The acceptance spine of the access-set-driven planner (see
:mod:`repro.plan`): for every workload the conformance matrix covers —
heat, wave, compute-intensive, variable-coefficient heat — the catalog
run (:func:`~repro.baselines.tida_runners.run_tida`) must be
**byte-identical** to the hand-built §V oracle
(:mod:`repro.baselines.hand_built`) on every eviction × prefetch ×
visit-order leg, with zero racy hazards, and the CG solver's
``halo="auto"`` decomposition must solve to the same bits as the
hand-pinned ghost width.  Timing-only runs must reproduce the functional
trace/DAG/counters bit-for-bit (the same contract
:mod:`repro.bench.simspeed` enforces).

On top of conformance, the planner has to *pay for itself*: the
variable-coefficient workload runs under memory pressure, where the
read-only proof on the coefficient field skips eviction write-backs and
the loop-invariant-halo proof elides refills.  The savings land as gated
counters:

* ``bench.plan.writebacks_skipped`` — device evictions of proven
  read-only regions that skipped the write-back copy;
* ``bench.plan.halo_bytes_saved`` — ghost-exchange bytes elided on
  proven-clean halos;
* ``bench.plan.fills_elided`` — whole boundary fills skipped.

All three are deterministic virtual-run counts, gated at their measured
values.  Exit codes: 1 when any conformance leg diverges (digest
mismatch, racy hazard, CG divergence, or timing drift), 2 when a savings
counter is not strictly positive.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from ..baselines.hand_built import run_hand_built
from ..baselines.tida_runners import run_tida
from ..check.explore import conformance_matrix
from .gate import GateResult

#: The gated savings counters (``bench.plan.<name>``), each with a hard
#: floor of "strictly positive".
SAVINGS = ("writebacks_skipped", "halo_bytes_saved", "fills_elided")

#: The conformance matrix legs swept on both sides of the differential.
MATRIX_AXES = dict(
    evictions=("lru", "lookahead"),
    prefetch_depths=(0, 2),
    order_seeds=(None, 1),
    timing_seeds=(0,),
)

#: Paired workloads: catalog matrix vs hand-built matrix, same knobs.
#: The coeff-heat pair runs under a device-memory limit so every
#: leg crosses the eviction/write-back paths the read-only proof elides.
CONFORMANCE_WORKLOADS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("heat", dict(shape=(32, 16, 16), steps=2, n_regions=8)),
    ("wave", dict(shape=(48, 48), steps=3, n_regions=8)),
    ("compute", dict(shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
                     device_memory_limit=70_000)),
    ("coeff-heat", dict(shape=(32, 16, 16), steps=3, n_regions=8, n_slots=2,
                        device_memory_limit=98_304)),
)

#: The savings measurement: variable-coefficient heat with room on the
#: device for only half the three-field footprint.
SAVINGS_CONFIG = dict(
    shape=(64, 32, 32), steps=6, n_regions=8, n_slots=2,
    device_memory_limit=(64 * 32 * 32 * 8) * 3 // 2,
    eviction="lru", functional=True, check="observe",
)


def conformance_check() -> tuple[list[str], dict[str, Any]]:
    """Hand-built vs planner-derived digests across the matrix."""
    failures: list[str] = []
    detail: dict[str, Any] = {}
    for name, kwargs in CONFORMANCE_WORKLOADS:
        hand = conformance_matrix(f"{name}-hand", **MATRIX_AXES, **kwargs)
        planned = conformance_matrix(name, **MATRIX_AXES, **kwargs)
        for side, report in (("hand", hand), ("planned", planned)):
            if not report.ok:
                failures.extend(f"{name}/{side}: {f}" for f in report.failures())
        if hand.digests != planned.digests:
            failures.append(
                f"{name}: planner-derived digest {sorted(planned.digests)} != "
                f"hand-built {sorted(hand.digests)}"
            )
        detail[name] = {
            "legs": len(hand.runs) + len(planned.runs),
            "matched": hand.digests == planned.digests,
            "racy": hand.racy + planned.racy,
        }
    return failures, detail


def cg_check(shape: tuple[int, ...] = (7, 6)) -> tuple[list[str], dict[str, Any]]:
    """``halo="auto"`` CG must solve to the same bits as a pinned halo."""
    from ..apps.cg import TiledCG

    rng = np.random.default_rng(11)
    b = rng.standard_normal(shape)
    results = {}
    for label, halo in (("auto", "auto"), ("pinned", 1)):
        solver = TiledCG(shape, n_regions=2, functional=True, halo=halo)
        results[label] = solver.solve(b, tol=1e-10, max_iterations=200)
    failures: list[str] = []
    auto, pinned = results["auto"], results["pinned"]
    if not (auto.converged and pinned.converged):
        failures.append("cg: solve did not converge")
    if auto.x.tobytes() != pinned.x.tobytes():
        failures.append('cg: halo="auto" solution differs from pinned halo=1')
    if auto.iterations != pinned.iterations:
        failures.append(
            f"cg: iteration counts differ (auto {auto.iterations}, "
            f"pinned {pinned.iterations})"
        )
    return failures, {
        "iterations": auto.iterations,
        "matched": not failures,
    }


def timing_drift_check() -> list[str]:
    """Planned functional vs timing runs must be byte-identical."""
    from .simspeed import _fingerprint

    workloads = (
        ("heat", dict(shape=(32, 16, 16), steps=2, n_regions=8, eviction=None)),
        ("coeff-heat", dict(shape=(32, 16, 16), steps=3, n_regions=8, n_slots=2,
                            device_memory_limit=98_304, eviction=None)),
    )
    failures: list[str] = []
    for name, kw in workloads:
        fp = {}
        for mode in ("functional", "timing"):
            res = run_tida(name, functional=(mode == "functional"), mode=mode,
                           check="observe", **kw)
            fp[mode] = _fingerprint(res)
        for part, a, b in zip(
            ("trace", "dag", "counters", "elapsed"),
            fp["functional"], fp["timing"],
        ):
            if a != b:
                failures.append(f"{name}: {part} differs between modes")
    return failures


def measure_savings(config: dict[str, Any] | None = None) -> dict[str, Any]:
    """Planned vs naive variable-coefficient heat under memory pressure."""
    kw = dict(SAVINGS_CONFIG if config is None else config)
    naive = run_hand_built("coeff-heat", **kw)
    planned = run_tida("coeff-heat", **kw)
    identical = naive.result.tobytes() == planned.result.tobytes()
    meta = planned.meta
    return {
        "byte_identical": identical,
        "writebacks_skipped": float(meta["writebacks_skipped"]),
        "halo_bytes_saved": float(meta["halo_bytes_saved"]),
        "fills_elided": float(meta["fills_elided"]),
        "fills": float(meta["fills"]),
        "naive_elapsed": float(naive.elapsed),
        "planned_elapsed": float(planned.elapsed),
        "ro_fields": list(meta["ro_fields"]),
        "loop_invariant_halos": list(meta["loop_invariant_halos"]),
    }


def run(out_dir: Path, *, quick: bool = False) -> GateResult:
    failures, conf = conformance_check()
    cg_failures, cg = cg_check()
    failures.extend(cg_failures)
    failures.extend(timing_drift_check())
    if failures:
        return GateResult(failures=failures)
    legs = sum(w["legs"] for w in conf.values())
    print(f"conformance: planner-derived byte-identical to hand-built on "
          f"{legs} legs across {len(conf)} workloads, zero racy hazards")
    print(f"cg: halo=\"auto\" matches pinned halo bit-for-bit "
          f"({cg['iterations']} iterations)")
    print("timing drift: planned functional and timing runs byte-identical")

    savings = measure_savings()
    if not savings["byte_identical"]:
        return GateResult(
            failures=["savings: planned coeff-heat diverged from naive baseline"])
    print(f"savings: writebacks_skipped={savings['writebacks_skipped']:.0f}  "
          f"halo_bytes_saved={savings['halo_bytes_saved']:.0f}  "
          f"fills_elided={savings['fills_elided']:.0f}/"
          f"{savings['fills_elided'] + savings['fills']:.0f} fills  "
          f"(ro: {', '.join(savings['ro_fields'])})")
    print(f"elapsed: naive {savings['naive_elapsed']*1e3:.3f} ms vs planned "
          f"{savings['planned_elapsed']*1e3:.3f} ms")

    return GateResult(
        metrics={"counters": {f"bench.plan.{n}": savings[n] for n in SAVINGS}},
        raw={"plan": {"conformance": conf, "cg": cg, "savings": savings}},
        misses=[f"{n} not strictly positive" for n in SAVINGS if savings[n] <= 0],
    )
