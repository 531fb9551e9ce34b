"""Run every experiment and write results (``python -m repro bench``).

Produces, under ``results/`` (or ``--out DIR``):

* one JSON file per figure/ablation;
* ``all_results.md`` — every table in markdown (the source for
  EXPERIMENTS.md's measured columns);
* ``fig3/fig4/fig7 .txt`` — the ASCII timelines.

``--quick`` shrinks problem sizes ~8x for a fast smoke run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..obs import metrics as obs_metrics
from . import figures
from .report import Table


def run_all(
    out_dir: Path,
    *,
    quick: bool = False,
    echo: bool = True,
    metrics_out: Path | None = None,
    faults_spec: str | None = None,
    check: bool = False,
) -> list[Table]:
    """Execute every experiment; returns the tables in paper order.

    ``metrics_out`` writes a run manifest (``{"metrics": ...}``) merging
    the counters of every runtime the experiments created — the input
    format of ``python -m repro.obs.report`` and its ``--compare`` gate.

    ``check=True`` arms the strict hazard checker on every runtime the
    experiments create (see :mod:`repro.check`): any racy device-buffer
    access raises :class:`~repro.errors.HazardError` on the spot, and a
    hazard summary is printed at the end — the CI conformance leg.

    ``check=True`` also runs the conformance-matrix leg
    (:func:`run_conformance_leg`) after the figures: the schedule sweep
    must stay byte-identical and race-free or the harness exits loudly.
    """
    if check:
        from ..check import set_default_mode

        set_default_mode("strict")
    if metrics_out is not None or check:
        obs_metrics.start_collection()
    try:
        tables = _run_figures(
            out_dir, quick=quick, echo=echo, metrics_out=metrics_out,
            faults_spec=faults_spec, check=check,
        )
    finally:
        if check:
            set_default_mode(None)
    if check:
        run_conformance_leg(out_dir, quick=quick, echo=echo)
    return tables


def run_conformance_leg(
    out_dir: Path, *, quick: bool = False, echo: bool = True
) -> Path:
    """The conformance-matrix leg: schedule sweeps over all workloads.

    Sweeps eviction policy × prefetch depth × visit order × timing seed
    for heat, compute-intensive, and wave with the replay surrogate
    (perturbed-seed legs are DAG replays of the base leg — see
    :func:`~repro.check.explore.conformance_matrix`), asserts
    byte-identity and zero racy hazards, and writes ``conformance.json``.

    Under ``--quick`` the shuffled-visit-order variants — the slowest
    functional legs: shuffling defeats the slot cache, so they re-upload
    and write back far more regions — run timing-only.  Their hazard
    stream is still fully checked; byte-identity is carried by the
    sequential legs.  Raises :class:`AssertionError` on any conformance
    failure, so a gating CI run cannot silently pass.
    """
    from ..check.explore import conformance_matrix

    timing_only = (
        (lambda v: v.get("order") == "shuffled") if quick else None
    )
    configs = {
        "heat": dict(shape=(48, 24, 24), steps=2, n_regions=8, n_slots=3,
                     device_memory_limit=310_000),
        "compute": dict(shape=(64, 16, 16), steps=2, n_regions=8, n_slots=3,
                        device_memory_limit=70_000),
        "wave": dict(shape=(48, 48), steps=3, n_regions=8),
    }
    summary: dict[str, dict] = {}
    failures: list[str] = []
    for workload, kw in configs.items():
        report = conformance_matrix(
            workload, surrogate="replay", timing_only=timing_only,
            timing_seeds=(0, 1, 2), **kw,
        )
        summary[workload] = {
            "legs": len(report.runs),
            "digests": len(report.digests),
            "racy": report.racy,
            "ok": report.ok,
            "failures": report.failures(),
        }
        failures.extend(f"{workload}: {f}" for f in report.failures())
        if echo:
            verdict = "ok" if report.ok else "FAIL"
            print(f"conformance {workload:<8} {len(report.runs):3d} legs, "
                  f"{len(report.digests)} digest(s), {report.racy} racy "
                  f"-> {verdict}")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "conformance.json"
    path.write_text(json.dumps(summary, indent=2))
    if echo:
        print(f"wrote conformance summary to {path}")
    if failures:
        raise AssertionError(
            "conformance sweep failed: " + "; ".join(failures)
        )
    return path


def _run_figures(
    out_dir: Path,
    *,
    quick: bool,
    echo: bool,
    metrics_out: Path | None,
    faults_spec: str | None,
    check: bool,
) -> list[Table]:
    shape3 = (128, 128, 128) if quick else (512, 512, 512)
    shape_f1 = (96, 96, 96) if quick else (384, 384, 384)
    steps_f1 = 10 if quick else 100
    steps_f6 = 10 if quick else 100
    steps_f8 = 50 if quick else 1000
    iters_f5 = (1, 10, 100) if quick else (1, 10, 100, 1000)

    tables: list[Table] = []

    def emit(table: Table, stem: str, gantt: str | None = None) -> None:
        tables.append(table)
        table.save_json(out_dir / f"{stem}.json")
        if gantt is not None:
            (out_dir / f"{stem}.txt").write_text(gantt)
        if echo:
            print()
            print(table.format())
            if gantt is not None:
                print(gantt)

    t0 = time.time()
    emit(figures.figure1(shape=shape_f1, steps=steps_f1), "fig1")
    r3 = figures.figure3(shape=(128,) * 3 if quick else (256,) * 3)
    emit(r3.table, "fig3", r3.gantt)
    r4 = figures.figure4(shape=(64,) * 3 if quick else (128,) * 3)
    emit(r4.table, "fig4", r4.gantt)
    emit(figures.figure5(shape=shape3, iterations=iters_f5), "fig5")
    emit(figures.figure6(shape=shape3, steps=steps_f6), "fig6")
    r7 = figures.figure7(shape=shape3)
    emit(r7.table, "fig7", r7.gantt)
    emit(figures.figure8(shape=shape3, steps=steps_f8), "fig8")
    emit(figures.figure8_prefetch(shape=shape3, steps=20 if quick else 40), "fig8_prefetch")
    emit(figures.figure9_resilience(shape=(96,) * 3 if quick else (256,) * 3,
                                    steps=5 if quick else 10,
                                    plan_spec=faults_spec), "fig9_resilience")
    emit(figures.ablation_region_count(shape=shape3, steps=5 if quick else 10), "ablation_a1")
    emit(figures.ablation_interconnect(shape=shape3), "ablation_a2")
    emit(figures.ablation_model_accuracy(shape=shape3), "ablation_a3")
    emit(figures.ablation_tile_size(shape=(128,) * 3 if quick else (256,) * 3), "ablation_a4")
    emit(figures.ablation_cpu_tile_size(shape=(128,) * 3 if quick else (256,) * 3,
                                        steps=2 if quick else 5), "ablation_a6")
    emit(figures.ablation_prefetch_depth(shape=(128,) * 3 if quick else (256,) * 3,
                                         steps=10 if quick else 20), "ablation_a7")
    from ..multi import run_multi_gpu_heat

    a5 = Table(
        title="Ablation A5: multi-GPU strong scaling, heat "
              f"{(128,) * 3 if quick else (512,) * 3}, {10 if quick else 100} steps",
        columns=["n_devices", "seconds", "speedup", "efficiency"],
    )
    base = None
    for nd in (1, 2, 4):
        r = run_multi_gpu_heat(shape=(128,) * 3 if quick else (512,) * 3,
                               steps=10 if quick else 100, n_devices=nd,
                               regions_per_device=8)
        base = base if base is not None else r.elapsed
        a5.add_row(nd, r.elapsed, base / r.elapsed, base / r.elapsed / nd)
    emit(a5, "ablation_a5")

    md = "\n\n".join(t.to_markdown() for t in tables)
    (out_dir / "all_results.md").write_text(md + "\n")
    if metrics_out is not None or check:
        snapshot = obs_metrics.collect()
        if metrics_out is not None:
            metrics_out.parent.mkdir(parents=True, exist_ok=True)
            metrics_out.write_text(json.dumps(
                {"schema": "repro-run-manifest/1", "metrics": snapshot}, indent=2
            ))
            if echo:
                n = len(snapshot["counters"])
                print(f"wrote {n} merged counters to {metrics_out}")
        if check:
            counters = snapshot["counters"]
            ops = int(counters.get("check.ops", 0))
            racy = int(counters.get("check.hazards.racy", 0))
            luck = int(counters.get("check.hazards.fifo_luck", 0))
            print(
                f"\nstrict hazard check: {ops} device ops, "
                f"{racy} racy, {luck} fifo-luck warning(s)"
            )
    if echo:
        print(f"\nwrote {len(tables)} tables to {out_dir} in {time.time() - t0:.1f}s")
    return tables
