"""Critical-path gate: ``python -m repro gate critpath``.

Runs the pipelined Fig. 3 heat solve under the observing hazard checker
(fixed shape and steps regardless of ``--quick``, so the numbers are
comparable across runs — virtual time makes them deterministic) and
gates its flat ``critpath.*`` counters against ``BENCH_critpath.json``,
so critical-path composition, overlap efficiency, and predicted what-if
speedups form a ratcheted trend ledger.

It also writes ``critpath.json`` under ``--out DIR``: the full run
manifest (trace, causal DAG, critpath summary) that
``python -m repro.obs.report critpath.json --critpath`` renders.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..baselines.tida_runners import run_tida
from ..check.dag import dag_to_json
from ..obs.critpath import RunDag, critpath_metrics, critpath_summary
from .gate import SCHEMA, GateResult


def run(out_dir: Path, *, quick: bool = False) -> GateResult:
    r = run_tida("heat", shape=(128, 128, 128), n_regions=8, steps=3,
                 check="observe")
    marks = [m["ts"] for m in r.trace.marks if m["name"] == "iteration"]
    summary = critpath_summary(RunDag.from_nodes(r.dag or (), marks=marks))
    counters = critpath_metrics(summary)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "critpath.json"
    path.write_text(json.dumps({
        "schema": SCHEMA,
        "traceEvents": r.trace.to_chrome_trace(),
        "metrics": {"counters": counters},
        "dag": dag_to_json(r.dag or ()),
        "critpath": summary,
    }, indent=2))
    print(f"critical path: {counters['critpath.wall_s']*1e3:.3f} ms wall, "
          f"overlap efficiency {counters['critpath.overlap_efficiency']:.3f}; "
          f"wrote the full manifest to {path}")
    return GateResult(metrics={"counters": counters})
