#!/usr/bin/env python
"""Profile a pipelined heat solve: critical path, attribution, what-if.

Runs the 2-D heat solver under the observing hazard checker so the run
records its causal DAG, then prints the analyses of
``repro.obs.critpath``: which operations bound the end-to-end time, how
the wall time splits across kernel / H2D / D2H / ghost / write-back /
host-stall per field, how close each iteration came to the ideal
``max(compute, transfer)`` lower bound, and what a faster link or
faster kernels would buy — including the link speed where the
bottleneck flips to compute.

Run:  python examples/profile_run.py [--size 512] [--regions 8]
          [--steps 3] [--out run.json]

``--out`` additionally writes the full run manifest (trace + metrics +
DAG + critpath summary); inspect it later with
``python -m repro.obs.report run.json --critpath [--format json]``.
"""

import argparse
import json

from repro.baselines import run_tida
from repro.check.dag import dag_to_json
from repro.obs.critpath import RunDag, critpath_summary
from repro.obs.report import build_critpath_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=512, help="square grid edge")
    parser.add_argument("--regions", type=int, default=8, help="region count")
    parser.add_argument("--steps", type=int, default=3, help="time steps")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the run manifest there")
    args = parser.parse_args()

    r = run_tida(
        "heat", shape=(args.size, args.size), steps=args.steps,
        n_regions=args.regions, check="observe",
    )
    marks = [m["ts"] for m in r.trace.marks if m["name"] == "iteration"]
    dag = RunDag.from_nodes(r.dag or (), marks=marks)
    summary = critpath_summary(dag)
    manifest = {
        "schema": "repro-run-manifest/1",
        "traceEvents": r.trace.to_chrome_trace(),
        "metrics": r.metrics,
        "dag": dag_to_json(r.dag or ()),
        "critpath": summary,
    }
    for table in build_critpath_report(r.trace, manifest):
        print(table.format())
        print()
    if args.out is not None:
        with open(args.out, "w") as f:
            json.dump(manifest, f)
        print(f"wrote run manifest to {args.out}")
        print(f"inspect with: python -m repro.obs.report {args.out} --critpath")


if __name__ == "__main__":
    main()
