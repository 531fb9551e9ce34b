"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload heat-ghost --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see README.md).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's provenance.  The exit
code is 0 when the run completed, whether or not its outputs were
correct, and 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashing is salted per process, which moves dict and set
        # costs from run to run; re-run this process with a fixed salt
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import layers
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {', '.join(wl.WORKLOADS)}")
    if args.trace:
        metrics, passes, shares = layers.layer_metrics(
            args.workload, args.seed, args.seconds)
        units = layers.LAYER_UNITS
    else:
        passes, shares = [wl.run(args.workload, args.seed, args.seconds)], None
        mem_mb = wl.peak_mem_mb()   # before the twin allocates its arrays
    solver = wl.SOLVERS.get(args.workload)
    if solver is not None:
        passes[0].attempted += wl.TWIN_STEPS
        if not wl.solver_twin_ok(solver, args.seed):
            passes[0].failed += wl.TWIN_STEPS
    if not args.trace:
        metrics = wl.end_to_end(passes[0], mem_mb)
        units = wl.END_TO_END_UNITS
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "rounds": [p.rounds for p in passes],
        "self_time_shares": shares,
    }}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
