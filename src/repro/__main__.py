"""Command-line entry point: ``python -m repro <subcommand>``.

Subcommands:

* ``bench [--quick] [--out DIR] [--metrics-out FILE] [--faults SPEC]
  [--check]`` — run every paper experiment (delegates to
  :func:`repro.bench.harness.run_all`);
* ``gate {prefetch,plan,simspeed,service,slo,live,critpath} [--quick]
  [--out DIR]`` — run one CI bench gate, write ``DIR/BENCH_<name>.json``
  and compare it with the committed ``BENCH_<name>.json`` (exit 0 ok,
  1 conformance failure, 2 floor miss or baseline regression; see
  :mod:`repro.bench.gate`);
* ``kernels`` — list the registered workload kernels;
* ``machine`` — print the default simulated testbed's calibration;
* ``trace [--steps N] [--shape X Y Z] [--memory-limit B] [--out FILE]``
  — run a small TiDA-acc heat solve and dump a run manifest: its
  operation trace in Chrome/Perfetto format (with counter tracks and
  decision marks) plus the runtime metrics snapshot.  Inspect with
  ``python -m repro.obs.report FILE``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    critpath_bench,
    live,
    plan_bench,
    prefetch_bench,
    service_bench,
    simspeed,
    slo_bench,
)
from .bench.gate import finish
from .bench.harness import run_all
from .config import DEFAULT_MACHINE
from .kernels.registry import KERNELS

#: Every CI bench gate, by ``python -m repro gate`` name.
GATES = {
    "prefetch": prefetch_bench.run,
    "plan": plan_bench.run,
    "simspeed": simspeed.run,
    "service": service_bench.run,
    "slo": slo_bench.run,
    "live": live.run,
    "critpath": critpath_bench.run,
}


def _cmd_bench(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_all(
        out,
        quick=args.quick,
        metrics_out=Path(args.metrics_out) if args.metrics_out else None,
        faults_spec=args.faults,
        check=args.check,
    )
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    return finish(args.name, GATES[args.name](out, quick=args.quick), out)


def _cmd_kernels(_args: argparse.Namespace) -> int:
    for name, factory in sorted(KERNELS.items()):
        spec = factory()
        print(f"{name:20s} bytes/cell={spec.bytes_per_cell:<6g} "
              f"flops/cell={spec.flops_per_cell:<6g} "
              f"sfu/cell={spec.sin_per_cell + spec.cos_per_cell + spec.sqrt_per_cell:g}")
    return 0


def _cmd_machine(_args: argparse.Namespace) -> int:
    m = DEFAULT_MACHINE
    print(f"machine      : {m.name}")
    print(f"cpu          : {m.cpu.name}  {m.cpu.dp_flops/1e9:.0f} GF DP, "
          f"{m.cpu.mem_bandwidth/1e9:.0f} GB/s")
    print(f"gpu          : {m.gpu.name}  {m.gpu.dp_flops/1e12:.2f} TF DP, "
          f"{m.gpu.mem_bandwidth/1e9:.0f} GB/s, "
          f"{m.gpu.memory_bytes/2**30:.0f} GiB "
          f"({m.gpu.allocatable_bytes/2**30:.1f} allocatable)")
    print(f"link         : {m.link.name}  H2D {m.link.h2d_bandwidth/1e9:.1f} GB/s, "
          f"D2H {m.link.d2h_bandwidth/1e9:.1f} GB/s, "
          f"pageable x{m.link.pageable_bandwidth_factor}")
    print(f"math codegen : {m.math.name}  sin={m.math.sin_cost:g} "
          f"cos={m.math.cos_cost:g} sqrt={m.math.sqrt_cost:g} flop-equivalents")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .baselines.tida_runners import run_tida

    n_slots = None
    if args.memory_limit is not None:
        # the heat solve holds two ghosted fields whose slot buffers share
        # the capped device pool; TileAcc sizes each field's slots from
        # *free* memory alone, so split the budget here or the second
        # field's lazy allocations blow past the cap
        import math

        shape = tuple(args.shape)
        slab = math.ceil(shape[0] / args.regions)
        region_bytes = 8 * (slab + 2) * (shape[1] + 2) * (shape[2] + 2)
        n_slots = args.memory_limit // region_bytes // 2
        if n_slots < 1:
            print(f"error: --memory-limit {args.memory_limit} cannot hold one "
                  f"{region_bytes}-byte region slot per field (needs >= "
                  f"{2 * region_bytes})", file=sys.stderr)
            return 2
    r = run_tida(
        "heat", shape=tuple(args.shape), steps=args.steps, n_regions=args.regions,
        device_memory_limit=args.memory_limit, n_slots=n_slots,
        check="observe",
    )
    # a run manifest: Chrome/Perfetto traceEvents (with counter tracks and
    # decision marks), the runtime metrics snapshot, and the causal DAG
    # the observing hazard checker recorded (obs.report --critpath input)
    from .check.dag import dag_to_json

    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "schema": "repro-run-manifest/1",
        "traceEvents": r.trace.to_chrome_trace(),
        "metrics": r.metrics,
        "dag": dag_to_json(r.dag or ()),
    }))
    n_tracks = len(r.trace.counter_tracks)
    print(f"{len(r.trace)} events + {n_tracks} counter tracks + "
          f"{len(r.dag or ())} DAG nodes from a "
          f"{args.steps}-step heat solve -> {path}")
    print("open https://ui.perfetto.dev (or chrome://tracing) and load the file,")
    print(f"or: python -m repro.obs.report {path} --critpath")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run every paper experiment")
    p_bench.add_argument("--quick", action="store_true")
    p_bench.add_argument("--out", default="results")
    p_bench.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="also dump a run manifest of merged runtime metrics "
             "(readable by python -m repro.obs.report)",
    )
    p_bench.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-plan spec for the resilience figure, e.g. "
             "'h2d:p=0.02; launch:p=0.01; seed=7' "
             "(default: sweep built-in fault rates)",
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="run every experiment under the strict hazard checker "
             "(racy device-buffer accesses abort the run; see repro.check)",
    )
    p_bench.set_defaults(fn=_cmd_bench)

    p_gate = sub.add_parser(
        "gate", help="run one CI bench gate against its committed baseline"
    )
    p_gate.add_argument("name", choices=sorted(GATES))
    p_gate.add_argument("--quick", action="store_true",
                        help="CI mode: fewer solo/blame differential checks "
                             "(service, slo); gated counters are unchanged")
    p_gate.add_argument("--out", default="results",
                        help="directory for BENCH_<name>.json and side files "
                             "('.' regenerates the committed baseline)")
    p_gate.set_defaults(fn=_cmd_gate)

    p_kernels = sub.add_parser("kernels", help="list workload kernels")
    p_kernels.set_defaults(fn=_cmd_kernels)

    p_machine = sub.add_parser("machine", help="print the simulated testbed")
    p_machine.set_defaults(fn=_cmd_machine)

    p_trace = sub.add_parser(
        "trace", help="dump a run manifest (Chrome trace + metrics) of a heat solve"
    )
    p_trace.add_argument("--steps", type=int, default=3)
    p_trace.add_argument("--shape", type=int, nargs=3, default=[128, 128, 128])
    p_trace.add_argument("--regions", type=int, default=8)
    p_trace.add_argument("--memory-limit", type=int, default=None,
                         help="device memory cap in bytes (Figs. 7/8 mode)")
    p_trace.add_argument("--out", default="results/heat_trace.json")
    p_trace.set_defaults(fn=_cmd_trace)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
