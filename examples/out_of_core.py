#!/usr/bin/env python
"""Out-of-core GPU execution: the paper's limited-memory contribution (§VI-C).

Caps device memory so only two regions fit (like Figs. 7/8), runs the
compute-intensive kernel, and shows that streaming regions through two
slots costs essentially nothing: the kernel pipeline hides every byte of
traffic.  Also prints the two-stream ASCII timeline that mirrors Fig. 7,
and demonstrates that plain CUDA simply cannot allocate the problem.

Run:  python examples/out_of_core.py [--size 512] [--regions 16] [--steps 20]
"""

import argparse

from repro.baselines import run_cuda_compute, run_tida
from repro.config import k40m_pcie3
from repro.errors import CudaMemoryAllocationError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--regions", type=int, default=16)
    parser.add_argument("--steps", type=int, default=20)
    args = parser.parse_args()

    shape = (args.size,) * 3
    region_bytes = (args.size ** 3 * 8) // args.regions
    limit = 2 * region_bytes + region_bytes // 2
    total_gb = args.size ** 3 * 8 / 1e9

    print(f"problem: {total_gb:.1f} GB of data, device limited to {limit / 1e9:.2f} GB "
          f"(two of {args.regions} regions)\n")

    print("1. plain CUDA on the limited device:")
    try:
        run_cuda_compute(k40m_pcie3().with_gpu_memory(limit, reserved_bytes=0),
                         shape=shape, steps=1, variant="pinned")
        raise SystemExit("unexpectedly succeeded")
    except CudaMemoryAllocationError as exc:
        print(f"   cudaMalloc failed as expected: {exc}\n")

    print("2. TiDA-acc with full device memory:")
    full = run_tida("compute", shape=shape, steps=args.steps, n_regions=args.regions)
    print(f"   {full.elapsed:.3f}s  ({full.meta['n_slots']} slots)\n")

    print("3. TiDA-acc on the limited device (regions streamed through 2 slots):")
    limited = run_tida("compute", shape=shape, steps=args.steps, n_regions=args.regions,
                       device_memory_limit=limit)
    overlap = limited.trace.overlap_fraction(["h2d", "d2h"], ["compute"])
    print(f"   {limited.elapsed:.3f}s  ({limited.meta['n_slots']} slots), "
          f"{overlap * 100:.1f}% of transfer time hidden")
    print(f"   overhead vs full memory: "
          f"{(limited.elapsed / full.elapsed - 1) * 100:+.2f}%\n")

    print("Fig. 7-style timeline (first two steps):")
    t_cut = limited.trace.events[0].start + 2 * limited.elapsed / args.steps
    early = limited.trace.filter(lambda e: e.end <= t_cut)
    from repro.sim.trace import Trace
    sub = Trace()
    for e in early:
        sub.add(e)
    print(sub.gantt(width=110, lanes=["h2d", "compute", "d2h"]))


if __name__ == "__main__":
    main()
