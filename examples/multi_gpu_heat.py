#!/usr/bin/env python
"""Multi-GPU heat solver: TiDA-acc per device + peer-to-peer halos.

Extends the paper toward its §VII related work (XACC, dCUDA): the domain
is slab-decomposed across N simulated GPUs, each running the ordinary
TiDA-acc pipeline over its slab, with inter-device halos moving as
pack-kernel → cudaMemcpyPeerAsync → unpack-kernel chains.  Prints the
strong-scaling table and verifies numerics against the single-GPU run.

Run:  python examples/multi_gpu_heat.py [--size 512] [--steps 100]
"""

import argparse

import numpy as np

from repro.baselines import run_tida
from repro.baselines.common import default_init, reference_heat
from repro.bench.report import Table
from repro.multi import run_multi_gpu_heat
from repro.tida.boundary import Neumann


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--steps", type=int, default=100)
    args = parser.parse_args()

    # correctness first, at a small functional size
    shape_small = (16, 8, 8)
    init = default_init(shape_small, 1)
    ref = reference_heat(init, 4, coef=0.1, bc=Neumann(), ghost=1)
    r = run_multi_gpu_heat(shape=shape_small, steps=4, n_devices=4,
                           regions_per_device=2, functional=True,
                           initial=init[1:-1, 1:-1, 1:-1].copy())
    assert np.allclose(r.result, ref), "multi-GPU result diverged!"
    print("numerics: 4-GPU run matches the numpy reference\n")

    shape = (args.size,) * 3
    table = Table(
        title=f"strong scaling, heat {shape}, {args.steps} steps",
        columns=["gpus", "seconds", "speedup", "efficiency"],
    )
    base = None
    for nd in (1, 2, 4, 8):
        res = run_multi_gpu_heat(shape=shape, steps=args.steps, n_devices=nd,
                                 regions_per_device=8)
        base = base if base is not None else res.elapsed
        s = base / res.elapsed
        table.add_row(nd, res.elapsed, s, s / nd)
    print(table.format())
    print("\nefficiency decays with device count: per-step halos (pack/P2P/unpack)")
    print("and single-host issue overheads grow while per-device compute shrinks.")


if __name__ == "__main__":
    main()
