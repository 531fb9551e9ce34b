#!/usr/bin/env python
"""Region-count autotuning with the ExaSAT-style analytic model (§III).

The paper reports "we used 16 regions which gave the best performance"
after manual tuning.  This example derives that choice automatically: the
closed-form pipeline model sweeps candidate counts in microseconds, the
simulator confirms, and both sweeps are printed side by side.

Run:  python examples/autotune_regions.py [--size 512] [--steps 1]
"""

import argparse

from repro.baselines import run_tida
from repro.bench.report import Table
from repro.kernels.heat import heat_kernel
from repro.model.autotune import autotune_region_count, sweep_region_counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--steps", type=int, default=1)
    args = parser.parse_args()

    shape = (args.size,) * 3
    cells = args.size ** 3
    candidates = (1, 2, 4, 8, 16, 32, 64)
    kernel = heat_kernel(3)

    modelled = sweep_region_counts(
        kernel=kernel, domain_cells=cells, steps=args.steps,
        candidates=candidates, strategy="model",
        fields=2, result_fields=1, ghost_width=1,
    )
    measured = sweep_region_counts(
        kernel=kernel, domain_cells=cells, steps=args.steps,
        candidates=candidates, strategy="measure",
        measure_fn=lambda n: run_tida("heat", shape=shape, steps=args.steps,
                                      n_regions=n).elapsed,
    )

    table = Table(
        title=f"region-count sweep, heat {shape}, {args.steps} step(s)",
        columns=["n_regions", "model_s", "simulated_s"],
    )
    for m, s in zip(modelled, measured):
        table.add_row(m.n_regions, m.seconds, s.seconds)
    print(table.format())

    best_model = autotune_region_count(
        kernel=kernel, domain_cells=cells, steps=args.steps,
        candidates=candidates, fields=2, result_fields=1, ghost_width=1,
    )
    best_sim = min(measured, key=lambda p: p.seconds).n_regions
    print(f"\nmodel picks {best_model} regions; simulator picks {best_sim}.")
    print("(the paper hand-tuned the same knob and settled on 16)")


if __name__ == "__main__":
    main()
