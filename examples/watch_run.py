#!/usr/bin/env python
"""Monitor a pipelined solve live: telemetry bus, watchdog, recorder.

Runs the tiled compute-intensive solver with the full live-observability
stack attached — a :class:`TelemetryBus` sampling every metric on the
virtual clock, the default :class:`Watchdog` detector set, and a
:class:`FlightRecorder` armed to dump ``incident.json`` on trouble —
then renders the recorded session with the ``repro.obs.watch`` panels
and prints the final health verdict.

Run:  python examples/watch_run.py [--size 128] [--regions 16]
          [--steps 3] [--degrade] [--out session.jsonl]

The default configuration is healthy (prefetching multi-slot streaming:
zero alerts).  ``--degrade`` re-runs it with a single slot and prefetch
disabled, which collapses compute/transfer overlap and makes the
watchdog raise ``overlap_collapse`` alerts — the same seeded scenario
the ``live`` bench gate checks.

Inspect the session afterwards with
``python -m repro.obs.watch session.jsonl`` (add ``--follow`` while a
run is still writing it).
"""

import argparse

from repro.baselines import run_tida
from repro.obs.live import FlightRecorder, TelemetryBus, Watchdog, default_detectors
from repro.obs.watch import parse_session, render


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=128, help="cubic grid edge")
    parser.add_argument("--regions", type=int, default=16, help="region count")
    parser.add_argument("--steps", type=int, default=3, help="time steps")
    parser.add_argument("--degrade", action="store_true",
                        help="single slot, no prefetch: trigger the watchdog")
    parser.add_argument("--out", default="session.jsonl", metavar="FILE",
                        help="telemetry session JSONL (default session.jsonl)")
    args = parser.parse_args()

    bus = TelemetryBus(sample_interval=2e-4, jsonl=args.out)
    bus.add_subscriber(Watchdog(default_detectors(cooldown=2e-3)))
    bus.add_subscriber(FlightRecorder(incident_dir="incidents"))
    slots = dict(n_slots=1, prefetch_depth=0) if args.degrade else \
        dict(n_slots=4, prefetch_depth=2)
    run_tida(
        "compute", shape=(args.size, args.size, args.size), steps=args.steps,
        n_regions=args.regions, functional=False, telemetry=bus, **slots,
    )
    bus.close()

    with open(args.out) as f:
        print(render(parse_session(f.read().splitlines())))
    health = bus.health()
    print(f"\nfinal health: {health['status']} "
          f"({health['samples']} samples, alerts={health['alerts']})")
    print(f"session written to {args.out}; replay with: "
          f"python -m repro.obs.watch {args.out}")


if __name__ == "__main__":
    main()
