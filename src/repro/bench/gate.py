"""The one bench-gate contract behind ``python -m repro gate <name>``.

Each gate module's ``run(out_dir, *, quick=False)`` runs its workloads
and conformance checks and returns a :class:`GateResult`.  :func:`finish`
then prints the failures, writes ``out_dir/BENCH_<name>.json`` (so
``--out .`` regenerates the committed baseline) and compares it with the
committed ``BENCH_<name>.json`` — the same
:func:`~repro.obs.compare.compare_snapshots` call and 10% threshold as
``python -m repro.obs.report --compare``.

Exit codes: 0 ok, 1 conformance failure (nothing is written), 2 floor
miss or baseline regression.
"""

from __future__ import annotations

import fnmatch
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..obs.compare import _is_pattern, compare_snapshots, higher_is_better

SCHEMA = "repro-run-manifest/1"
#: Relative regression threshold, as in ``obs.report --compare``.
THRESHOLD = 0.10


@dataclass
class GateResult:
    """What one gate run measured and what it found wrong."""

    #: gated metric snapshot (``{"counters": ...}`` plus optional
    #: ``gauges``/``histograms``), compared against the baseline
    metrics: dict[str, Any] = field(default_factory=dict)
    #: ungated manifest sections, written next to ``metrics``
    raw: dict[str, Any] = field(default_factory=dict)
    #: conformance failures (exit 1)
    failures: list[str] = field(default_factory=list)
    #: hard-floor misses (exit 2)
    misses: list[str] = field(default_factory=list)


def _fold_patterns(
    counters: dict[str, float], baseline: dict[str, float]
) -> dict[str, float]:
    """Write each wildcard baseline row back as its pattern.

    The pattern takes the worst value among the counters it matches, so
    regenerating a baseline keeps its wildcard rows wildcards.
    """
    folded = dict(counters)
    for pattern in filter(_is_pattern, baseline):
        hits = [folded.pop(k) for k in fnmatch.filter(list(folded), pattern)]
        if hits:
            folded[pattern] = min(hits) if higher_is_better(pattern) else max(hits)
    return folded


def finish(name: str, result: GateResult, out_dir: Path) -> int:
    """Print, write, and gate one run; returns the exit code."""
    for f in result.failures:
        print(f"FAIL conformance: {f}", file=sys.stderr)
    if result.failures:
        return 1

    baseline_path = Path(f"BENCH_{name}.json")
    baseline = (json.loads(baseline_path.read_text())
                if baseline_path.exists() else None)

    metrics = dict(result.metrics)
    if baseline is not None:
        metrics["counters"] = _fold_patterns(
            metrics["counters"], baseline["metrics"]["counters"])
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"BENCH_{name}.json"
    out.write_text(json.dumps(
        {"schema": SCHEMA, "metrics": metrics, **result.raw},
        indent=2, sort_keys=True,
    ) + "\n")
    print(f"wrote {len(metrics['counters'])} gated counters to {out}")

    regressions: list[dict[str, Any]] = []
    if baseline is not None:
        _rows, regressions = compare_snapshots(
            result.metrics, baseline["metrics"], threshold=THRESHOLD)
        for row in regressions:
            cur = "missing" if row["current"] is None else format(row["current"], "g")
            rel = "" if row["rel_change"] is None else f" ({row['rel_change']:+.1%})"
            print(f"FAIL baseline: {row['metric']}: {row['baseline']:g} -> "
                  f"{cur}{rel}", file=sys.stderr)
        if not regressions:
            print(f"no regressions beyond {THRESHOLD:.0%} against {baseline_path}")
    for miss in result.misses:
        print(f"FAIL floor: {miss}", file=sys.stderr)
    return 2 if regressions or result.misses else 0
