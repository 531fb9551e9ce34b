"""The bench-gate contract shared by every ``python -m repro gate <name>``.

Each gate's ``run`` is replaced by a canned result — the committed
``BENCH_<name>.json`` measurements where a baseline exists — so these
drive the shared :func:`repro.bench.gate.finish` path for every gate
name without running a workload.
"""

import json
import shutil
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.bench.gate import SCHEMA, GateResult
from repro.obs.compare import higher_is_better

ROOT = Path(__file__).resolve().parents[2]


def canned(name: str) -> GateResult:
    """The committed baseline's measurements as a gate result."""
    path = ROOT / f"BENCH_{name}.json"
    if not path.exists():
        return GateResult(metrics={"counters": {f"bench.{name}.seconds": 1.0}})
    raw = json.loads(path.read_text())
    metrics = raw.pop("metrics")
    del raw["schema"]
    counters = {}
    for key, value in metrics["counters"].items():
        # a wildcard row gates a family of counters: emit two members
        for member in ([key.replace("*", t) for t in ("t0", "t1")]
                       if "*" in key else [key]):
            counters[member] = value
    return GateResult(metrics=dict(metrics, counters=counters), raw=raw)


@pytest.fixture
def root_copy(tmp_path, monkeypatch):
    """A working directory holding copies of the committed baselines."""
    for path in ROOT.glob("BENCH_*.json"):
        shutil.copy(path, tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_gate(monkeypatch, name: str, result: GateResult, out: Path) -> int:
    monkeypatch.setitem(cli.GATES, name, lambda out_dir, *, quick=False: result)
    return cli.main(["gate", name, "--quick", "--out", str(out)])


@pytest.mark.parametrize("name", sorted(cli.GATES))
def test_gate_contract(name, root_copy, monkeypatch):
    out = root_copy / "out"
    assert run_gate(monkeypatch, name, canned(name), out) == 0
    manifest = json.loads((out / f"BENCH_{name}.json").read_text())
    assert manifest["schema"] == SCHEMA
    assert "counters" in manifest["metrics"]
    assert set(manifest) == {"schema", "metrics", *canned(name).raw}

    # --out <root> regenerates the committed baseline byte-identically
    baseline = root_copy / f"BENCH_{name}.json"
    committed = baseline.read_bytes() if baseline.exists() else None
    assert run_gate(monkeypatch, name, canned(name), root_copy) == 0
    if committed is not None:
        assert baseline.read_bytes() == committed

    # a conformance failure exits 1 and writes nothing
    shutil.rmtree(out)
    assert run_gate(monkeypatch, name, GateResult(failures=["diverged"]), out) == 1
    assert not out.exists()

    missed = canned(name)
    missed.misses.append("below its floor")
    assert run_gate(monkeypatch, name, missed, out) == 2
    assert (out / f"BENCH_{name}.json").exists()

    # one gated counter moved 15% the wrong way fails the 10% compare
    regressed = canned(name)
    counters = regressed.metrics["counters"]
    key = next(k for k, v in sorted(counters.items()) if v)
    counters[key] *= 0.85 if higher_is_better(key) else 1.15
    assert run_gate(monkeypatch, name, regressed, out) == 2


#: Deterministic counters gated at their measured value, and where the
#: same value sits in the manifest's ungated section.
UNCLAMPED = [
    ("plan", "bench.plan.writebacks_skipped", "plan.savings.writebacks_skipped"),
    ("plan", "bench.plan.halo_bytes_saved", "plan.savings.halo_bytes_saved"),
    ("plan", "bench.plan.fills_elided", "plan.savings.fills_elided"),
    ("service", "bench.service.utilization_speedup", "service.utilization.speedup"),
    ("service", "bench.service.aggregate_utilization",
     "service.utilization.contention"),
    ("service", "bench.service.dedup_bytes_avoided", "service.dedup.bytes_avoided"),
    ("service", "bench.service.priority_p95_slowdown",
     "service.latency_ms.priority_slowdown"),
    ("slo", "bench.slo.backpressure_p95_speedup", "slo_bench.overload.speedup"),
    ("slo", "bench.slo.nominal_slo_hit_rate", "slo_bench.nominal.hit_rate"),
    ("slo", "bench.slo.blame_exact_hit_rate", "slo_bench.blame.hit_rate"),
]


@pytest.mark.parametrize("name, counter, raw_path", UNCLAMPED,
                         ids=[c for _n, c, _p in UNCLAMPED])
def test_committed_unclamped_counter_equals_raw_value(name, counter, raw_path):
    manifest = json.loads((ROOT / f"BENCH_{name}.json").read_text())
    raw = manifest
    for key in raw_path.split("."):
        raw = raw[key]
    assert manifest["metrics"]["counters"][counter] == raw
