"""The comparison programs of the paper's evaluation.

Every execution model the figures compare against is implemented here as
a runnable program against the simulated runtimes:

* :mod:`~repro.baselines.cuda_heat` — hand-written CUDA heat solver
  (pageable / pinned / managed memory; fused per-step kernel, tuned
  geometry);
* :mod:`~repro.baselines.acc_heat` — pure OpenACC heat solver (data
  region, compiler geometry, separate per-face boundary kernels);
* :mod:`~repro.baselines.hybrid_heat` — CUDA memory management +
  OpenACC kernels (the §II-C combination the paper's library adopts);
* :mod:`~repro.baselines.cuda_compute` / :mod:`~repro.baselines.acc_compute`
  — the same three-way split for the compute-intensive kernel (with the
  ``--use_fast_math`` CUDA variant of Fig. 6);
* :mod:`~repro.baselines.workloads` — the workload catalog: heat, wave,
  compute-intensive and variable-coefficient heat, each declared once as
  a :class:`~repro.plan.Program` by :func:`build_workload`;
* :mod:`~repro.baselines.tida_runners` — :func:`run_tida`, the TiDA-acc
  driver for every catalog workload (Figs. 5-9, the ablations, the gates);
* :mod:`~repro.baselines.hand_built` — :func:`run_hand_built`, the §V
  loops written by hand: the differential oracle ``run_tida`` is
  checked against.

All runners share the :class:`~repro.baselines.common.BaselineResult`
shape: virtual elapsed seconds, the trace, and (functional mode) the
final global array for correctness comparison.
"""

from .common import (
    BaselineResult,
    apply_bc_global,
    default_init,
    reference_compute_intensive,
    reference_heat,
)
from .cuda_heat import run_cuda_heat
from .acc_heat import run_acc_heat
from .hybrid_heat import run_hybrid_heat
from .cuda_compute import run_cuda_compute
from .acc_compute import run_acc_compute
from .workloads import WORKLOADS, WorkloadSpec, build_workload, default_kappa
from .tida_runners import run_tida
from .hand_built import run_hand_built

__all__ = [
    "BaselineResult",
    "default_init",
    "apply_bc_global",
    "reference_heat",
    "reference_compute_intensive",
    "run_cuda_heat",
    "run_acc_heat",
    "run_hybrid_heat",
    "run_cuda_compute",
    "run_acc_compute",
    "WORKLOADS",
    "WorkloadSpec",
    "build_workload",
    "default_kappa",
    "run_tida",
    "run_hand_built",
]
