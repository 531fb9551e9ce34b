"""Happens-before hazard detection for the simulated CUDA runtime.

The paper's contribution is a *schedule* — one stream per device slot so
transfers overlap compute — and the repo layers three interacting
schedulers on top of it (associative eviction, lookahead prefetch,
fault-retry re-issue).  ``repro.check`` verifies the orderings those
schedulers rely on, independently of any one policy:

* :class:`~repro.check.hazards.HazardChecker` records every device-buffer
  access (async copies, kernel launches with read/write sets, eviction
  write-backs, ghost-exchange kernels, peer copies) as a vector-clock
  event and flags RAW/WAR/WAW pairs on the same buffer that are not
  ordered by happens-before — distinguishing pairs ordered only by
  engine-FIFO luck (``"warning"``) from genuinely racy ones
  (``"error"``);
* :mod:`repro.check.explore` perturbs engine latencies (machine-spec
  numbers) and tile-visit order under a seed and asserts byte-identical
  results plus hazard-freedom across eviction-policy x prefetch-depth x
  fault-plan matrices.

Enable per runtime with ``CudaRuntime(check="strict")`` (or
``"observe"``), globally with :func:`set_default_mode` /
``REPRO_CHECK=strict``, or for a whole benchmark run with
``python -m repro bench --check``.
"""

from .dag import DagNode, dag_from_json, dag_to_json
from .hazards import (
    Hazard,
    HazardChecker,
    default_mode,
    resolve_checker,
    resolve_mode,
    set_default_mode,
)
from .vclock import VectorClock

__all__ = [
    "DagNode",
    "Hazard",
    "HazardChecker",
    "VectorClock",
    "dag_from_json",
    "dag_to_json",
    "default_mode",
    "resolve_checker",
    "resolve_mode",
    "set_default_mode",
]
