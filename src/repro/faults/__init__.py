"""repro.faults — deterministic fault injection and resilience policies.

Chaos-style validation of the transfer/compute overlap scheduler: a
seedable :class:`FaultPlan` makes the simulated runtime fail transfers,
launches, and allocations on a reproducible schedule, and a
:class:`RetryPolicy` tells the TiDA-acc layer how to recover (same-slot
re-issue with virtual-clock exponential backoff, graceful slot-pool
degradation under memory pressure).  Retry exhaustion raises
:class:`~repro.errors.FaultError` *after* flushing every surviving
device-resident region to the host — no data is silently lost.

Wiring: ``CudaRuntime(faults=plan)`` (or ``runtime.set_fault_plan``)
arms the plan; ``TidaAcc(retry=RetryPolicy(...))`` arms recovery;
``run_tida("heat", faults=..., retry=...)`` and the harness ``--faults``
knob expose both.  Everything is observable via ``faults.*`` counters
and ``fault-*`` trace decision marks.
"""

from ..errors import (
    CudaEccUncorrectableError,
    CudaTransferError,
    FaultError,
    FaultPlanError,
)
from .plan import ERROR_CLASSES, OPS, FaultPlan, FaultRule, Injection
from .retry import RetryPolicy

#: Errors the resilience layer treats as transient (retryable).  OOM is
#: deliberately absent: allocation failure is handled by slot-pool
#: degradation, not blind re-issue.
TRANSIENT_ERRORS = (CudaTransferError, CudaEccUncorrectableError)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "Injection",
    "RetryPolicy",
    "FaultError",
    "FaultPlanError",
    "TRANSIENT_ERRORS",
    "ERROR_CLASSES",
    "OPS",
    "CudaTransferError",
    "CudaEccUncorrectableError",
]
