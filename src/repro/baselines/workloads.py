"""The workload catalog: each of the paper's workloads declared once.

:func:`build_workload` is the only place the heat, wave,
compute-intensive and variable-coefficient heat
:class:`~repro.plan.Program` s are written.  Everything that runs a
workload derives from it: :func:`~repro.baselines.tida_runners.run_tida`
(the figures, ablations, gates and the conformance matrix) and tenant
jobs submitted to :class:`~repro.service.Service` by name.  The §V loops
in :mod:`repro.baselines.hand_built` are the independent oracle these
programs are checked against.

``coeff-heat`` is the dedup workload: its ``kappa`` coefficient field is
proven read-only by the planner, and every job built with the same
``kappa_seed`` carries a byte-identical coefficient table — exactly the
shape the service's cross-job transfer dedup keys on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ServiceError
from ..kernels.compute_intensive import compute_intensive_kernel
from ..kernels.heat import coeff_heat_kernel, heat_kernel
from ..kernels.wave import wave_kernel
from ..plan import Program
from ..tida.boundary import BoundaryCondition, Dirichlet, Neumann
from .common import default_init, default_kappa

__all__ = ["WORKLOADS", "WorkloadSpec", "build_workload", "default_kappa"]

#: Catalog names `build_workload` accepts.
WORKLOADS = ("heat", "wave", "compute", "coeff-heat")


@dataclass(frozen=True)
class WorkloadSpec:
    """A buildable job: declarative program + initial data."""

    name: str
    prog: Program
    gather: str                       # field whose result defines the job output
    make_inputs: Callable[[], dict[str, np.ndarray]] = field(repr=False)

    @property
    def inputs(self) -> dict[str, np.ndarray]:
        """Initial data, built on each access: timing-mode runs never ask."""
        return self.make_inputs()


def build_workload(
    name: str,
    *,
    shape: tuple[int, ...] = (32, 16, 16),
    steps: int = 2,
    seed: int | None = None,
    initial: np.ndarray | None = None,
    coef: float = 0.1,
    c2: float = 0.25,
    kernel_iteration: int = 64,
    kappa_seed: int = 7,
    bc: BoundaryCondition | None = None,
    gpu: bool = True,
) -> WorkloadSpec:
    """Instantiate a named workload at the given size.

    ``seed`` perturbs the initial condition (None = the shared Weyl
    sequence every baseline uses) and ``initial`` replaces it outright;
    ``kappa_seed`` pins the coefficient table of ``coeff-heat`` so equal
    seeds share bytes across tenants.  ``bc`` defaults to Neumann for the
    heat workloads and zero Dirichlet for wave; ``gpu=False`` runs every
    step on the host.
    """
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    if name in ("heat", "coeff-heat"):
        bc = bc if bc is not None else Neumann()
        kernel = heat_kernel(ndim) if name == "heat" else coeff_heat_kernel(ndim)
        fields = ("u_new", "u_old") if name == "heat" else ("u_new", "u_old", "kappa")
        prog = Program(shape, bc=bc)
        with prog.sweep(steps):
            prog.step(kernel, fields, params={"coef": coef}, gpu=gpu)
            prog.swap("u_old", "u_new")
        state, gather = ("u_old", "u_new"), "u_old"
    elif name == "wave":
        prog = Program(shape, bc=bc if bc is not None else Dirichlet(0.0))
        with prog.sweep(steps):
            prog.step(wave_kernel(ndim), ("u_next", "u", "u_prev"),
                      params={"c2": c2}, gpu=gpu)
            prog.swap("u_prev", "u")
            prog.swap("u", "u_next")
        state, gather = ("u", "u_prev"), "u"
    elif name == "compute":
        prog = Program(shape, bc=bc)
        with prog.sweep(steps):
            prog.step(compute_intensive_kernel(kernel_iteration), ("data",),
                      params={"kernel_iteration": kernel_iteration}, gpu=gpu)
        state, gather = ("data",), "data"
    else:
        raise ServiceError(
            f"unknown workload {name!r}; have {', '.join(WORKLOADS)}",
            reason="unknown-workload",
        )

    def make_inputs() -> dict[str, np.ndarray]:
        if initial is not None:
            init = initial
        elif seed is None:
            init = default_init(shape, 0)
        else:
            init = np.random.default_rng(seed).random(shape)
        inputs = {f: init for f in state}
        if name == "coeff-heat":
            inputs["kappa"] = default_kappa(shape, seed=kappa_seed)
        return inputs

    return WorkloadSpec(name, prog, gather, make_inputs)
