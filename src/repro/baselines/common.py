"""Shared pieces of the baseline programs and reference solutions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ReproError
from ..kernels.compute_intensive import _ci_body
from ..kernels.heat import heat_reference_step
from ..sim.trace import Trace
from ..tida.boundary import BoundaryCondition, Dirichlet, Neumann, Periodic


@dataclass
class BaselineResult:
    """Outcome of one baseline (or TiDA-acc) run."""

    name: str
    elapsed: float                      # virtual seconds, transfers + compute
    shape: tuple[int, ...]
    steps: int
    trace: Trace
    result: np.ndarray | None = None    # final interior array (functional mode)
    meta: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] | None = None  # runtime.metrics snapshot, if taken
    dag: list[Any] | None = None        # causal DAG (DagNode list) when checked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BaselineResult({self.name}, elapsed={self.elapsed:.6f}s)"


def default_init(shape: tuple[int, ...], ghost: int = 0, dtype: Any = np.float64) -> np.ndarray:
    """Deterministic pseudo-random initial condition on a ghosted array.

    A Weyl sequence keeps values in [0, 1) without RNG state, so every
    implementation (baseline, TiDA-acc, reference) can regenerate the
    same input independently.
    """
    full = tuple(s + 2 * ghost for s in shape)
    n = 1
    for s in full:
        n *= s
    seq = (np.arange(n, dtype=np.uint64) * np.uint64(2654435761)) % np.uint64(2**32)
    return (seq.astype(np.float64) / 2.0**32).reshape(full).astype(dtype)


def default_kappa(shape: tuple[int, ...], seed: int = 7) -> np.ndarray:
    """A deterministic positive conductivity field (variable-coefficient heat)."""
    rng = np.random.default_rng(seed)
    return 1.0 + 0.5 * rng.random(shape)


def interior(arr: np.ndarray, ghost: int) -> np.ndarray:
    if ghost == 0:
        return arr
    return arr[tuple(slice(ghost, s - ghost) for s in arr.shape)]


def face_slab_slices(
    shape: tuple[int, ...], ghost: int, axis: int, side: int
) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """(ghost slab, adjacent interior plane) slices on a global ghosted array.

    Mirrors :func:`repro.tida.boundary.domain_faces`, so per-region and
    global BC application produce identical values.
    """
    ndim = len(shape)
    dst = [slice(None)] * ndim
    src = [slice(None)] * ndim
    if side < 0:
        dst[axis] = slice(0, ghost)
        src[axis] = slice(ghost, ghost + 1)
    else:
        dst[axis] = slice(shape[axis] - ghost, shape[axis])
        src[axis] = slice(shape[axis] - ghost - 1, shape[axis] - ghost)
    return tuple(dst), tuple(src)


def apply_bc_global(arr: np.ndarray, ghost: int, bc: BoundaryCondition) -> None:
    """Apply a boundary condition to all ghost slabs of a global array."""
    if ghost == 0:
        return
    shape = arr.shape
    if isinstance(bc, Periodic):
        for axis in range(arr.ndim):
            n = shape[axis] - 2 * ghost
            lo_dst = [slice(None)] * arr.ndim
            lo_src = [slice(None)] * arr.ndim
            hi_dst = [slice(None)] * arr.ndim
            hi_src = [slice(None)] * arr.ndim
            lo_dst[axis] = slice(0, ghost)
            lo_src[axis] = slice(n, n + ghost)
            hi_dst[axis] = slice(n + ghost, n + 2 * ghost)
            hi_src[axis] = slice(ghost, 2 * ghost)
            arr[tuple(lo_dst)] = arr[tuple(lo_src)]
            arr[tuple(hi_dst)] = arr[tuple(hi_src)]
        return
    for axis in range(arr.ndim):
        for side in (-1, +1):
            dst, src = face_slab_slices(shape, ghost, axis, side)
            if isinstance(bc, Dirichlet):
                arr[dst] = bc.value
            elif isinstance(bc, Neumann):
                arr[dst] = arr[src]
            else:
                raise ReproError(f"unsupported boundary condition {type(bc).__name__}")


def bc_kernel_launches(
    full_shape: tuple[int, ...], ghost: int, bc: BoundaryCondition
) -> list[tuple[str, dict[str, Any], int]]:
    """The per-step boundary-update kernel launches an OpenACC build emits.

    The paper's §II-C: OpenACC generates *multiple* kernels to update
    data boundaries (one per face), unlike the fused hand-written CUDA
    kernel.  Returns ``(kind, params, n_cells)`` triples where ``kind``
    is ``"fill"`` (Dirichlet) or ``"copy"`` (Neumann/Periodic wrap).
    """
    ndim = len(full_shape)
    shape = full_shape
    launches: list[tuple[str, dict[str, Any], int]] = []
    if ghost == 0:
        return launches

    def slab_cells(axis: int) -> int:
        n = ghost
        for a, s in enumerate(shape):
            if a != axis:
                n *= s
        return n

    if isinstance(bc, Periodic):
        for axis in range(ndim):
            n = shape[axis] - 2 * ghost
            lo_dst = [slice(None)] * ndim
            lo_src = [slice(None)] * ndim
            hi_dst = [slice(None)] * ndim
            hi_src = [slice(None)] * ndim
            lo_dst[axis] = slice(0, ghost)
            lo_src[axis] = slice(n, n + ghost)
            hi_dst[axis] = slice(n + ghost, n + 2 * ghost)
            hi_src[axis] = slice(ghost, 2 * ghost)
            launches.append(
                ("copy", {"dst_slices": tuple(lo_dst), "src_slices": tuple(lo_src)}, slab_cells(axis))
            )
            launches.append(
                ("copy", {"dst_slices": tuple(hi_dst), "src_slices": tuple(hi_src)}, slab_cells(axis))
            )
        return launches

    for axis in range(ndim):
        for side in (-1, +1):
            dst, src = face_slab_slices(shape, ghost, axis, side)
            if isinstance(bc, Dirichlet):
                launches.append(("fill", {"dst_slices": dst, "value": bc.value}, slab_cells(axis)))
            elif isinstance(bc, Neumann):
                launches.append(("copy", {"dst_slices": dst, "src_slices": src}, slab_cells(axis)))
            else:
                raise ReproError(f"unsupported boundary condition {type(bc).__name__}")
    return launches


def reference_heat(
    initial: np.ndarray,
    steps: int,
    *,
    coef: float = 0.1,
    bc: BoundaryCondition | None = None,
    ghost: int = 1,
) -> np.ndarray:
    """Pure-numpy heat solve on a global ghosted array; returns the interior."""
    bc = bc if bc is not None else Neumann()
    src = initial.copy()
    for _ in range(steps):
        apply_bc_global(src, ghost, bc)
        src = heat_reference_step(src, coef=coef, ghost=ghost)
    return interior(src, ghost).copy()


def reference_compute_intensive(
    initial: np.ndarray, steps: int, *, kernel_iteration: int
) -> np.ndarray:
    """Pure-numpy compute-intensive solve (pointwise, no ghosts)."""
    data = initial.copy()
    for _ in range(steps):
        _ci_body(data, (0,) * data.ndim, data.shape, kernel_iteration=kernel_iteration)
    return data
