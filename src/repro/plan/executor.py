"""Execute a planned :class:`~repro.plan.Program` on a ``TidaAcc``.

The executor walks the program's statements and drives the exact same
public API the hand-built §V loops (:mod:`repro.baselines.hand_built`)
use — ``fill_boundary``, ``iterator`` + ``compute``, ``swap``,
``reduce_field`` — so a planned run's schedule is operation-for-operation
the schedule a careful human would have written.  On top of that it
applies the planner's redundancy proofs dynamically:

* every field carries a *halo-dirty* bit (set initially, on any write,
  and transferred by swaps); a stencil-read step fills the halo only
  when the bit is set, otherwise the fill is **elided** and the bytes it
  would have copied are credited to ``plan.halo_bytes_saved``;
* read-only residencies need no dynamic handling — ``access="ro"``
  fields skip write-backs inside :class:`~repro.core.tile_acc.TileAcc`,
  surfacing as ``cache.writebacks_skipped.<field>`` counters.

Eliding a fill of a clean halo is byte-safe: the copy it skips would
have rewritten identical values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import PlanError
from ..tida.boundary import BoundaryCondition, domain_faces
from .planner import PlanReport
from .program import Loop, Program, Reduce, Scalar, ScalarRef, Step, Swap

if TYPE_CHECKING:  # pragma: no cover
    from ..core.library import TidaAcc


@dataclass
class ProgramRun:
    """Outcome of one ``run_program`` execution."""

    plan: PlanReport
    start: float                   # virtual time the first statement ran at
    elapsed: float                 # virtual seconds
    env: dict[str, float]          # final scalar environment
    iterations: int                # trips completed by the outermost loop
    fills: int = 0                 # halo exchanges performed
    fills_elided: int = 0          # halo exchanges proven redundant
    halo_bytes_saved: int = 0      # bytes those elisions would have copied
    meta: dict[str, Any] = field(default_factory=dict)


def halo_fill_bytes(ta: Any, bc: BoundaryCondition | None) -> int:
    """Bytes one whole-field ``fill_boundary`` copies (analytically).

    Mirrors :meth:`~repro.tida.tile_array.TileArray.fill_region_ghosts`
    byte accounting without touching data — the credit booked when an
    exchange is elided.
    """
    if all(g == 0 for g in ta.ghost):
        return 0
    itemsize = ta.dtype.itemsize
    periodic = bc is not None and bc.is_periodic
    total = 0
    for region in ta.regions:
        for _src, src_box, _dst_box in ta.exchange_pairs(region, periodic=periodic):
            total += src_box.size * itemsize
        if bc is not None and not periodic:
            for _axis, _side, ghost_box, _src_box in domain_faces(region, ta.domain):
                total += ghost_box.size * itemsize
    return total


class _Executor:
    def __init__(
        self,
        lib: "TidaAcc",
        prog: Program,
        plan: PlanReport,
        *,
        order: str = "sequential",
        order_seed: int | None = None,
        tile_shape: tuple[int, ...] | None = None,
        env: dict[str, float] | None = None,
    ) -> None:
        self.lib = lib
        self.prog = prog
        self.plan = plan
        self.order = order
        self.order_seed = order_seed
        self.tile_shape = tile_shape
        self.env: dict[str, float] = dict(env or {})
        self.functional = lib.runtime.functional
        # ghosts start stale: nothing has filled them yet
        self.halo_dirty: dict[str, bool] = {n: True for n in plan.fields}
        self.fills = 0
        self.fills_elided = 0
        self.halo_bytes_saved = 0
        self.iterations = 0
        self._fill_bytes_cache: dict[tuple[str, int], int] = {}

    # -- helpers -----------------------------------------------------------

    def _resolve_params(self, params: dict[str, Any]) -> dict[str, Any]:
        out = {}
        for key, value in params.items():
            if isinstance(value, ScalarRef):
                if value.name not in self.env:
                    raise PlanError(
                        f"param {key!r} references scalar {value.name!r} "
                        "before any reduce/scalar produced it"
                    )
                out[key] = self.env[value.name]
            else:
                out[key] = value
        return out

    def _elided_bytes(self, fname: str, bc: BoundaryCondition | None) -> int:
        key = (fname, id(bc.__class__) if bc is not None else 0)
        if key not in self._fill_bytes_cache:
            self._fill_bytes_cache[key] = halo_fill_bytes(self.lib.field(fname), bc)
        return self._fill_bytes_cache[key]

    def _ensure_halo(self, fname: str, bc: BoundaryCondition | None) -> None:
        if self.halo_dirty[fname]:
            self.lib.fill_boundary(fname, bc)
            self.halo_dirty[fname] = False
            self.fills += 1
            self.lib.metrics.inc("plan.fills")
            return
        saved = self._elided_bytes(fname, bc)
        self.fills_elided += 1
        self.halo_bytes_saved += saved
        self.lib.metrics.inc("plan.fills_elided")
        self.lib.metrics.inc("plan.halo_bytes_saved", saved)

    # -- statement dispatch ------------------------------------------------
    #
    # The walk is written as a generator yielding at *quantum boundaries*:
    # after each region's compute call, each reduction, and each halo
    # fill.  Everything between two yields is an atomic unit — in
    # particular the request_device → launch → note_device_op sequence
    # inside ``lib.compute`` is never split, which is what keeps the
    # ``covers=True`` dependency collapse sound when the multi-tenant
    # service interleaves several programs on one runtime.  ``run()``
    # drains the generator, so a solo run issues the exact same
    # operation sequence it always did.

    def run(self) -> None:
        for _ in self.steps():
            pass

    def steps(self):
        """Generator over the program's quanta (see module docstring)."""
        return self._run_block(self.prog.statements, outermost=True)

    def _run_block(self, stmts: tuple[Any, ...], *, outermost: bool = False):
        for s in stmts:
            if isinstance(s, Loop):
                for _trip in range(s.count):
                    if self.functional and s.until is not None and s.until(self.env):
                        break
                    yield from self._run_block(s.body)
                    if outermost:
                        self.iterations += 1
            elif isinstance(s, Step):
                yield from self._run_step(s)
            elif isinstance(s, Swap):
                self.lib.swap(s.a, s.b)
                self.halo_dirty[s.a], self.halo_dirty[s.b] = (
                    self.halo_dirty[s.b], self.halo_dirty[s.a],
                )
            elif isinstance(s, Reduce):
                self.env[s.store] = self.lib.reduce_field(
                    list(s.fields), s.spec, gpu=s.gpu,
                    params=self._resolve_params(s.params),
                )
                yield
            elif isinstance(s, Scalar):
                self.env[s.name] = (
                    s.fn(self.env) if self.functional else s.timing
                )
            else:  # pragma: no cover - Program builders reject these
                raise PlanError(f"unknown statement {s!r}")

    def _run_step(self, s: Step):
        ndim = len(self.prog.domain)
        bc = s.bc if s.bc is not None else self.prog.bc
        for i, fname in enumerate(s.fields):
            if _reads(s.kernel, i) and s.kernel.reads_neighbors(i, ndim):
                filled = self.halo_dirty[fname]
                self._ensure_halo(fname, bc)
                if filled:
                    yield
        params = self._resolve_params(s.params)
        it = self.lib.iterator(
            *s.fields, tile_shape=self.tile_shape,
            order=self.order, seed=self.order_seed,
        ).reset(gpu=s.gpu)
        while it.is_valid():
            self.lib.compute(it, s.kernel, params=params)
            it.next()
            yield
        for i, fname in enumerate(s.fields):
            if _writes(s.kernel, i):
                self.halo_dirty[fname] = True


def _access(kernel: Any, index: int) -> str:
    if kernel.arg_access is not None and index < len(kernel.arg_access):
        return kernel.arg_access[index]
    return "rw"


def _reads(kernel: Any, index: int) -> bool:
    return _access(kernel, index) in ("r", "rw")


def _writes(kernel: Any, index: int) -> bool:
    return _access(kernel, index) in ("w", "rw")


def program_stepper(
    lib: "TidaAcc",
    prog: Program,
    plan: PlanReport,
    *,
    inputs: dict[str, Any] | None = None,
    env: dict[str, float] | None = None,
    order: str = "sequential",
    order_seed: int | None = None,
    tile_shape: tuple[int, ...] | None = None,
):
    """Cooperative-execution generator over a planned program.

    Yields ``None`` at every quantum boundary (one region's compute, one
    reduction, one halo fill) and *returns* the :class:`ProgramRun` via
    ``StopIteration.value``.  Setup (field allocation, input scatter) is
    lazy — it runs on the first ``next()`` — so a multi-tenant scheduler
    controls exactly when a job starts touching the device.

    Fields ``lib`` already has (attached by the service's cross-job
    read-only dedup) are not re-declared, and inputs targeting shared
    fields are not re-scattered: the share was keyed on byte-identical
    content, so the data is already there.
    """
    for fplan in plan.fields.values():
        if lib.has_field(fplan.name):
            continue  # pre-attached (cross-job read-only dedup)
        lib.add_array(
            fplan.name, plan.domain,
            n_regions=plan.n_regions,
            halo=fplan.halo,
            n_slots=plan.n_slots,
            access=fplan.access,
            dtype=plan.dtype,
        )
    if inputs:
        unknown = set(inputs) - set(plan.fields)
        if unknown:
            raise PlanError(f"inputs for unplanned field(s) {sorted(unknown)}")
        for name, arr in inputs.items():
            if name in lib._shared:
                continue
            lib.field(name).from_global(arr)

    t0 = lib.now
    ex = _Executor(
        lib, prog, plan, order=order, order_seed=order_seed,
        tile_shape=tile_shape, env=env,
    )
    yield from ex.steps()
    return ProgramRun(
        plan=plan,
        start=t0,
        elapsed=lib.now - t0,
        env=ex.env,
        iterations=ex.iterations,
        fills=ex.fills,
        fills_elided=ex.fills_elided,
        halo_bytes_saved=ex.halo_bytes_saved,
    )


def execute_program(
    lib: "TidaAcc",
    prog: Program,
    plan: PlanReport,
    *,
    inputs: dict[str, Any] | None = None,
    env: dict[str, float] | None = None,
    order: str = "sequential",
    order_seed: int | None = None,
    tile_shape: tuple[int, ...] | None = None,
) -> ProgramRun:
    """Add the planned fields to ``lib``, scatter inputs, run ``prog``.

    Drains :func:`program_stepper` to completion — the solo-run path.
    See :meth:`repro.core.library.TidaAcc.run_program` for the public
    entry point and parameter semantics.
    """
    stepper = program_stepper(
        lib, prog, plan, inputs=inputs, env=env,
        order=order, order_seed=order_seed, tile_shape=tile_shape,
    )
    while True:
        try:
            next(stepper)
        except StopIteration as stop:
            return stop.value


def writebacks_skipped(metrics_snapshot: dict[str, Any], plan: PlanReport) -> float:
    """Sum of ``cache.writebacks_skipped.<field>`` over the plan's proven
    read-only fields — the write-back half of the skipped-traffic ledger."""
    counters = metrics_snapshot.get("counters", metrics_snapshot)
    return float(sum(
        v for name, v in counters.items()
        if name.startswith("cache.writebacks_skipped.")
        and name.split(".", 2)[2] in plan.ro_fields
    ))
