"""TidaAcc: the user-facing library facade (§V).

A ``TidaAcc`` instance owns the simulated CUDA + OpenACC runtimes and a
set of named tile arrays.  The programmer never touches address spaces,
transfers, or directives — the §V contract:

* declare fields with :meth:`add_array` (pinned host allocations, region
  decomposition);
* iterate with :meth:`iterator` and flip GPU execution on with
  ``it.reset(gpu=True)``;
* call :meth:`compute` with the tile(s) and a kernel (the C++ lambda of
  the paper becomes a :class:`~repro.cuda.kernel.KernelSpec` whose body
  receives the data pointers plus ``lo``/``hi`` bounds — the same
  "data pointer as lambda parameter" design §V-A explains);
* exchange ghosts with :meth:`fill_boundary`, swap time levels with
  :meth:`swap`, read results with :meth:`gather`.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Sequence

import numpy as np

from ..config import MachineSpec
from ..cuda.kernel import KernelSpec
from ..cuda.runtime import CudaRuntime
from ..errors import FaultError, ReproError, TidaError, TileAccError, TimingModeError
from ..faults import TRANSIENT_ERRORS
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..openacc.runtime import AccRuntime
from ..tida.boundary import BoundaryCondition
from ..tida.box import Box
from ..tida.tile import Tile
from ..tida.tile_array import TileArray
from ..tida.tile_iterator import TileIterator
from .ghost import fill_boundary_hybrid
from .prefetch import PrefetchScheduler
from .slots import EvictionPolicy
from .tile_acc import TileAcc

#: The library-chosen OpenACC vector length (§II-A: pragma attributes let
#: the library control kernel geometry; this is how TiDA-acc's kernels
#: reach tuned-CUDA efficiency while the naive OpenACC baseline does not).
DEFAULT_VECTOR_LENGTH = 128


class TidaAcc:
    """The TiDA-acc library."""

    def __init__(
        self,
        machine: MachineSpec | None = None,
        *,
        functional: bool = True,
        mode: str | None = None,
        device_memory_limit: int | None = None,
        runtime: CudaRuntime | None = None,
        acc: AccRuntime | None = None,
        vector_length: int = DEFAULT_VECTOR_LENGTH,
        prefetch_depth: int | None = None,
        eviction: str | EvictionPolicy = "lru",
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        check: str | bool | None = None,
        telemetry=None,
        label_prefix: str = "",
    ) -> None:
        if runtime is None:
            runtime = CudaRuntime(
                machine, functional=functional, mode=mode,
                device_memory_limit=device_memory_limit, check=check,
                telemetry=telemetry,
            )
        else:
            if check is not None:
                from ..check.hazards import resolve_checker
                runtime.checker = resolve_checker(
                    check, trace=runtime.trace, metrics=runtime.metrics
                )
            if telemetry is not None:
                runtime.attach_telemetry(telemetry)
        self.runtime = runtime
        if faults is not None:
            self.runtime.set_fault_plan(faults)
        #: resilience policy every field's TileAcc (and kernel launches)
        #: inherit; ``None`` = fail fast on the first injected fault
        self.retry = retry
        self.acc = acc if acc is not None else AccRuntime(runtime)
        if self.acc.cuda is not self.runtime:
            raise TileAccError("AccRuntime must wrap the same CudaRuntime")
        self.vector_length = int(vector_length)
        #: default eviction policy for new fields ("lru" | "lookahead" | "modulo")
        self.eviction = eviction
        #: ``prefetch_depth=None`` means auto: prefetch when the iterator's
        #: traversal order is known (sequential), stay demand-paged otherwise;
        #: ``0`` disables prefetching entirely.
        self._prefetcher = PrefetchScheduler(default_depth=prefetch_depth)
        #: prepended to every field's trace/metric label — the multi-tenant
        #: service namespaces each job's observability ("t3/j7:u_old")
        #: while field *names* stay the program's logical names
        self.label_prefix = str(label_prefix)
        self._fields: dict[str, TileArray] = {}
        self._managers: dict[str, TileAcc] = {}
        self._names_by_array: dict[int, str] = {}
        #: fields borrowed from (or lent to) another library on the same
        #: runtime — cross-job read-only dedup; ``close()`` leaves them alone
        self._shared: set[str] = set()

    @property
    def mode(self) -> str:
        """``"functional"`` or ``"timing"`` (see :class:`~repro.cuda.runtime.CudaRuntime`)."""
        return self.runtime.mode

    @property
    def checker(self):
        """The runtime's :class:`~repro.check.hazards.HazardChecker` (or None)."""
        return self.runtime.checker

    @property
    def telemetry(self):
        """The runtime's attached :class:`~repro.obs.live.TelemetryBus` (or None)."""
        return self.runtime.telemetry

    def health(self) -> dict:
        """Live health snapshot (see :meth:`CudaRuntime.health`)."""
        return self.runtime.health()

    # -- field management -----------------------------------------------------

    def add_array(
        self,
        name: str,
        domain: Box | tuple[int, ...],
        *,
        region_shape: tuple[int, ...] | None = None,
        n_regions: int | None = None,
        axis: int = 0,
        halo: int | tuple[int, ...] | str | None = None,
        kernels: Sequence[KernelSpec] | None = None,
        dtype: Any = np.float64,
        fill: float | None = None,
        n_slots: int | None = None,
        access: str = "rw",
        eviction: str | EvictionPolicy | None = None,
    ) -> TileArray:
        """Declare a field: a pinned-host tileArray plus its TileAcc.

        ``halo`` is the ghost width (int or per-axis tuple, default 0).
        Pass ``halo="auto"`` together with ``kernels=(KernelSpec, ...)``
        to derive it from the kernels' declared stencil footprints (the
        union of their read radii — see :func:`repro.plan.derive_halo`).

        ``access="ro"`` declares the field read-only on the device
        (coefficient tables, masks): evictions and host reads then cost no
        write-back.  Mutate such a field on the host only, followed by
        ``manager(name).invalidate_device()``.

        ``eviction`` overrides the library's default eviction policy for
        this field (``"lru"``, ``"lookahead"``, or ``"modulo"``).
        """
        if isinstance(halo, str):
            if halo != "auto":
                raise TidaError(
                    f"halo must be an int, a per-axis tuple, or 'auto'; got {halo!r}"
                )
            if not kernels:
                raise TidaError(
                    "halo='auto' needs kernels=(KernelSpec, ...) to derive "
                    "the ghost width from"
                )
            from ..plan.planner import derive_halo
            ndim = domain.ndim if isinstance(domain, Box) else len(tuple(domain))
            halo = derive_halo(kernels, ndim)
        elif kernels is not None:
            raise TidaError("kernels= only applies with halo='auto'")
        if halo is None:
            halo = 0
        if access not in ("rw", "ro"):
            raise TidaError(f"access must be 'rw' or 'ro', got {access!r}")
        if name in self._fields:
            raise TidaError(f"field {name!r} already exists")
        ta = TileArray(
            domain,
            region_shape=region_shape,
            n_regions=n_regions,
            axis=axis,
            ghost=halo,
            dtype=dtype,
            runtime=self.runtime,
            pinned=True,
            fill=fill,
            label=f"{self.label_prefix}{name}",
        )
        # build the manager before registering anything, so a failure
        # (e.g. not even one region fits in device memory) leaves the
        # library with no half-registered field
        manager = TileAcc(
            self.runtime, self.acc, ta, n_slots=n_slots,
            read_only=(access == "ro"),
            eviction=eviction if eviction is not None else self.eviction,
            retry=self.retry,
        )
        self._fields[name] = ta
        self._managers[name] = manager
        self._names_by_array[id(ta)] = name
        return ta

    def field(self, name: str) -> TileArray:
        try:
            return self._fields[name]
        except KeyError:
            raise TidaError(f"unknown field {name!r}; have {sorted(self._fields)}") from None

    def manager(self, name: str) -> TileAcc:
        self.field(name)
        return self._managers[name]

    def field_names(self) -> list[str]:
        return sorted(self._fields)

    def has_field(self, name: str) -> bool:
        return name in self._fields

    def attach_shared_field(self, name: str, array: TileArray, manager: TileAcc) -> TileArray:
        """Register a field *owned by another library* on the same runtime.

        Cross-job read-only dedup: when two tenants' programs consume
        byte-identical read-only data (a coefficient table, a mask), the
        service attaches the first job's tile array + slot manager into
        later jobs instead of allocating and uploading a second copy.
        Only read-only fields are shareable — concurrent readers never
        conflict, so byte-identity and hazard-freedom are preserved.
        ``close()`` leaves shared fields alone; the sharing coordinator
        owns their lifetime.
        """
        if name in self._fields:
            raise TidaError(f"field {name!r} already exists")
        if manager.runtime is not self.runtime:
            raise TileAccError(
                f"shared field {name!r} lives on a different runtime"
            )
        if not manager.read_only:
            raise TileAccError(
                f"only read-only fields can be shared across jobs, "
                f"{name!r} is writable"
            )
        self._fields[name] = array
        self._managers[name] = manager
        self._names_by_array[id(array)] = name
        self._shared.add(name)
        return array

    def mark_field_shared(self, name: str) -> None:
        """Exclude ``name`` from :meth:`close` teardown (ownership moved out)."""
        self.field(name)
        self._shared.add(name)

    def name_of(self, array: TileArray) -> str:
        try:
            return self._names_by_array[id(array)]
        except KeyError:
            raise TidaError("tile array is not registered with this library") from None

    # -- iteration ---------------------------------------------------------------

    def iterator(
        self,
        *names: str,
        tile_shape: tuple[int, ...] | None = None,
        order: str = "sequential",
        seed: int | None = None,
    ) -> TileIterator:
        """A tile iterator over one or more compatible fields (§V)."""
        arrays = [self.field(n) for n in names]
        return TileIterator(*arrays, tile_shape=tile_shape, order=order, seed=seed)

    # -- resilience (launch retry) -------------------------------------------------

    def _launch_with_retry(
        self, kernel_name: str, rid: int, issue: Callable[[], float]
    ) -> float:
        """Re-launch a transiently failing kernel per the armed retry policy.

        ECC-style launch faults raise before the kernel body runs (no
        partial writes), so re-issuing the same launch is safe.  Retry
        exhaustion flushes every writable field to the host, then raises
        :class:`FaultError`.
        """
        policy = self.retry
        if policy is None:
            return issue()
        m = self.runtime.metrics
        last: Exception | None = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                result = issue()
            except TRANSIENT_ERRORS as exc:
                last = exc
                if attempt == policy.max_attempts:
                    break
                m.inc("faults.retries")
                m.inc(f"faults.retries.{kernel_name}")
                wait = policy.delay(attempt, key=(kernel_name, "launch", rid))
                self.runtime.trace.mark(
                    "fault-retry", self.runtime.now,
                    kernel=kernel_name, op="launch", region=rid,
                    attempt=attempt, backoff=wait,
                )
                self.runtime.clock.advance(wait)
                continue
            if last is not None:
                m.inc("faults.recovered")
                m.inc(f"faults.recovered.{kernel_name}")
                self.runtime.trace.mark(
                    "fault-recovered", self.runtime.now,
                    kernel=kernel_name, op="launch", region=rid, attempts=attempt,
                )
            return result
        # rescue what survives before surfacing the failure
        plan = self.runtime.faults
        ctx = plan.suspended() if plan is not None else contextlib.nullcontext()
        with ctx:
            for name in self.field_names():
                mgr = self._managers[name]
                try:
                    if not mgr.read_only:
                        mgr.flush_to_host()
                except ReproError:
                    continue
        err = FaultError(
            f"launch of kernel {kernel_name!r} on region {rid} failed after "
            f"{policy.max_attempts} attempts",
            op="launch", field=kernel_name, region=rid,
            attempts=policy.max_attempts,
        )
        self.runtime.notify_incident("fault", err)
        raise err from last

    # -- the compute method (§V) ---------------------------------------------------

    @staticmethod
    def _normalize_tiles(
        tiles: Tile | Sequence[Tile] | TileIterator,
    ) -> tuple[tuple[Tile, ...], bool | None, TileIterator | None]:
        if isinstance(tiles, TileIterator):
            return tiles.tiles(), tiles.gpu, tiles
        if isinstance(tiles, Tile):
            return (tiles,), None, None
        out = tuple(tiles)
        if not out or not all(isinstance(t, Tile) for t in out):
            raise TidaError("compute expects a Tile, a sequence of Tiles, or a TileIterator")
        return out, None, None

    def compute(
        self,
        tiles: Tile | Sequence[Tile] | TileIterator,
        kernel: KernelSpec,
        *,
        params: dict[str, Any] | None = None,
        gpu: bool | None = None,
        bounds: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
        prefetch_depth: int | None = None,
    ) -> float:
        """Execute ``kernel`` over the tiles' iteration space.

        ``tiles`` may be a single tile, a tuple of tiles (multi-input
        computation — all must target the same region box), or a
        :class:`TileIterator` positioned on the current tile(s) (in which
        case the iterator's GPU flag applies).  ``bounds`` restricts the
        iteration space to global ``[lo, hi)`` (the two-dimension compute
        variant of §V).  Returns the virtual completion time.

        When driven by a sequential iterator, the next ``prefetch_depth``
        regions are uploaded asynchronously while this region's kernel
        runs (see :mod:`repro.core.prefetch`); the per-call value
        overrides the library-wide ``prefetch_depth``.
        """
        tile_tuple, it_gpu, iterator = self._normalize_tiles(tiles)
        if gpu is None:
            gpu = bool(it_gpu)
        if bounds is not None:
            lo, hi = bounds
            tile_tuple = tuple(t.subrange(lo, hi) for t in tile_tuple)

        rid = tile_tuple[0].rid
        box = tile_tuple[0].box
        for t in tile_tuple[1:]:
            if t.rid != rid or t.box != box:
                raise TidaError(
                    "all tiles of one compute call must cover the same region box"
                )
        names = []
        for t in tile_tuple:
            if t.array is None:
                raise TidaError("tiles passed to compute must come from a tileArray")
            names.append(self.name_of(t.array))

        lo, hi = tile_tuple[0].local_bounds
        for t in tile_tuple[1:]:
            if t.local_bounds != (lo, hi):
                raise TidaError(
                    "tiles disagree on local bounds (fields must share ghost width)"
                )
        params = dict(params or {})
        n_cells = box.size
        ndim = box.ndim

        if not gpu:
            regions = [self._managers[n].request_host(rid) for n in names]
            # §IV-A cache model: the tile's working set is its cells across
            # every accessed field (stencil halos are a lower-order term)
            working_set = n_cells * sum(
                self.field(n).dtype.itemsize for n in names
            )
            duration = kernel.duration_on_cpu(
                self.runtime.machine, n_cells, working_set_bytes=working_set
            )
            end = self.runtime.host_compute(f"cpu:{kernel.name}", duration, n_cells=n_cells)
            if self.runtime.functional and kernel.body is not None:
                kernel.body(*[r.array for r in regions], lo=lo, hi=hi, **params)
            return end

        managers = [self._managers[n] for n in names]
        # schedule-aware eviction sees the sweep's remaining order before
        # any placement decision for this region is made
        self._prefetcher.feed_schedule(managers, iterator)
        buffers = []
        ready: list[float] = []
        for mgr in managers:
            buf, _t_ready = mgr.request_device(rid)
            buffers.append(buf)
            # individual dep times, not their max: the checker resolves
            # each component to an ordering edge (see device_ready_deps)
            ready.extend(mgr.device_ready_deps(rid))
        qid = managers[0].queue_id_for(rid)
        end = self._launch_with_retry(
            kernel.name, rid,
            lambda: self.acc.parallel_loop(
                kernel,
                deviceptr=buffers,
                n_cells=n_cells,
                collapse=ndim,
                loop_dims=ndim,
                async_=qid,
                vector_length=self.vector_length,
                after=tuple(ready),
                params={"lo": lo, "hi": hi, **params},
                label=f"compute:{kernel.name}:{self.label_prefix}{names[0]}.r{rid}",
            ),
        )
        for mgr in managers:
            mgr.note_device_op(rid, end, covers=True)
        # with the kernel queued, upload the next regions of the sweep so
        # their transfers hide behind it (no-op for unknown schedules)
        depth = self._prefetcher.resolve_depth(iterator, prefetch_depth)
        self._prefetcher.issue(managers, iterator, depth)
        return end

    def parallel_for(
        self,
        tiles: Tile | Sequence[Tile] | TileIterator,
        body,
        *,
        bytes_per_cell: float,
        flops_per_cell: float = 0.0,
        gpu: bool | None = None,
        params: dict[str, Any] | None = None,
        name: str = "lambda",
        bounds: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    ) -> float:
        """The custom for-loop the paper wished for (§V-A) — an ad-hoc
        lambda without pre-declaring a kernel spec.

        The paper had to route every loop through ``compute`` + a
        pre-structured lambda because OpenACC could not treat captured
        pointers as device pointers inside lambdas.  On this substrate the
        limitation disappears: pass any callable
        ``body(*arrays, lo=..., hi=..., **params)`` plus its per-cell cost
        metadata, and it launches exactly like a declared kernel
        (imperfectly nested loops included — the body is arbitrary code).
        """
        kernel = KernelSpec(
            name=name,
            body=body,
            bytes_per_cell=bytes_per_cell,
            flops_per_cell=flops_per_cell,
        )
        return self.compute(tiles, kernel, gpu=gpu, params=params, bounds=bounds)

    # -- declarative programs (repro.plan) ---------------------------------------

    def run_program(
        self,
        prog,
        *,
        plan=None,
        inputs: dict[str, Any] | None = None,
        env: dict[str, float] | None = None,
        order: str = "sequential",
        order_seed: int | None = None,
        tile_shape: tuple[int, ...] | None = None,
        **plan_kwargs: Any,
    ):
        """Plan and execute a declarative :class:`~repro.plan.Program`.

        When ``plan`` is ``None`` the program is planned first
        (:func:`repro.plan.plan_program` on this library's machine;
        ``plan_kwargs`` — ``n_regions=``, ``eviction=``, … — pin
        individual knobs).  The planner decides *what* to allocate
        (fields, ghost widths, region/slot counts, access modes) and
        which halo exchanges and write-backs to elide; scheduling knobs
        this library was constructed with (``eviction=``,
        ``prefetch_depth=``) keep applying to how the work runs.

        ``inputs`` scatters initial global arrays into fields
        (functional mode); ``env`` seeds the scalar environment that
        ``reduce(store=...)`` / ``scalar(...)`` statements update and
        :func:`repro.plan.ref` params read.  Returns a
        :class:`~repro.plan.ProgramRun`.
        """
        from ..plan.executor import execute_program
        from ..plan.planner import plan_program

        if plan is None:
            free, _total = self.runtime.mem_get_info()
            plan = plan_program(
                prog, machine=self.runtime.machine, free_memory=free,
                **plan_kwargs,
            )
        elif plan_kwargs:
            raise TidaError(
                "pass planner knobs or a ready plan, not both: "
                f"{sorted(plan_kwargs)}"
            )
        return execute_program(
            self, prog, plan, inputs=inputs, env=env,
            order=order, order_seed=order_seed, tile_shape=tile_shape,
        )

    # -- reductions -----------------------------------------------------------------

    def reduce_field(
        self,
        names: str | Sequence[str],
        spec,
        *,
        gpu: bool = True,
        params: dict[str, Any] | None = None,
    ) -> float:
        """Reduce over the whole domain of one or more fields.

        GPU path: one partial-reduction kernel per region on the region's
        slot stream, a single batched download of the scalar partials, one
        synchronize, and a host-side fold — so partials of one region
        compute while another region's kernel still runs.  CPU path: host
        roofline time per region plus the fold.

        ``spec`` is a :class:`~repro.kernels.reductions.ReductionSpec`.
        Returns the folded value (identity for an empty domain).
        """
        if isinstance(names, str):
            names = [names]
        arrays = [self.field(n) for n in names]
        first = arrays[0]
        for other in arrays[1:]:
            if not first.compatible_with(other):
                raise TidaError("reduce_field requires compatible fields")
        params = dict(params or {})
        cost_kernel = spec.as_kernel()
        result = spec.identity

        if not gpu:
            for rid in range(first.n_regions):
                regions = [self._managers[n].request_host(rid) for n in names]
                region = regions[0]
                n_cells = region.box.size
                duration = cost_kernel.duration_on_cpu(self.runtime.machine, n_cells)
                self.runtime.host_compute(f"cpu-reduce:{spec.name}", duration)
                if self.runtime.functional:
                    lo, hi = region.local_bounds(region.box)
                    partial = spec.body(*[r.array for r in regions], lo=lo, hi=hi, **params)
                    result = spec.combine(result, partial)
            return result

        # device partials buffer: one scalar per region
        partials_dev = self.runtime.malloc((first.n_regions,), label=f"partials:{spec.name}")
        partials_host = self.runtime.malloc_pinned((first.n_regions,), label=f"partials:{spec.name}")
        managers = [self._managers[n] for n in names]
        for mgr in managers:
            mgr.set_schedule(range(first.n_regions))
        last_stream = None
        kernel_ends: list[float] = []
        values: list[float] = []
        for rid in range(first.n_regions):
            buffers = []
            ready: list[float] = []
            for mgr in managers:
                buf, _t_ready = mgr.request_device(rid)
                buffers.append(buf)
                ready.extend(mgr.device_ready_deps(rid))
            region = first.region(rid)
            lo, hi = region.local_bounds(region.box)
            qid = managers[0].queue_id_for(rid)
            end = self._launch_with_retry(
                spec.name, rid,
                lambda: self.acc.parallel_loop(
                    cost_kernel,
                    deviceptr=buffers,
                    n_cells=region.box.size,
                    collapse=region.ndim,
                    loop_dims=region.ndim,
                    async_=qid,
                    vector_length=self.vector_length,
                    after=tuple(ready),
                    params={"lo": lo, "hi": hi},
                    label=f"reduce:{spec.name}:r{rid}",
                ),
            )
            for mgr in managers:
                mgr.note_device_op(rid, end, covers=True)
            last_stream = managers[0].slot_for(rid).stream
            kernel_ends.append(end)
            if self.runtime.functional:
                partial = spec.body(*[b.array for b in buffers], lo=lo, hi=hi, **params)
                partials_dev.array[rid] = partial
                values.append(partial)
        # one batched download of all partials after every kernel.  Each
        # kernel's ``after=ready`` already folds in every involved field's
        # uploads, so this covers all managers — not just names[0]'s
        # streams (which would ignore the other fields' transfer queues).
        self.runtime.memcpy_async(
            partials_host, partials_dev,
            last_stream if last_stream is not None else self.runtime.default_stream,
            after=tuple(kernel_ends),
            label=f"d2h:partials:{spec.name}",
        )
        self.runtime.stream_synchronize(
            last_stream if last_stream is not None else self.runtime.default_stream
        )
        if self.runtime.functional:
            for v in values:
                result = spec.combine(result, v)
        # host fold over n_regions scalars: negligible but accounted
        self.runtime.host_compute(
            f"fold:{spec.name}", first.n_regions / self.runtime.machine.cpu.dp_flops
        )
        self.runtime.free(partials_dev)
        self.runtime.free_host(partials_host)
        return result

    # -- ghost exchange, swap, synchronization ------------------------------------

    def fill_boundary(
        self, name: str, bc: BoundaryCondition | None = None, *, safe: bool = False
    ) -> None:
        """Hybrid CPU/GPU ghost update for field ``name`` (§IV-B.6).

        ``safe=True`` closes the cross-stream write-after-read hazard with
        events (see :func:`~repro.core.ghost.fill_boundary_hybrid`)."""
        fill_boundary_hybrid(self, name, bc, safe=safe)

    def swap(self, name_a: str, name_b: str) -> None:
        """Exchange two fields (old/new time levels) without moving data.

        Pure renaming: host allocations, device slots, streams and cache
        state all travel with the array."""
        ta_a, ta_b = self.field(name_a), self.field(name_b)
        # iteration boundary: the time-step loop swaps old/new exactly once
        # per step, so this mark segments the trace for per-iteration
        # overlap-efficiency reporting (obs.critpath)
        self.trace.mark("iteration", self.now, fields=[name_a, name_b])
        self._fields[name_a], self._fields[name_b] = ta_b, ta_a
        self._managers[name_a], self._managers[name_b] = (
            self._managers[name_b],
            self._managers[name_a],
        )
        self._names_by_array[id(ta_a)] = name_b
        self._names_by_array[id(ta_b)] = name_a

    def synchronize(self) -> float:
        """Drain all device work (``acc wait`` over every queue)."""
        return self.acc.wait()

    def wait_own(self) -> float:
        """Drain this library's own device work (job-scoped ``acc wait``).

        Synchronizes exactly the streams this library's fields use — every
        slot stream and write-back stream of its managers, plus the default
        stream.  On a dedicated runtime that is the same stream set
        :meth:`synchronize` drains; under the multi-tenant service it scopes
        the paper's §IV-B.6 barrier to the one job instead of flooring the
        shared clock at every co-running tenant's backlog.
        """
        rt = self.runtime
        end = rt.now
        own: dict[int, Any] = {}
        for mgr in self._managers.values():
            for slot in mgr.slots:
                own.setdefault(slot.queue_id, slot.stream)
            own.setdefault(mgr._wb_qid, mgr._wb_stream)
        # sync in activity-queue creation order, default stream last — the
        # exact order acc.wait() drains, so a dedicated runtime sees a
        # byte-identical schedule either way
        for qid in sorted(own):
            end = max(end, rt.stream_synchronize(own[qid]))
        return max(end, rt.stream_synchronize(rt.default_stream))

    # -- results --------------------------------------------------------------------

    def _require_functional(self, what: str) -> None:
        if not self.runtime.functional:
            raise TimingModeError(
                f'{what} needs numeric field data, but this is a timing-only '
                f'run (mode="timing"): buffers carry no arrays.  Re-run with '
                f'mode="functional" (functional=True) to read results back.'
            )

    def gather(self, name: str) -> np.ndarray:
        """Download field ``name`` and assemble the global interior array.

        Functional mode only: a timing-only run has no values to gather
        (use :meth:`~repro.core.tile_acc.TileAcc.flush_to_host` to account
        the downloads without touching data)."""
        self._require_functional(f"gather({name!r})")
        mgr = self.manager(name)
        mgr.flush_to_host()
        return self.field(name).to_global()

    def scatter(self, name: str, arr: np.ndarray) -> None:
        """Overwrite field ``name`` from a global array (host side).

        Regions currently device-resident are downloaded first so the
        last-location cache stays truthful.  Functional mode only."""
        self._require_functional(f"scatter({name!r})")
        mgr = self.manager(name)
        mgr.flush_to_host()
        self.field(name).from_global(arr)

    @property
    def now(self) -> float:
        """Virtual wall-clock, seconds (what the paper's timings measure)."""
        return self.runtime.now

    @property
    def trace(self):
        return self.runtime.trace

    @property
    def metrics(self):
        """The runtime's :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.runtime.metrics

    # -- lifetime -------------------------------------------------------------------

    def close(self) -> None:
        """Drain device work, flush every field to the host, free all slots.

        Fields marked shared (cross-job dedup) are skipped: their slots
        belong to the sharing coordinator, not to this library.
        """
        self.synchronize()
        for name in self.field_names():
            if name in self._shared:
                continue
            mgr = self._managers[name]
            if not mgr.read_only:
                mgr.flush_to_host()
            mgr.release_device_memory()

    def __enter__(self) -> "TidaAcc":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
