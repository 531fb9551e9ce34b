"""TileAcc: device-memory management, caching, and region transfers (§IV-B).

One ``TileAcc`` manages the device side of one tileArray:

1. **Slot sizing** — it asks ``cudaMemGetInfo`` how much device memory is
   free and creates ``min(n_regions, fits)`` device memory slots, each
   with its own CUDA stream (via OpenACC activity queues, so kernels and
   copies interoperate, §IV-B.1/2).
2. **Caching** — each slot's ``bound`` field is the paper's cache list:
   the id of the region whose data occupies the slot, or -1.  A second
   per-region record tracks the address space where the region was last
   accessed (§III), so repeated same-side accesses move no data.
3. **Transfers** — regions are the transfer unit.  Uploads are
   ``cudaMemcpyAsync`` on the region's slot stream and need no further
   synchronization (in-stream FIFO); downloads are followed by a
   ``cudaStreamSynchronize`` because the caller may read the host data
   immediately (§IV-B.3).
4. **Eviction** — when no slot is free for a requested region, an
   occupant chosen by the eviction policy is downloaded first and then
   the new region is uploaded — this is what lets applications larger
   than device memory run (§IV-B.4, Figs. 7/8).

Deviation from the paper: slot assignment is *associative* with a
pluggable eviction policy (see :mod:`repro.core.slots`) instead of the
fixed ``rid % n_slots`` map (available as ``eviction="modulo"``), and
eviction write-backs go through a dedicated D2H queue so the write-back
and the replacement upload use both copy engines instead of serializing
on one stream.  :meth:`prefetch` uploads a region speculatively ahead of
its compute — the :class:`~repro.core.prefetch.PrefetchScheduler` drives
it from the iterator's known traversal order.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

from ..cuda.runtime import CudaRuntime
from ..errors import CudaMemoryAllocationError, FaultError, ReproError, TileAccError
from ..faults import TRANSIENT_ERRORS
from ..faults.retry import RetryPolicy
from ..openacc.runtime import AccRuntime
from ..sim.device import DeviceBuffer
from ..tida.region import Region
from ..tida.tile_array import TileArray
from .slots import DEVICE, EMPTY, HOST, DeviceSlot, EvictionPolicy, SlotPool, make_policy


class TileAcc:
    """Device-side manager for one tileArray."""

    def __init__(
        self,
        runtime: CudaRuntime,
        acc: AccRuntime,
        tile_array: TileArray,
        *,
        n_slots: int | None = None,
        read_only: bool = False,
        eviction: str | EvictionPolicy | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if eviction is None:
            eviction = "lru"
        if acc.cuda is not runtime:
            raise TileAccError("AccRuntime must be bound to the same CudaRuntime")
        self.runtime = runtime
        self.acc = acc
        self.tile_array = tile_array
        # Extension beyond the paper's last-location model: a field declared
        # read-only (coefficients, lookup tables) never needs write-back.
        # Evictions drop the device copy for free, host requests are free,
        # and both copies stay valid simultaneously.  Host-side updates must
        # be followed by invalidate_device().
        self.read_only = bool(read_only)
        n_regions = tile_array.n_regions

        slot_bytes = max(r.nbytes for r in tile_array.regions)
        free, _total = runtime.mem_get_info()
        fits = free // slot_bytes if slot_bytes > 0 else n_regions
        if n_slots is None:
            n_slots = min(n_regions, int(fits))
        else:
            if n_slots < 1:
                raise TileAccError(f"n_slots must be >= 1, got {n_slots}")
            n_slots = min(n_slots, n_regions)
            if n_slots > fits:
                raise TileAccError(
                    f"{n_slots} slots of {slot_bytes} bytes exceed free device "
                    f"memory ({free} bytes)"
                )
        if n_slots < 1:
            raise TileAccError(
                f"not even one region ({slot_bytes} bytes) fits in free device "
                f"memory ({free} bytes)"
            )
        self.slots: list[DeviceSlot] = []
        for i in range(n_slots):
            qid = acc.new_auto_queue()
            self.slots.append(DeviceSlot(i, qid, acc.queue(qid)))
        self.policy = make_policy(eviction)
        self.pool = SlotPool(self.slots, self.policy, self._resident)
        #: resilience: transient faults on this field's transfers are
        #: retried per this policy; ``None`` means fail fast (the raw
        #: :class:`~repro.errors.CudaError` propagates, pre-PR-3 behaviour)
        self.retry = retry
        #: cleared when OOM degradation sacrifices a slot — in degraded
        #: mode every byte of device memory serves demand traffic
        self.prefetch_enabled = True
        # dedicated write-back queue: eviction D2H runs here while the
        # replacement H2D uses the slot stream — both copy engines busy
        self._wb_qid = acc.new_auto_queue()
        self._wb_stream = acc.queue(self._wb_qid)
        self._location: list[str] = [HOST] * n_regions
        self._ready: list[float] = [0.0] * n_regions
        # per-region completion times of the individual device ops still
        # "live" for ordering purposes (see device_ready_deps); _ready
        # keeps the max-collapsed view for cheap scalar queries
        self._ready_deps: list[tuple[float, ...]] = [()] * n_regions
        # slot index -> completion times the *next* upload into that slot
        # must wait for (eviction write-back, or — when the occupant was
        # dropped without write-back — its outstanding readers).  Never
        # cleared on consumption: a faulted upload re-issued by the retry
        # policy must see the same barrier, and stale entries are covered
        # by the later upload they already ordered.
        self._slot_after: dict[int, tuple[float, ...]] = {}
        # rid -> completion time of an unconsumed speculative upload
        self._inflight: dict[int, float] = {}
        self.h2d_count = 0
        self.d2h_count = 0
        self._last_flush_end = 0.0
        # -- observability: per-field cache accounting ---------------------
        self._obs_field = tile_array.label or f"field@{id(tile_array):x}"
        m = runtime.metrics
        self._m_hits = m.counter(f"cache.hits.{self._obs_field}")
        self._m_misses = m.counter(f"cache.misses.{self._obs_field}")
        self._m_evictions = m.counter(f"cache.evictions.{self._obs_field}")
        self._m_writebacks = m.counter(f"cache.writebacks.{self._obs_field}")
        self._m_writeback_bytes = m.counter(f"cache.writeback_bytes.{self._obs_field}")
        self._m_wb_skipped = m.counter(f"cache.writebacks_skipped.{self._obs_field}")
        self._m_upload_avoided = m.counter(
            f"cache.upload_bytes_avoided.{self._obs_field}"
        )
        self._m_pf_issued = m.counter(f"cache.prefetch_issued.{self._obs_field}")
        self._m_pf_useful = m.counter(f"cache.prefetch_useful.{self._obs_field}")
        self._m_pf_wasted = m.counter(f"cache.prefetch_wasted.{self._obs_field}")
        self._m_stall_avoided = m.counter(
            f"cache.stall_seconds_avoided.{self._obs_field}"
        )
        self._occupancy_track = f"cache_occupancy:{self._obs_field}"
        self._occupied = 0

    # -- observability helpers ------------------------------------------------

    def _set_bound(self, slot: DeviceSlot, rid: int) -> None:
        """Update a slot's cache-list entry and sample the occupancy track."""
        if (slot.bound == EMPTY) and rid != EMPTY:
            self._occupied += 1
        elif (slot.bound != EMPTY) and rid == EMPTY:
            self._occupied -= 1
        slot.bound = rid
        self.runtime.trace.record_counter(
            self._occupancy_track, self.runtime.now, self._occupied
        )

    def _mark(self, decision: str, rid: int, slot: DeviceSlot, **extra) -> None:
        self.runtime.trace.mark(
            decision, self.runtime.now,
            field=self._obs_field, region=rid, slot=slot.index, **extra,
        )

    # -- queries ------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    def _resident(self, rid: int) -> bool:
        """Slot occupants whose device data is current (pool callback)."""
        return rid != EMPTY and self._location[rid] == DEVICE

    def slot_for(self, rid: int) -> DeviceSlot:
        """The slot currently holding region ``rid``'s device binding.

        With associative placement there is no fixed mapping: a region
        has a slot only while bound (after ``request_device``/
        ``prefetch``, until eviction)."""
        self.tile_array.region(rid)  # range check
        slot = self.pool.slot_of(rid)
        if slot is None:
            raise TileAccError(
                f"region {rid} holds no device slot; request_device it first"
            )
        return slot

    def location(self, rid: int) -> str:
        self.tile_array.region(rid)
        return self._location[rid]

    def is_on_device(self, rid: int) -> bool:
        return self._location[rid] == DEVICE and self.pool.slot_of(rid) is not None

    def device_ready(self, rid: int) -> float:
        """Virtual time at which region ``rid``'s device data is valid."""
        return self._ready[rid]

    def device_ready_deps(self, rid: int) -> tuple[float, ...]:
        """The individual op completion times behind :meth:`device_ready`.

        Callers that queue a dependent operation should pass this tuple to
        ``after=`` instead of the max-collapsed :meth:`device_ready`: the
        effective wait is identical (the runtime takes the max), but the
        hazard checker can then resolve *every* component to the operation
        that produced it — a single collapsed float only proves an edge to
        the latest op, leaving the others "ordered by luck".
        """
        return self._ready_deps[rid]

    def _ready_after(self, rid: int) -> tuple[float, ...]:
        return self._ready_deps[rid]

    def note_device_op(self, rid: int, end: float, *, covers: bool = False) -> None:
        """Record that a device operation touching ``rid`` completes at ``end``
        (cross-stream consumers use this as a readiness dependency).

        ``covers=True`` asserts the recorded op was itself ordered after
        every dependency currently in :meth:`device_ready_deps` (its
        ``after=`` included them), so the dep list collapses to just
        ``end`` instead of growing — this is what keeps the list bounded
        across a long run.
        """
        if covers:
            self._ready_deps[rid] = (end,)
        elif end not in self._ready_deps[rid]:
            self._ready_deps[rid] = self._ready_deps[rid] + (end,)
        if end > self._ready[rid]:
            self._ready[rid] = end

    def queue_id_for(self, rid: int) -> int:
        return self.slot_for(rid).queue_id

    def set_schedule(self, rids: Sequence[int]) -> None:
        """Feed the upcoming traversal order to schedule-aware policies."""
        self.policy.set_schedule(rids)

    # -- the cache/transfer protocol (§IV-B.3/4) --------------------------------

    def _drop_inflight(self, rid: int) -> bool:
        """Forget an unconsumed prefetch of ``rid``; True when there was one."""
        if self._inflight.pop(rid, None) is not None:
            self._m_pf_wasted.inc()
            return True
        return False

    def _evict(self, slot: DeviceSlot) -> float:
        """Displace the slot's occupant; returns the write-back completion
        time (0.0 when no write-back was needed) so the replacement upload
        can order itself after it (same buffer)."""
        old = slot.bound
        if old == EMPTY:
            return 0.0
        self._m_evictions.inc()
        wb_end = 0.0
        prefetched = self._drop_inflight(old)
        if self._location[old] == DEVICE:
            if self.read_only or prefetched:
                # host copy authoritative (ro contract) or never written on
                # the device (unconsumed prefetch): drop for free.  The
                # buffer is still a read target of the occupant's queued
                # ops (kernels on *other* fields' streams may read a
                # read-only coefficient slot), so the replacement upload
                # must not overwrite it before they finish.
                self._slot_after[slot.index] = self._ready_after(old)
                self._m_wb_skipped.inc()
                self._mark("cache-evict", old, slot, writeback=False)
                self._location[old] = HOST
            else:
                region = self.tile_array.region(old)
                wb_end = self.runtime.memcpy_async(
                    region.data, slot.buffer, self._wb_stream,
                    after=self._ready_after(old), label=f"evict:{region.label}",
                )
                self._slot_after[slot.index] = (wb_end,)
                self.d2h_count += 1
                self._m_writebacks.inc()
                self._m_writeback_bytes.inc(region.nbytes)
                self._mark("cache-evict", old, slot, writeback=True)
                self._location[old] = HOST
                self.note_device_op(old, wb_end, covers=True)
        else:
            self._mark("cache-evict", old, slot, writeback=False)
            self._slot_after[slot.index] = self._ready_after(old)
        self._set_bound(slot, EMPTY)
        return wb_end

    # -- resilience (fault retry, degradation, emergency flush) ---------------

    def _with_retry(self, op: str, rid: int, issue: Callable[[], float]) -> float:
        """Run ``issue`` under the armed retry policy.

        Transient faults re-issue the operation on the same slot stream
        after a virtual-clock backoff.  Exhaustion flushes every surviving
        region to the host, then raises :class:`FaultError` carrying the
        last underlying error as ``__cause__``.
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
                m.inc(f"faults.retries.{self._obs_field}")
                wait = policy.delay(attempt, key=(self._obs_field, op, rid))
                self.runtime.trace.mark(
                    "fault-retry", self.runtime.now,
                    field=self._obs_field, op=op, region=rid,
                    attempt=attempt, backoff=wait,
                )
                self.runtime.clock.advance(wait)
                continue
            if last is not None:
                m.inc("faults.recovered")
                m.inc(f"faults.recovered.{self._obs_field}")
                self.runtime.trace.mark(
                    "fault-recovered", self.runtime.now,
                    field=self._obs_field, op=op, region=rid, attempts=attempt,
                )
            return result
        self._flush_surviving()
        err = FaultError(
            f"{op} of region {rid} on field {self._obs_field!r} failed after "
            f"{policy.max_attempts} attempts",
            op=op, field=self._obs_field, region=rid,
            attempts=policy.max_attempts,
        )
        self.runtime.notify_incident("fault", err)
        raise err from last

    def _flush_surviving(self) -> None:
        """Emergency download of every device-resident region.

        Runs with injection suspended — the flush that rescues data must
        not itself be sabotaged — and best-effort: one broken region does
        not strand the others.
        """
        plan = self.runtime.faults
        ctx = plan.suspended() if plan is not None else contextlib.nullcontext()
        self.runtime.trace.mark("fault-flush", self.runtime.now, field=self._obs_field)
        with ctx:
            for rid in range(self.tile_array.n_regions):
                try:
                    self.request_host(rid)
                except ReproError:
                    continue

    def _shrink_pool(self, keep: DeviceSlot) -> bool:
        """Sacrifice one slot to relieve device-memory pressure.

        The victim's occupant is written back, its buffer freed, and the
        slot removed from the pool; prefetching is disabled for the rest
        of the run.  Returns False when no slot can be spared.
        """
        if len(self.slots) <= 1:
            return False
        victim = None
        for slot in reversed(self.slots):
            if slot is not keep and slot.buffer is not None:
                victim = slot
                break
        if victim is None:
            return False
        plan = self.runtime.faults
        ctx = plan.suspended() if plan is not None else contextlib.nullcontext()
        with ctx:
            if victim.bound != EMPTY:
                if self._evict(victim):
                    # the write-back D2H must land before the buffer is freed
                    self.runtime.stream_synchronize(self._wb_stream)
            self.runtime.free(victim.buffer)
        victim.buffer = None
        self.slots.remove(victim)
        self.pool.slots.remove(victim)
        self.prefetch_enabled = False
        m = self.runtime.metrics
        m.inc("faults.degraded")
        m.inc(f"faults.degraded.{self._obs_field}")
        self._mark("fault-degrade", EMPTY, victim, slots_left=len(self.slots))
        return True

    def shed_slots(self, n: int = 1) -> int:
        """Voluntarily give back up to ``n`` device slots (QoS shedding).

        The multi-tenant service calls this on a best-effort tenant's
        managers when a priority tenant needs device memory: occupants
        are written back (read-only occupants just dropped), buffers
        freed, and the pool shrinks — the same mechanics as the
        fault-driven :meth:`_shrink_pool`, but *without* the degradation
        framing: prefetch stays enabled (the pool is smaller, not
        broken), and the event lands under ``cache.shed.<field>`` /
        ``qos-shed`` marks rather than the fault counters.  At least one
        slot always survives.  Returns how many slots were shed.
        """
        shed = 0
        m = self.runtime.metrics
        for _ in range(max(0, n)):
            if len(self.slots) <= 1:
                break
            victim = None
            for slot in reversed(self.slots):
                if slot.buffer is not None:
                    victim = slot
                    break
            if victim is None:
                # no slot has a live allocation yet; drop an unbacked one
                victim = self.slots[-1]
            plan = self.runtime.faults
            ctx = plan.suspended() if plan is not None else contextlib.nullcontext()
            with ctx:
                if victim.bound != EMPTY:
                    if self._evict(victim):
                        # the write-back D2H must land before the buffer is freed
                        self.runtime.stream_synchronize(self._wb_stream)
                if victim.buffer is not None:
                    self.runtime.free(victim.buffer)
            victim.buffer = None
            self.slots.remove(victim)
            self.pool.slots.remove(victim)
            shed += 1
            m.inc("cache.shed")
            m.inc(f"cache.shed.{self._obs_field}")
            self._mark("qos-shed", EMPTY, victim, slots_left=len(self.slots))
        return shed

    def _ensure_buffer(self, slot: DeviceSlot, region: Region) -> None:
        shape = region.local_shape
        if slot.buffer is not None and slot.buffer.shape == shape:
            return
        if slot.buffer is not None:
            # realloc for a differently-shaped (edge) region; the eviction
            # download already executed, and the upload below lands in the
            # fresh buffer, so the swap is safe.  Clear the reference first:
            # if the new allocation fails (another allocation raced us for
            # device memory), the slot must not point at freed memory.
            self.runtime.free(slot.buffer)
            slot.buffer = None
        label = f"{self.tile_array.label}.slot{slot.index}"
        policy = self.retry
        if policy is None:
            slot.buffer = self.runtime.malloc(shape, self.tile_array.dtype, label=label)
            return
        m = self.runtime.metrics
        last: Exception | None = None
        failures = 0
        while True:
            try:
                slot.buffer = self.runtime.malloc(
                    shape, self.tile_array.dtype, label=label
                )
            except CudaMemoryAllocationError as exc:
                last = exc
                if self._shrink_pool(keep=slot):
                    # a slot was sacrificed; its memory may satisfy us now
                    continue
                failures += 1
                if failures >= policy.max_attempts:
                    break
                m.inc("faults.retries")
                m.inc(f"faults.retries.{self._obs_field}")
                self.runtime.clock.advance(
                    policy.delay(failures, key=(self._obs_field, "malloc", slot.index))
                )
                continue
            if last is not None:
                m.inc("faults.recovered")
                m.inc(f"faults.recovered.{self._obs_field}")
            return
        self._flush_surviving()
        err = FaultError(
            f"device allocation for field {self._obs_field!r} failed after "
            f"{policy.max_attempts} attempts (pool already shrunk to "
            f"{len(self.slots)} slots)",
            op="malloc", field=self._obs_field, region=region.rid,
            attempts=policy.max_attempts,
        )
        self.runtime.notify_incident("fault", err)
        raise err from last

    def _upload(self, slot: DeviceSlot, rid: int, region: Region, *, label: str) -> float:
        """Evict-if-needed + upload ``rid`` into ``slot`` (shared miss path)."""
        if slot.bound not in (EMPTY, rid):
            self._evict(slot)
        self._ensure_buffer(slot, region)
        # the upload reuses the evicted occupant's buffer: it must wait for
        # the write-back D2H (or the dropped occupant's readers) even
        # though those ran on different streams.  The barrier lives in
        # _slot_after — not a local — so a faulted upload re-issued by
        # _with_retry still waits for the very same write-back instead of
        # racing it.
        end = self.runtime.memcpy_async(
            slot.buffer, region.data, slot.stream,
            after=self._slot_after.get(slot.index, ()) + self._ready_after(rid),
            label=label,
        )
        self.h2d_count += 1
        self._set_bound(slot, rid)
        self._location[rid] = DEVICE
        self._ready[rid] = end
        self._ready_deps[rid] = (end,)
        return end

    def request_device(self, rid: int) -> tuple[DeviceBuffer, float]:
        """Make region ``rid`` resident on the device.

        Returns its device buffer and the virtual time at which the data
        is valid there.  Pure cache hit when the region was last accessed
        on the device (§III's caching).
        """
        region = self.tile_array.region(rid)
        self.policy.note_access(rid)
        slot = self.pool.slot_of(rid)
        if slot is not None and self._location[rid] == DEVICE:
            # §III cache hit: the upload the naive runtime would issue is
            # avoided entirely
            self._m_hits.inc()
            self._m_upload_avoided.inc(region.nbytes)
            self._mark("cache-hit", rid, slot)
            pf_end = self._inflight.pop(rid, None)
            if pf_end is not None:
                # first demand use of a prefetched region: credit the stall
                # a demand upload issued *now* would have cost
                self._m_pf_useful.inc()
                link = self.runtime.machine.link
                cf_end = max(self.runtime.now, self.runtime.h2d_engine.tail) + \
                    link.transfer_time(region.nbytes, direction="h2d", pinned=True)
                self._m_stall_avoided.inc(max(0.0, cf_end - pf_end))
            return slot.buffer, self._ready[rid]
        self._m_misses.inc()
        slot = self.pool.place(rid, protect=self._inflight)
        self._mark("cache-miss", rid, slot, occupant=slot.bound)
        end = self._with_retry(
            "h2d", rid,
            lambda: self._upload(slot, rid, region, label=f"h2d:{region.label}"),
        )
        return slot.buffer, end

    def prefetch(self, rid: int) -> bool:
        """Speculatively upload region ``rid`` ahead of its compute.

        Issued on the target slot's stream, so it overlaps with kernels
        and transfers on other slots.  Declines (returns ``False``) when
        the region is already resident or no slot can take it without
        displacing data the policy knows is needed sooner.
        """
        if not self.prefetch_enabled:
            return False
        region = self.tile_array.region(rid)
        if self._location[rid] == DEVICE and self.pool.slot_of(rid) is not None:
            return False
        protect = set(self._inflight)
        protect.add(rid)
        slot = self.pool.place_for_prefetch(rid, protect=protect)
        if slot is None:
            return False
        self._mark("cache-prefetch", rid, slot, occupant=slot.bound)
        end = self._with_retry(
            "h2d", rid,
            lambda: self._upload(slot, rid, region, label=f"prefetch:{region.label}"),
        )
        self._m_pf_issued.inc()
        self._inflight[rid] = end
        self.policy.note_access(rid)
        return True

    def request_host(self, rid: int, *, sync: bool = True) -> Region:
        """Make region ``rid``'s data current on the host.

        When the region lives on the device, a download is queued on its
        stream and the host *waits* for it — the caller may touch the data
        immediately after this returns (§IV-B.3).

        ``sync=False`` queues the download without blocking the host: the
        caller promises not to act on the data before the copy's virtual
        completion (read it back from :meth:`last_flush_end`).  The
        multi-tenant service uses this so one job's final writeback does
        not floor the shared clock — and thereby every co-running job's
        next issue — at this job's drain point.
        """
        region = self.tile_array.region(rid)
        if self._location[rid] == DEVICE:
            slot = self.pool.slot_of(rid)
            if slot is None:
                raise TileAccError(
                    f"cache inconsistency: region {rid} marked on-device but "
                    f"no slot holds it"
                )
            if self.read_only:
                # host copy never went stale; the device copy stays valid too
                self._m_wb_skipped.inc()
                self._mark("writeback-skip", rid, slot)
                return region
            if self._drop_inflight(rid):
                # unconsumed prefetch: the device copy was never written, so
                # the host copy is already current — no download needed
                self._m_wb_skipped.inc()
                self._mark("writeback-skip", rid, slot, prefetch=True)
                self._location[rid] = HOST
                return region
            def issue() -> float:
                # the after edge matters when a kernel on *another* field's
                # stream wrote this region (cross-manager compute): stream
                # FIFO alone would let the download race that write
                end = self.runtime.memcpy_async(
                    region.data, slot.buffer, slot.stream,
                    after=self._ready_after(rid), label=f"d2h:{region.label}",
                )
                self.d2h_count += 1
                if sync:
                    self.runtime.stream_synchronize(slot.stream)
                return end

            end = self._with_retry("d2h", rid, issue)
            self.note_device_op(rid, end, covers=True)
            self._last_flush_end = max(self._last_flush_end, end)
            self._location[rid] = HOST
        return region

    def last_flush_end(self) -> float:
        """Virtual completion time of the latest writeback issued."""
        return self._last_flush_end

    def flush_to_host(self, *, sync: bool = True) -> float:
        """Download every device-resident region (end-of-run gather).

        Returns the virtual completion time of the last writeback issued
        (0.0 if nothing needed downloading).  With ``sync=False`` the
        downloads are queued but the host does not wait; see
        :meth:`request_host`.
        """
        for rid in range(self.tile_array.n_regions):
            self.request_host(rid, sync=sync)
        return self._last_flush_end

    def invalidate_device(self) -> None:
        """Host data changed for a read-only field: drop all device copies."""
        for rid in list(self._inflight):
            self._drop_inflight(rid)
        for rid in range(self.tile_array.n_regions):
            self._location[rid] = HOST
        for slot in self.slots:
            if slot.bound != EMPTY:
                self._set_bound(slot, EMPTY)

    def release_device_memory(self) -> None:
        """Free all slot buffers (keeps host data; used on teardown)."""
        for slot in self.slots:
            if (
                not self.read_only
                and slot.bound != EMPTY
                and slot.bound not in self._inflight
                and self._location[slot.bound] == DEVICE
            ):
                raise TileAccError(
                    f"region {slot.bound} still dirty on device; flush_to_host first"
                )
        for rid in list(self._inflight):
            self._drop_inflight(rid)
        for slot in self.slots:
            if slot.buffer is not None:
                self.runtime.free(slot.buffer)
                slot.buffer = None
            if slot.bound != EMPTY:
                self._set_bound(slot, EMPTY)
        # no device copies remain anywhere
        for rid in range(self.tile_array.n_regions):
            self._location[rid] = HOST
