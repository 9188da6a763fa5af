"""The unified-memory execution engine.

``UMSimulator`` advances two resource timelines — the GPU compute stream and
the PCIe link — while walking each kernel's UM-block access sequence.
Compute time is spread uniformly over the accesses; before every access the
engine lets background work (the DeepUM migration thread draining the
prefetch queue, and the pre-evictor) use the link while it is idle. A
non-resident access raises a demand fault handled on the critical path by
:class:`~repro.sim.fault_handler.DriverFaultHandler`; an access to a block
whose prefetch is still in flight only pays the residual wait.

This realizes the paper's central performance mechanics:

* prefetched blocks hide their migration under compute,
* the fault queue outranks the prefetch queue (a demand fault's transfer is
  scheduled as soon as the link frees, ahead of queued prefetches),
* pre-eviction keeps headroom so faults skip the eviction step,
* invalidated victims generate no write-back traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from ..config import SystemConfig
from ..obs.recorder import (
    NULL_RECORDER,
    TRACK_FAULT,
    TRACK_GPU,
    TRACK_MIGRATION,
)
from .energy import EnergyMeter
from .fault_handler import DriverFaultHandler, FaultHandlerStats
from .gpu import GPUMemory
from .interconnect import PCIeLink
from .um_space import BlockLocation, UMBlock, UnifiedMemorySpace


class DriverHooks(Protocol):
    """Integration points the DeepUM driver (or a baseline) implements."""

    def on_kernel_launch(self, payload: object, now: float) -> None:
        """Runtime callback delivered just before a kernel launch (ioctl)."""
        ...

    def on_fault(self, block: UMBlock, now: float) -> None:
        """Fault-handling thread passing a faulted block to the others."""
        ...

    def pop_prefetch(self) -> Optional[int]:
        """Next UM block index from the prefetch queue, or None if empty."""
        ...

    def push_back_prefetch(self, block_index: int) -> None:
        """Return an unprocessed command to the front of the queue."""
        ...

    def background_tick(self, now: float) -> bool:
        """Idle-time work (pre-eviction); returns True if progress was made."""
        ...

    def on_kernel_end(self, now: float) -> None:
        """Kernel completion signal (resumes paused chaining)."""
        ...


class NullHooks:
    """No driver assistance: plain NVIDIA UM behaviour (the UM baseline).

    Every hook is a no-op, so the engine skips the background-drain calls
    entirely for exactly this class — a pure fast path with identical
    simulated output. Subclasses that override any hook take the general
    path (the engine keys the fast path on the exact type).
    """

    def on_kernel_launch(self, payload: object, now: float) -> None:
        return None

    def on_fault(self, block: UMBlock, now: float) -> None:
        return None

    def pop_prefetch(self) -> Optional[int]:
        return None

    def push_back_prefetch(self, block_index: int) -> None:
        return None

    def background_tick(self, now: float) -> bool:
        return False

    def on_kernel_end(self, now: float) -> None:
        return None


@dataclass(frozen=True, slots=True)
class BlockAccess:
    """One kernel touching ``pages`` populated pages of a UM block."""

    block: UMBlock
    pages: int


@dataclass(frozen=True, slots=True)
class KernelExecution:
    """Everything the engine needs to simulate one kernel."""

    payload: object
    accesses: Sequence[BlockAccess]
    compute_time: float


@dataclass(slots=True)
class EngineMetrics:
    kernels: int = 0
    compute_time: float = 0.0
    fault_wait_time: float = 0.0
    inflight_wait_time: float = 0.0
    prefetched_blocks: int = 0
    prefetch_declined: int = 0
    resident_hits: int = 0


class UMSimulator:
    """Simulates a stream of kernels over unified memory.

    Parameters
    ----------
    system:
        Machine description (GPU, link, fault costs, power).
    hooks:
        Driver integration (DeepUM or a baseline); defaults to naive UM.
    """

    def __init__(self, system: SystemConfig, hooks: DriverHooks | None = None,
                 *, block_size: int | None = None):
        self.system = system
        from ..constants import UM_BLOCK_SIZE

        # Observers wire a live recorder in with ``repro.obs.attach``.
        self.recorder = NULL_RECORDER
        self.um = UnifiedMemorySpace(
            block_size=block_size if block_size else UM_BLOCK_SIZE
        )
        self.gpu = GPUMemory(capacity_bytes=system.gpu.memory_bytes)
        self.link = PCIeLink(
            bandwidth=system.link.bandwidth,
            latency=system.link.latency,
            page_overhead=system.link.page_overhead,
        )
        self.handler = DriverFaultHandler(
            um=self.um, gpu=self.gpu, link=self.link, costs=system.fault,
        )
        self.energy = EnergyMeter(power=system.power)
        self.hooks: DriverHooks = hooks if hooks is not None else NullHooks()
        self.now = 0.0
        self.metrics = EngineMetrics()
        # Completion instant of in-flight (prefetch) migrations per block.
        self._available_at: dict[int, float] = {}
        # Earliest instant background work may be scheduled: commands and
        # watermark state only exist once the event that produced them has
        # happened, so the migration thread must never book the link (or
        # admit blocks) at instants before that event. Advanced at kernel
        # launch, fault delivery and kernel completion.
        self._bg_earliest = 0.0
        self.gpu.evict_listeners.append(self._on_block_evicted)

    def _on_block_evicted(self, block: UMBlock) -> None:
        """A block left the device: any in-flight completion time recorded
        for it is now meaningless — drop it so a later residency path can't
        inherit a bogus wait."""
        self._available_at.pop(block.index, None)
        if self.recorder.enabled:
            # Invalidated drops set the block UNPOPULATED before listeners
            # fire; write-backs set CPU. The distinction feeds the fault-
            # cause taxonomy (re-faults after a drop are 'invalidated').
            self.recorder.note_evict(
                block.index, block.location is not BlockLocation.CPU
            )

    # ------------------------------------------------------------------ #
    # kernel execution
    # ------------------------------------------------------------------ #

    def execute_kernel(self, kernel: KernelExecution) -> float:
        """Run one kernel; returns its completion time."""
        rec = self.recorder
        hooks = self.hooks
        # Commands enqueued for this kernel (runtime pre-launch callback,
        # launch hook) exist from "now" on — never earlier.
        if self.now > self._bg_earliest:
            self._bg_earliest = self.now
        t = self.now + self.system.gpu.kernel_launch_overhead
        if rec.enabled:
            rec.begin_kernel(getattr(kernel.payload, "name",
                                     str(kernel.payload)), t)
        hooks.on_kernel_launch(kernel.payload, t)
        accesses = kernel.accesses
        n = len(accesses)
        per_access = kernel.compute_time / n if n else 0.0
        # Hooks that never produce background work (NullHooks: no prefetch
        # queue, no pre-evictor) make _drain_background a provable no-op —
        # skip the call per access instead of running its empty loop. The
        # check is on the exact type: subclasses may override hooks.
        drain = None if type(hooks) is NullHooks else self._drain_background
        if n == 0:
            if drain is not None:
                drain(t + kernel.compute_time)
            t += kernel.compute_time
        if drain is not None:
            perform = self._perform_access
            for acc in accesses:
                drain(t)
                t = perform(acc, t)
                t += per_access
        else:
            t = self._perform_accesses_unassisted(accesses, t, per_access)
        metrics = self.metrics
        metrics.kernels += 1
        metrics.compute_time += kernel.compute_time
        self.energy.add_gpu_busy(kernel.compute_time)
        self.now = t
        if t > self._bg_earliest:
            self._bg_earliest = t
        hooks.on_kernel_end(t)
        if rec.enabled:
            rec.end_kernel(t, compute_time=kernel.compute_time)
        return t

    def _perform_accesses_unassisted(
        self, accesses: Sequence[BlockAccess], t: float, per_access: float
    ) -> float:
        """Access loop for hooks with no background work (naive UM).

        With no migration thread to drain between accesses, runs of
        resident hits reduce to clock arithmetic: they are processed in a
        tight loop with the hit counter batched per kernel instead of
        bumped per access. Faults take the identical critical path as
        :meth:`_perform_access`. Simulated output is bit-identical to the
        general path.
        """
        if self.recorder.enabled:
            # Instrumented runs take the fully-attributed path.
            perform = self._perform_access
            for acc in accesses:
                t = perform(acc, t)
                t += per_access
            return t
        resident = self.gpu.resident
        avail = self._available_at
        avail_get = avail.get
        metrics = self.metrics
        handler = self.handler
        hits = 0
        for acc in accesses:
            blk = acc.block
            idx = blk.index
            if idx in resident:
                ready = avail_get(idx)
                if ready is not None and ready > t:
                    metrics.inflight_wait_time += ready - t
                    t = ready
                else:
                    hits += 1
                t += per_access
                continue
            start = t
            handler.stats.fault_batches += 1
            t = handler.resolve_block_fault(blk, t, page_faults=acc.pages)
            metrics.fault_wait_time += t - start
            avail[idx] = t
            self.hooks.on_fault(blk, t)
            if t > self._bg_earliest:
                self._bg_earliest = t
            t += per_access
        metrics.resident_hits += hits
        return t

    def _perform_access(self, acc: BlockAccess, t: float) -> float:
        """Resolve residency for one block access; returns the new GPU time."""
        blk = acc.block
        idx = blk.index
        rec = self.recorder
        if idx in self.gpu.resident:
            ready = self._available_at.get(idx, 0.0)
            if ready > t:
                # Prefetch still in flight: the access faults but the driver
                # finds the migration already running and only waits.
                self.metrics.inflight_wait_time += ready - t
                if rec.enabled:
                    cur = rec.cur
                    cur.accesses += 1
                    cur.inflight_wait += ready - t
                    if rec.note_access(idx):
                        cur.prefetch_hits += 1
                    rec.span(TRACK_GPU, "wait.inflight", t, ready,
                             args={"block": idx})
                return ready
            self.metrics.resident_hits += 1
            if rec.enabled:
                cur = rec.cur
                cur.accesses += 1
                if rec.note_access(idx):
                    cur.prefetch_hits += 1
            return t
        start = t
        # One engine-level demand fault = one fault-buffer interrupt (the
        # buffer holds a single block's pages here); multi-block batches are
        # counted by DriverFaultHandler.handle_batch instead.
        self.handler.stats.fault_batches += 1
        t = self.handler.resolve_block_fault(blk, t, page_faults=acc.pages)
        self.metrics.fault_wait_time += t - start
        self._available_at[idx] = t
        if rec.enabled:
            cur = rec.cur
            cur.accesses += 1
            cur.faults += 1
            cur.fault_wait += t - start
            # Classified before hooks.on_fault: the restart the driver
            # issues for this very fault must not count as its prediction.
            cause = rec.classify_fault(idx, start, t - start)
            rec.instant(TRACK_FAULT, "fault", start,
                        args={"block": idx, "pages": acc.pages,
                              "cause": cause})
        self.hooks.on_fault(blk, t)
        if t > self._bg_earliest:
            self._bg_earliest = t
        return t

    # ------------------------------------------------------------------ #
    # background work (migration thread + pre-evictor)
    # ------------------------------------------------------------------ #

    def _drain_background(self, until: float) -> None:
        """Run the migration thread up to instant ``until``.

        Prefetch commands that need the link are processed while the link
        is idle before ``until``; commands that need no transfer (already
        resident, or unpopulated blocks that admit for free) are processed
        regardless of link state — the migration thread maps them without
        touching PCIe. When the queue is empty, the pre-evictor gets idle
        ticks.

        Nothing is scheduled before ``self._bg_earliest``: a command
        enqueued at kernel-launch time must not occupy an idle link *in the
        past* (it would complete before it was issued), and free admits of
        unpopulated blocks happen at the migration thread's clock, not at
        whatever instant the link last went quiet.
        """
        hooks = self.hooks
        link = self.link
        pop_prefetch = hooks.pop_prefetch
        background_tick = hooks.background_tick
        while True:
            link_idle = link.free_at < until
            idx = pop_prefetch()
            if idx is not None:
                rec = self.recorder
                handler = self.handler
                blk = self.um.block(idx)
                if blk.index in self.gpu.resident:
                    continue
                needs_link = blk.location is BlockLocation.CPU
                if needs_link and not link_idle:
                    # Transfer required but the link is booked past the
                    # horizon: put the command back and stop for now.
                    hooks.push_back_prefetch(idx)
                    break
                earliest = max(link.free_at, self._bg_earliest) \
                    if needs_link else self._bg_earliest
                end = handler.prefetch_block(blk, earliest)
                if end is None:
                    # Device full: prefer the pre-evictor's headroom-making
                    # tick; without one, evict on the migration path (as the
                    # UVM prefetch path does) — off the fault critical path
                    # either way. Eviction may use past idle link time (the
                    # pre-evictor runs continuously and memory pressure
                    # existed throughout the idle window); only the prefetch
                    # *command* is pinned to its issue instant.
                    if not background_tick(link.free_at):
                        handler.make_room(
                            blk.populated_bytes, link.free_at,
                            trigger="migration",
                        )
                    end = handler.prefetch_block(
                        blk, max(link.free_at, earliest)
                    )
                    if end is None:
                        self.metrics.prefetch_declined += 1
                        if rec.enabled:
                            rec.instant(TRACK_MIGRATION, "prefetch.declined",
                                        max(link.free_at, earliest),
                                        args={"block": blk.index})
                        continue
                self._available_at[blk.index] = end
                self.metrics.prefetched_blocks += 1
                if rec.enabled:
                    rec.note_prefetch_done(blk.index)
                    rec.span(TRACK_MIGRATION, "prefetch.block",
                             min(earliest, end), end,
                             args={"block": blk.index,
                                   "free_admit": not needs_link})
                continue
            if not link_idle:
                break
            if not background_tick(link.free_at):
                break

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> FaultHandlerStats:
        return self.handler.stats

    def finish(self) -> None:
        """Synchronize accounting at the end of a run."""
        self.energy.link_busy_time = self.link.busy_time
        if self.link.free_at > self.now:
            self.now = self.link.free_at

    def energy_joules(self) -> float:
        self.finish()
        return self.energy.energy_joules(self.now)
