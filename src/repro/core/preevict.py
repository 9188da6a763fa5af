"""Page pre-eviction (Section 5.1).

When free GPU memory drops below a watermark, the pre-evictor evicts blocks
during link idle time — off the fault critical path — so that demand faults
and prefetches find room waiting. Victims must satisfy both paper
conditions: least recently migrated, and *not* expected to be accessed by
the current kernel or the next N predicted kernels (the prefetcher's
protected set).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.recorder import NULL_RECORDER, TRACK_PREEVICT
from ..policies.eviction import ProtectedBlockProvider, preevict_victims
from ..sim.fault_handler import DriverFaultHandler
from ..sim.gpu import GPUMemory
from ..sim.um_space import UMBlock


@dataclass(slots=True)
class PreEvictorStats:
    ticks: int = 0
    evicted_blocks: int = 0
    evicted_bytes: int = 0
    protected_skips: int = 0
    #: Live victims deferred because a sticky :class:`MemAdvise` hint
    #: (READ_MOSTLY / PREFERRED_LOCATION_GPU) asked to keep them resident.
    hint_skips: int = 0


class PreEvictor:
    """Background eviction keeping ``low_watermark`` of capacity free."""

    def __init__(
        self,
        gpu: GPUMemory,
        handler: DriverFaultHandler,
        prefetcher: ProtectedBlockProvider,
        *,
        low_watermark: float = 0.02,
        batch_blocks: int = 16,
    ):
        if not 0.0 < low_watermark < 1.0:
            raise ValueError(f"low_watermark must be in (0, 1), got {low_watermark}")
        if batch_blocks < 1:
            raise ValueError(f"batch_blocks must be >= 1, got {batch_blocks}")
        self.gpu = gpu
        self.handler = handler
        self.prefetcher = prefetcher
        self.low_watermark = low_watermark
        self.batch_blocks = batch_blocks
        self.stats = PreEvictorStats()
        self._rec_on = False
        self.recorder = NULL_RECORDER  # property: also caches enabled flag

    @property
    def recorder(self):
        return self._recorder

    @recorder.setter
    def recorder(self, rec) -> None:
        self._recorder = rec
        self._rec_on = rec.enabled

    def needs_room(self) -> bool:
        return self.gpu.free_bytes < self.low_watermark * self.gpu.capacity_bytes

    def select_victims(self) -> list[UMBlock]:
        """Victims: dead (invalidated) blocks first, then LRU-migrated.

        Invalidated blocks cost nothing to evict (no write-back), so they
        are always preferred; live victims follow the paper's two rules —
        least recently migrated and not expected to be accessed by the
        current or next N kernels (the prefetcher's protected set).
        Selection and skip counting live beside the demand path's, in
        :func:`repro.policies.eviction.preevict_victims`.
        """
        victims, skips, hint_skips = preevict_victims(
            self.gpu, self.prefetcher.protected_blocks(), self.batch_blocks)
        self.stats.protected_skips += skips
        self.stats.hint_skips += hint_skips
        return victims

    def tick(self, now: float) -> bool:
        """One idle-time opportunity; returns True if anything was evicted."""
        if not self.needs_room():
            return False
        victims = self.select_victims()
        if not victims:
            return False
        self.stats.ticks += 1
        if self._rec_on:
            # Victim rationale must be captured before evict() flips the
            # blocks' state (eviction clears residency; a later re-fault on
            # the same block is matched against this decision to detect
            # mispredicted evictions).
            rec = self._recorder
            is_invalidated = self.handler.is_invalidated
            for blk in victims:
                rec.note_victim(
                    blk.index,
                    "invalidated" if is_invalidated(blk) else "lru-cold",
                )
        end = self.handler.evict(victims, now, trigger="preevict")
        self.stats.evicted_blocks += len(victims)
        evicted_bytes = sum(v.populated_bytes for v in victims)
        self.stats.evicted_bytes += evicted_bytes
        if self._rec_on:
            self.recorder.span(TRACK_PREEVICT, "preevict.tick", now, end,
                               args={"blocks": len(victims),
                                     "bytes": evicted_bytes})
        return True
