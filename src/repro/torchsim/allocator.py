"""PyTorch-style caching allocator (Section 5.2 of the paper).

Faithful mechanics: two pools split at 1 MB, segments obtained from a
backend (2 MB segments for the small pool, size-rounded segments for the
large pool), best-fit-smallest block selection, block splitting when the
match is much larger than the request, coalescing of adjacent free blocks
on free, cache flush (``empty_cache``) as the OOM fallback, and an
active/inactive state per PT block.

The *inactive listener* hook is this reproduction's version of the paper's
"fewer than ten lines" PyTorch patch: DeepUM subscribes to learn when a PT
block becomes inactive so the driver can invalidate its UM blocks.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..constants import (
    PT_ALLOC_ROUND,
    PT_LARGE_SEGMENT_ROUND,
    PT_SMALL_POOL_THRESHOLD,
    PT_SMALL_SEGMENT,
    MiB,
)
from ..sim.address import align_up
from .backend import BackendOOM, MemoryBackend


class TorchSimOOM(RuntimeError):
    """Allocation failed even after flushing the cache (CUDA OOM error)."""


@dataclass(slots=True)
class Segment:
    """One backend reservation, subdivided into PT blocks.

    The blocks form a doubly linked list in address order starting at
    ``head`` (PyTorch's CUDACachingAllocator links its ``Block``s the same
    way), so splitting and coalescing touch only a block's neighbours.
    """

    addr: int
    size: int
    pool: "Pool"
    head: "PTBlock" = field(init=False)

    @property
    def blocks(self) -> tuple["PTBlock", ...]:
        """The segment's blocks in address order (a read-only snapshot)."""
        out = []
        blk: Optional[PTBlock] = self.head
        while blk is not None:
            out.append(blk)
            blk = blk.next
        return tuple(out)

    @property
    def fully_free(self) -> bool:
        # Free neighbours always coalesce, so a segment with no active
        # block is a single inactive block.
        head = self.head
        return not head.active and head.next is None


@dataclass(slots=True, eq=False)
class PTBlock:
    """A PyTorch memory-pool block ("PT block" in the paper).

    Compared by identity: each object is one block of one segment.
    """

    addr: int
    size: int
    segment: Segment
    active: bool = False
    requested: int = 0
    #: Address-order neighbours within the segment (None at either end).
    prev: Optional["PTBlock"] = None
    next: Optional["PTBlock"] = None

    @property
    def end(self) -> int:
        return self.addr + self.size

    def __repr__(self) -> str:
        state = "active" if self.active else "inactive"
        return f"PTBlock(addr={self.addr:#x}, size={self.size}, {state})"


@dataclass(slots=True)
class Pool:
    """A free list of inactive PT blocks, kept sorted by (size, addr)."""

    name: str
    _keys: list[tuple[int, int]] = field(default_factory=list)
    _blocks: dict[tuple[int, int], PTBlock] = field(default_factory=dict)

    def insert(self, block: PTBlock) -> None:
        key = (block.size, block.addr)
        bisect.insort(self._keys, key)
        self._blocks[key] = block

    def remove(self, block: PTBlock) -> None:
        key = (block.size, block.addr)
        idx = bisect.bisect_left(self._keys, key)
        if idx >= len(self._keys) or self._keys[idx] != key:
            raise KeyError(f"block not in pool {self.name}: {block!r}")
        self._keys.pop(idx)
        del self._blocks[key]

    def best_fit(self, size: int) -> Optional[PTBlock]:
        """Smallest inactive block with size >= requested."""
        idx = bisect.bisect_left(self._keys, (size, 0))
        if idx == len(self._keys):
            return None
        return self._blocks[self._keys[idx]]

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return (self._blocks[k] for k in self._keys)


@dataclass(slots=True)
class AllocatorStats:
    allocated_bytes: int = 0
    reserved_bytes: int = 0
    peak_allocated: int = 0
    peak_reserved: int = 0
    alloc_count: int = 0
    free_count: int = 0
    cache_flushes: int = 0
    splits: int = 0
    coalesces: int = 0


class CachingAllocator:
    """Two-pool caching allocator over a pluggable backend."""

    def __init__(self, backend: MemoryBackend):
        self.backend = backend
        self.small_pool = Pool("small")
        self.large_pool = Pool("large")
        self.segments: dict[int, Segment] = {}
        self.stats = AllocatorStats()
        # DeepUM's PyTorch patch: (block, active) notifications.
        self.state_listeners: list[Callable[[PTBlock, bool], None]] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def allocate(self, nbytes: int) -> PTBlock:
        """Return an active PT block of at least ``nbytes``."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        size = align_up(nbytes, PT_ALLOC_ROUND)
        pool = self._pool_for(size)
        block = pool.best_fit(size)
        if block is None:
            block = self._grow(pool, size)
        else:
            pool.remove(block)
        block = self._maybe_split(block, size, pool)
        block.active = True
        block.requested = nbytes
        self.stats.alloc_count += 1
        self.stats.allocated_bytes += block.size
        self.stats.peak_allocated = max(self.stats.peak_allocated, self.stats.allocated_bytes)
        self._notify(block, active=True)
        return block

    def free(self, block: PTBlock) -> None:
        """Return ``block`` to its pool, marking it inactive and coalescing."""
        if not block.active:
            raise ValueError(f"double free of {block!r}")
        block.active = False
        block.requested = 0
        self.stats.free_count += 1
        self.stats.allocated_bytes -= block.size
        self._notify(block, active=False)
        block = self._coalesce(block)
        block.segment.pool.insert(block)

    def empty_cache(self) -> int:
        """Release fully-free segments back to the backend; returns bytes."""
        released = 0
        for addr in list(self.segments):
            seg = self.segments[addr]
            if seg.fully_free:
                seg.pool.remove(seg.head)
                del self.segments[addr]
                self.backend.free_segment(addr)
                released += seg.size
                self.stats.reserved_bytes -= seg.size
        if released:
            self.stats.cache_flushes += 1
        return released

    @property
    def reserved_bytes(self) -> int:
        return self.stats.reserved_bytes

    @property
    def inactive_cached_bytes(self) -> int:
        return sum(b.size for b in self.small_pool) + sum(b.size for b in self.large_pool)

    def iter_segments(self):
        return iter(self.segments.values())

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _pool_for(self, size: int) -> Pool:
        return self.large_pool if size > PT_SMALL_POOL_THRESHOLD else self.small_pool

    def _segment_size(self, pool: Pool, size: int) -> int:
        if pool is self.small_pool:
            return PT_SMALL_SEGMENT
        return align_up(size, PT_LARGE_SEGMENT_ROUND)

    def _grow(self, pool: Pool, size: int) -> PTBlock:
        """Reserve a new segment; on backend OOM, flush the cache and retry."""
        seg_size = self._segment_size(pool, size)
        try:
            addr = self.backend.alloc_segment(seg_size)
        except BackendOOM:
            if self.empty_cache() == 0:
                raise TorchSimOOM(
                    f"out of memory allocating {size} B (nothing left to flush)"
                ) from None
            try:
                addr = self.backend.alloc_segment(seg_size)
            except BackendOOM as exc:
                raise TorchSimOOM(
                    f"out of memory allocating {size} B even after cache flush"
                ) from exc
        seg = Segment(addr=addr, size=seg_size, pool=pool)
        self.segments[addr] = seg
        self.stats.reserved_bytes += seg_size
        self.stats.peak_reserved = max(self.stats.peak_reserved, self.stats.reserved_bytes)
        block = PTBlock(addr=addr, size=seg_size, segment=seg)
        seg.head = block
        return block

    def _maybe_split(self, block: PTBlock, size: int, pool: Pool) -> PTBlock:
        """Split off the remainder when the block is much larger than needed.

        PyTorch splits small-pool blocks for any remainder >= 512 B and
        large-pool blocks only when the remainder exceeds 1 MB.
        """
        remainder = block.size - size
        threshold = 1 * MiB if pool is self.large_pool else PT_ALLOC_ROUND
        if remainder < threshold:
            return block
        after = block.next
        rest = PTBlock(addr=block.addr + size, size=remainder,
                       segment=block.segment, prev=block, next=after)
        if after is not None:
            after.prev = rest
        block.next = rest
        block.size = size
        pool.insert(rest)
        self.stats.splits += 1
        return block

    def _coalesce(self, block: PTBlock) -> PTBlock:
        """Merge ``block`` with adjacent inactive neighbours in its segment."""
        pool = block.segment.pool
        # Absorb the right neighbour.
        right = block.next
        if right is not None and not right.active:
            pool.remove(right)
            block.size += right.size
            block.next = right.next
            if right.next is not None:
                right.next.prev = block
            self.stats.coalesces += 1
        # Merge into the left neighbour.
        left = block.prev
        if left is not None and not left.active:
            pool.remove(left)
            left.size += block.size
            left.next = block.next
            if block.next is not None:
                block.next.prev = left
            self.stats.coalesces += 1
            block = left
        return block

    def _notify(self, block: PTBlock, *, active: bool) -> None:
        for listener in self.state_listeners:
            listener(block, active)
