"""The unified virtual address space and its UM blocks.

The UM space hands out virtual address ranges (a bump allocator with a free
list — virtual address space is effectively unbounded, which is exactly why
the paper argues UM sidesteps fragmentation) and tracks, per UM block, where
its populated pages live.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..constants import PAGE_SIZE, UM_BLOCK_SIZE
from .address import align_up


class MemAdvise(enum.IntFlag):
    """``cudaMemAdvise``-style per-block allocation hints.

    Hints are advisory inputs to the policies, never mandates: the
    simulator's correctness (what migrates, what faults) is unchanged by
    them; only *victim ordering* and *prefetch seeding* may shift. The
    flags mirror the CUDA advice enum:

    * ``READ_MOSTLY`` — written rarely; cheap to keep resident, expensive
      to re-fetch. Protected-LRU evicts these last among unprotected
      blocks; prefetchers treat them as standing seeds.
    * ``PREFERRED_LOCATION_GPU`` — the caller wants this resident on the
      device; same eviction/seed treatment as ``READ_MOSTLY``.
    * ``PREFERRED_LOCATION_CPU`` — the caller expects CPU residency (e.g.
      a giant embedding table accessed sparsely); the pre-evictor never
      churns on these and the demand path evicts them eagerly.
    * ``ACCESSED_BY`` — both processors touch the range; recorded for
      provenance but currently neutral to victim ordering.

    Flags OR together; ``0`` (no advice) must leave every policy decision
    bit-for-bit identical to a build without the hint API (the golden-cell
    tests pin this).
    """

    NONE = 0
    READ_MOSTLY = 1
    PREFERRED_LOCATION_GPU = 2
    PREFERRED_LOCATION_CPU = 4
    ACCESSED_BY = 8


# The victim-tier masks are plain ints, not MemAdvise members: block
# advice is an int, and ``int & IntFlag`` dispatches to IntFlag.__rand__,
# which builds an enum object on every test of the per-block hot loops.

#: Hints that bias toward device residency (evicted last, seeded first).
ADVISE_STICKY = int(MemAdvise.READ_MOSTLY | MemAdvise.PREFERRED_LOCATION_GPU)
#: The caller expects host residency (evicted first, never pre-evicted).
ADVISE_CPU = int(MemAdvise.PREFERRED_LOCATION_CPU)
#: Every defined advice bit.
ADVISE_ALL = int(sum(MemAdvise))


def advice_labels(advice: int) -> str:
    """Stable human rendering of an advice bitmask (``a|b|c``)."""
    if not advice:
        return "none"
    names = [flag.name for flag in MemAdvise if flag and advice & flag]
    return "|".join(str(n) for n in names)


class BlockLocation(enum.Enum):
    """Where a UM block's valid data currently resides.

    ``UNPOPULATED`` means the range is allocated but holds no valid copy
    anywhere (fresh allocation, or dropped by invalidation): a GPU touch
    materializes pages on the device with *no* PCIe transfer, mirroring
    first-touch population in real UM.
    """

    UNPOPULATED = "unpopulated"
    CPU = "cpu"
    GPU = "gpu"


@dataclass(slots=True)
class UMBlock:
    """One NVIDIA-driver management unit: contiguous 4 KB pages.

    The default capacity is 512 pages (2 MB, the NVIDIA UM block); the
    granularity-ablation benches shrink or grow it. ``populated_pages``
    counts pages that have physical backing (first-touch populated);
    migrations move only populated pages, so a block that backs a small
    tensor transfers only its live pages. ``populated_bytes`` is the same
    quantity in bytes, maintained by :meth:`populate` (the sole writer)
    because every migration, eviction and residency decision reads it.
    """

    index: int
    location: BlockLocation = BlockLocation.UNPOPULATED
    populated_pages: int = 0
    dirty: bool = False
    # Set by the DeepUM invalidation optimization when every byte of this
    # block belongs to inactive PT blocks (Section 5.2).
    invalidated: bool = False
    last_migrated_at: float = -1.0
    capacity_pages: int = 512
    populated_bytes: int = 0
    #: :class:`MemAdvise` bitmask; 0 (the default) means "no advice" and
    #: every consumer must behave exactly as if the field did not exist.
    advice: int = 0

    def populate(self, pages: int) -> None:
        """Reserve ``pages`` additional pages of backing (clamped).

        Location stays UNPOPULATED: pages materialize wherever the first
        touch happens (on the GPU via the fault handler, transfer-free).
        """
        self.populated_pages = min(self.capacity_pages,
                                   self.populated_pages + pages)
        self.populated_bytes = self.populated_pages * PAGE_SIZE


@dataclass(slots=True)
class UMAllocation:
    """A live UM range returned by :meth:`UnifiedMemorySpace.allocate`."""

    addr: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.addr + self.nbytes


@dataclass
class UnifiedMemorySpace:
    """Single address space shared by CPU and GPU (Section 2.2).

    Allocation is virtual: it always succeeds (subject to the host backing
    store limit enforced by the engine, not here). Blocks are materialized
    lazily on first touch.
    """

    #: Driver management granularity; the NVIDIA default is 2 MB. The
    #: granularity ablation overrides it (always a multiple of PAGE_SIZE).
    block_size: int = UM_BLOCK_SIZE
    _next_addr: int = UM_BLOCK_SIZE  # keep address 0 unused as a null guard
    _blocks: dict[int, UMBlock] = field(default_factory=dict)
    _allocs: dict[int, UMAllocation] = field(default_factory=dict)
    _free_ranges: list[UMAllocation] = field(default_factory=list)
    reuse_freed_ranges: bool = True

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.block_size % PAGE_SIZE:
            raise ValueError(
                f"block_size must be a positive multiple of {PAGE_SIZE}, "
                f"got {self.block_size}"
            )
        self._next_addr = self.block_size

    @property
    def pages_per_block(self) -> int:
        return self.block_size // PAGE_SIZE

    def allocate(self, nbytes: int, *, alignment: int = PAGE_SIZE) -> UMAllocation:
        """Reserve a virtual range of ``nbytes``; rounds up to page multiple."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        size = align_up(nbytes, PAGE_SIZE)
        if self.reuse_freed_ranges:
            for i, hole in enumerate(self._free_ranges):
                if hole.nbytes == size and hole.addr % alignment == 0:
                    self._free_ranges.pop(i)
                    alloc = UMAllocation(hole.addr, size)
                    self._allocs[alloc.addr] = alloc
                    return alloc
        addr = align_up(self._next_addr, alignment)
        self._next_addr = addr + size
        alloc = UMAllocation(addr, size)
        self._allocs[addr] = alloc
        return alloc

    def free(self, addr: int) -> None:
        """Release the range starting at ``addr`` (must match an allocation)."""
        alloc = self._allocs.pop(addr, None)
        if alloc is None:
            raise KeyError(f"free of unknown UM address {addr:#x}")
        self._free_ranges.append(alloc)

    def block(self, index: int) -> UMBlock:
        """Return (creating lazily) the UM block object for ``index``."""
        blk = self._blocks.get(index)
        if blk is None:
            blk = UMBlock(index, capacity_pages=self.pages_per_block)
            self._blocks[index] = blk
        return blk

    def known_block(self, index: int) -> UMBlock | None:
        """The block for ``index`` if it has ever been materialized.

        Unlike :meth:`block` this never creates the object, so predictors
        can probe speculative indices without minting zero-byte phantom
        blocks that the migration machinery would then treat as real.
        """
        return self._blocks.get(index)

    def blocks_spanned(self, addr: int, nbytes: int) -> range:
        """Block indices overlapped by a byte range at this granularity."""
        if nbytes <= 0:
            return range(0)
        first = addr // self.block_size
        last = (addr + nbytes - 1) // self.block_size
        return range(first, last + 1)

    def blocks_of(self, addr: int, nbytes: int) -> list[UMBlock]:
        """UM blocks overlapped by a byte range, materialized."""
        return [self.block(i) for i in self.blocks_spanned(addr, nbytes)]

    def advise(self, addr: int, nbytes: int, advice: int) -> list[UMBlock]:
        """OR ``advice`` into every block overlapping the byte range.

        Mirrors ``cudaMemAdvise``: the hint applies at block granularity,
        so a range sharing its edge blocks with other tensors advises
        those neighbours too (exactly the real API's sharp edge).
        Materializes the blocks without populating any pages.
        """
        flags = int(advice)
        if flags and not (0 < flags <= ADVISE_ALL):
            raise ValueError(f"unknown advice bits {advice:#x}")
        blocks = self.blocks_of(addr, nbytes)
        for blk in blocks:
            blk.advice |= flags
        return blocks

    def touch(self, addr: int, nbytes: int) -> list[UMBlock]:
        """First-touch populate the pages of a range; returns its blocks.

        Populated page counts are tracked per block so partially used edge
        blocks transfer fewer bytes.
        """
        blocks = []
        end = addr + nbytes
        for idx in self.blocks_spanned(addr, nbytes):
            blk = self.block(idx)
            lo = max(addr, idx * self.block_size)
            hi = min(end, (idx + 1) * self.block_size)
            pages = (align_up(hi, PAGE_SIZE) - (lo // PAGE_SIZE) * PAGE_SIZE) // PAGE_SIZE
            blk.populate(pages)
            blocks.append(blk)
        return blocks

    @property
    def total_populated_bytes(self) -> int:
        return sum(b.populated_bytes for b in self._blocks.values())

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def iter_blocks(self):
        return iter(self._blocks.values())
