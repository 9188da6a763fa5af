"""Property-based tests (hypothesis) on the core data structures."""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import (
    PAGE_SIZE,
    PT_ALLOC_ROUND,
    PT_LARGE_SEGMENT_ROUND,
    PT_SMALL_POOL_THRESHOLD,
    PT_SMALL_SEGMENT,
    UM_BLOCK_SIZE,
    MiB,
)
from repro.core.block_table import BlockCorrelationTable, BlockTableConfig
from repro.core.correlator import Correlator
from repro.core.exec_table import ExecutionCorrelationTable, ExecutionIDTable
from repro.sim.address import align_up, blocks_spanned, pages_spanned
from repro.sim.gpu import GPUMemory
from repro.sim.um_space import UnifiedMemorySpace
from repro.torchsim.allocator import (
    AllocatorStats,
    CachingAllocator,
    TorchSimOOM,
)
from repro.torchsim.backend import BackendOOM, RawGPUBackend, UMBackend


# --------------------------------------------------------------------- #
# address arithmetic
# --------------------------------------------------------------------- #

@given(st.integers(0, 1 << 40), st.integers(1, 1 << 24))
def test_pages_cover_range_exactly(addr, nbytes):
    pages = list(pages_spanned(addr, nbytes))
    assert pages[0] * PAGE_SIZE <= addr
    assert (pages[-1] + 1) * PAGE_SIZE >= addr + nbytes
    assert pages == sorted(set(pages))


@given(st.integers(0, 1 << 40), st.integers(1, 1 << 26))
def test_blocks_cover_range_exactly(addr, nbytes):
    blocks = list(blocks_spanned(addr, nbytes))
    assert blocks[0] * UM_BLOCK_SIZE <= addr
    assert (blocks[-1] + 1) * UM_BLOCK_SIZE >= addr + nbytes
    expected = (addr + nbytes - 1) // UM_BLOCK_SIZE - addr // UM_BLOCK_SIZE + 1
    assert len(blocks) == expected


# --------------------------------------------------------------------- #
# caching allocator invariants
# --------------------------------------------------------------------- #

@st.composite
def alloc_programs(draw):
    """A sequence of sized allocations and (by index) frees."""
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 4 << 20)),
            st.tuples(st.just("free"), st.integers(0, 63)),
        ),
        min_size=1, max_size=60,
    ))
    return ops


@settings(max_examples=60, deadline=None)
@given(alloc_programs())
def test_allocator_blocks_never_overlap(ops):
    alloc = CachingAllocator(UMBackend(um=UnifiedMemorySpace(),
                                       host_capacity=1 << 50))
    live = []
    for op, arg in ops:
        if op == "alloc":
            live.append(alloc.allocate(arg))
        elif live:
            blk = live.pop(arg % len(live))
            alloc.free(blk)
        # Invariant: live (active) blocks never overlap.
        spans = sorted((b.addr, b.addr + b.size) for b in live)
        for (a1, e1), (a2, _) in zip(spans, spans[1:]):
            assert e1 <= a2
    # Invariant: accounting matches the live set.
    assert alloc.stats.allocated_bytes == sum(b.size for b in live)
    assert alloc.stats.allocated_bytes <= alloc.stats.reserved_bytes


@settings(max_examples=40, deadline=None)
@given(alloc_programs())
def test_allocator_segment_blocks_tile_segments(ops):
    """Every segment is exactly tiled by its (active + inactive) blocks."""
    alloc = CachingAllocator(UMBackend(um=UnifiedMemorySpace(),
                                       host_capacity=1 << 50))
    live = []
    for op, arg in ops:
        if op == "alloc":
            live.append(alloc.allocate(arg))
        elif live:
            alloc.free(live.pop(arg % len(live)))
    for seg in alloc.iter_segments():
        cursor = seg.addr
        for blk in seg.blocks:
            assert blk.addr == cursor
            cursor += blk.size
        assert cursor == seg.addr + seg.size


@settings(max_examples=40, deadline=None)
@given(alloc_programs())
def test_allocator_free_lists_hold_only_inactive(ops):
    alloc = CachingAllocator(UMBackend(um=UnifiedMemorySpace(),
                                       host_capacity=1 << 50))
    live = []
    for op, arg in ops:
        if op == "alloc":
            live.append(alloc.allocate(arg))
        elif live:
            alloc.free(live.pop(arg % len(live)))
    for pool in (alloc.small_pool, alloc.large_pool):
        for blk in pool:
            assert not blk.active


class _RefBlock:
    def __init__(self, addr, size, seg):
        self.addr, self.size, self.seg = addr, size, seg
        self.active = False


class _RefSegment:
    def __init__(self, addr, size, pool):
        self.addr, self.size, self.pool = addr, size, pool
        self.blocks = [_RefBlock(addr, size, self)]


class _RefAllocator:
    """Oracle: the caching allocator's policy over plain lists.

    Same pools, best fit, split thresholds, coalescing and flush-on-OOM,
    but blocks live in a per-segment address-ordered list found by
    identity scan, and best fit is a linear minimum over (size, addr).
    """

    def __init__(self, backend):
        self.backend = backend
        self.segments = {}
        self.stats = AllocatorStats()

    def allocate(self, nbytes):
        size = align_up(nbytes, PT_ALLOC_ROUND)
        pool = "large" if size > PT_SMALL_POOL_THRESHOLD else "small"
        fits = [b for seg in self.segments.values() if seg.pool == pool
                for b in seg.blocks if not b.active and b.size >= size]
        if fits:
            block = min(fits, key=lambda b: (b.size, b.addr))
        else:
            block = self._grow(pool, size)
        remainder = block.size - size
        if remainder >= (1 * MiB if pool == "large" else PT_ALLOC_ROUND):
            blocks = block.seg.blocks
            idx = next(i for i, b in enumerate(blocks) if b is block)
            blocks.insert(idx + 1,
                          _RefBlock(block.addr + size, remainder, block.seg))
            block.size = size
            self.stats.splits += 1
        block.active = True
        self.stats.alloc_count += 1
        self.stats.allocated_bytes += block.size
        self.stats.peak_allocated = max(self.stats.peak_allocated,
                                        self.stats.allocated_bytes)
        return block

    def _grow(self, pool, size):
        seg_size = (PT_SMALL_SEGMENT if pool == "small"
                    else align_up(size, PT_LARGE_SEGMENT_ROUND))
        try:
            addr = self.backend.alloc_segment(seg_size)
        except BackendOOM:
            if self.empty_cache() == 0:
                raise TorchSimOOM("nothing left to flush") from None
            try:
                addr = self.backend.alloc_segment(seg_size)
            except BackendOOM as exc:
                raise TorchSimOOM("even after cache flush") from exc
        seg = self.segments[addr] = _RefSegment(addr, seg_size, pool)
        self.stats.reserved_bytes += seg_size
        self.stats.peak_reserved = max(self.stats.peak_reserved,
                                       self.stats.reserved_bytes)
        return seg.blocks[0]

    def free(self, block):
        block.active = False
        self.stats.free_count += 1
        self.stats.allocated_bytes -= block.size
        blocks = block.seg.blocks
        idx = next(i for i, b in enumerate(blocks) if b is block)
        if idx + 1 < len(blocks) and not blocks[idx + 1].active:
            block.size += blocks.pop(idx + 1).size
            self.stats.coalesces += 1
        if idx > 0 and not blocks[idx - 1].active:
            blocks[idx - 1].size += block.size
            blocks.pop(idx)
            self.stats.coalesces += 1

    def empty_cache(self):
        released = 0
        for addr in list(self.segments):
            seg = self.segments[addr]
            if all(not b.active for b in seg.blocks):
                del self.segments[addr]
                self.backend.free_segment(addr)
                released += seg.size
                self.stats.reserved_bytes -= seg.size
        if released:
            self.stats.cache_flushes += 1
        return released


def _check_linked_segments(alloc, ref):
    """Links, tiling, coalescing and pool membership match the oracle."""
    assert sorted(alloc.segments) == sorted(ref.segments)
    for pool in (alloc.small_pool, alloc.large_pool):
        inactive = [b for seg in alloc.segments.values() if seg.pool is pool
                    for b in seg.blocks if not b.active]
        assert sorted(map(id, pool)) == sorted(map(id, inactive))
    for addr, seg in alloc.segments.items():
        blocks = seg.blocks
        assert seg.head is blocks[0] and seg.head.prev is None
        for left, right in zip(blocks, blocks[1:]):
            assert left.next is right and right.prev is left
            assert left.end == right.addr
            assert left.active or right.active, "uncoalesced free neighbours"
        assert blocks[-1].next is None
        assert blocks[0].addr == seg.addr
        assert blocks[-1].end == seg.addr + seg.size
        assert all(b.segment is seg for b in blocks)
        assert seg.fully_free == all(not b.active for b in blocks)
        assert [(b.addr, b.size, b.active) for b in blocks] == [
            (b.addr, b.size, b.active) for b in ref.segments[addr].blocks]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            # Mostly allocs and frees (a free needs a live block, and
            # back-to-back frees are what coalesce across neighbours).
            st.sampled_from(("alloc",) * 3 + ("free",) * 3 + ("flush",)),
            # Small requests pile many blocks into one 2 MiB segment.
            st.integers(1, 64 << 10) | st.integers(1, 4 << 20),
            st.integers(0, 63),
        ),
        min_size=1, max_size=80,
    ),
    st.sampled_from([4 * MiB, 8 * MiB, 24 * MiB, 1 << 40]),
)
def test_allocator_matches_list_based_oracle(ops, capacity):
    """Neighbour-linked split/coalesce reproduces the list-based allocator.

    Same addresses, sizes and stats on every step, under a finite backend
    so cache flushes and OOMs happen too.
    """
    alloc = CachingAllocator(RawGPUBackend(capacity=capacity))
    ref = _RefAllocator(RawGPUBackend(capacity=capacity))
    live = []
    for op, nbytes, victim in ops:
        if op == "alloc":
            try:
                got = alloc.allocate(nbytes)
            except TorchSimOOM:
                with pytest.raises(TorchSimOOM):
                    ref.allocate(nbytes)
            else:
                want = ref.allocate(nbytes)
                assert (got.addr, got.size) == (want.addr, want.size)
                live.append((got, want))
        elif op == "free" and live:
            got, want = live.pop(victim % len(live))
            alloc.free(got)
            ref.free(want)
        elif op == "flush":
            assert alloc.empty_cache() == ref.empty_cache()
        assert alloc.stats == ref.stats
        _check_linked_segments(alloc, ref)


@st.composite
def alloc_periods(draw):
    """A warm-up program, then one period of a periodic alloc/free stream.

    Like a training iteration, the period allocates, frees some of its own
    blocks, and frees the previous period's survivors. Returns the warm-up
    sizes, the period's sizes, and its ops ``("alloc" | "free_cur" |
    "free_prev", allocation index)`` in order.
    """
    warmup = draw(st.lists(st.integers(1, 4 << 20), max_size=6))
    sizes = draw(st.lists(st.integers(1, 64 << 10) | st.integers(1, 4 << 20),
                          min_size=1, max_size=12))
    events = []
    for i in range(len(sizes)):
        at = draw(st.integers(0, 30))
        events.append((at, 0, "alloc", i))
        if draw(st.booleans()):
            events.append((at + draw(st.integers(0, 30)), 1, "free_cur", i))
        else:
            events.append((draw(st.integers(0, 60)), 1, "free_prev", i))
    return warmup, sizes, [(op, i) for _, _, op, i in sorted(events)]


@settings(max_examples=80, deadline=None)
@given(alloc_periods())
def test_allocator_fixed_point_repeats_exactly(program):
    """The lemma behind compiled replay: a period that leaves the allocator
    structure unchanged repeats exactly — same addresses, notifications
    and stats deltas, with the peaks moving by zero."""
    warmup, sizes, period = program
    alloc = CachingAllocator(UMBackend(um=UnifiedMemorySpace(),
                                       host_capacity=1 << 50))
    notes: list = []
    alloc.state_listeners.append(
        lambda blk, active: notes.append((blk.addr, blk.size, active)))
    for nbytes in warmup:
        alloc.allocate(nbytes)

    def run_period(prev):
        cur, addrs = {}, []
        stats = asdict(alloc.stats)
        notes.clear()
        for op, i in period:
            if op == "alloc":
                cur[i] = alloc.allocate(sizes[i])
                addrs.append(cur[i].addr)
            elif op == "free_cur":
                alloc.free(cur.pop(i))
            elif prev is not None:  # the first period has no predecessor
                alloc.free(prev[i])
        delta = {k: v - stats[k] for k, v in asdict(alloc.stats).items()}
        return cur, (addrs, list(notes), delta)

    prev, _ = run_period(None)
    for _ in range(3):
        before = alloc.structure()
        prev, trace = run_period(prev)
        if alloc.structure() != before:
            continue
        assert trace[2]["peak_allocated"] == trace[2]["peak_reserved"] == 0
        prev, again = run_period(prev)
        assert again == trace
        assert alloc.structure() == before


# --------------------------------------------------------------------- #
# GPU residency invariants
# --------------------------------------------------------------------- #

@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["admit", "remove"]),
                          st.integers(0, 15)), max_size=80))
def test_gpu_used_bytes_matches_resident_set(ops):
    um = UnifiedMemorySpace()
    gpu = GPUMemory(capacity_bytes=8 * UM_BLOCK_SIZE)
    clock = 0.0
    for op, idx in ops:
        blk = um.block(idx)
        if blk.populated_pages == 0:
            blk.populate(512)
        if op == "admit":
            if gpu.has_room_for(blk) or gpu.is_resident(blk):
                gpu.admit(blk, clock)
                clock += 1.0
        else:
            gpu.remove(blk)
        assert gpu.used_bytes == sum(
            b.populated_bytes for b in gpu.resident.values()
        )
        assert 0 <= gpu.used_bytes <= gpu.capacity_bytes
        times = [b.last_migrated_at for b in gpu.migration_order()]
        assert times == sorted(times)


# --------------------------------------------------------------------- #
# correlation tables
# --------------------------------------------------------------------- #

@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=200),
       st.integers(1, 4), st.integers(1, 6))
def test_block_table_respects_geometry(pairs, assoc, num_succs):
    table = BlockCorrelationTable(
        BlockTableConfig(num_rows=4, assoc=assoc, num_succs=num_succs)
    )
    for a, b in pairs:
        table.record_successor(a, b)
    rows = {}
    for blk in table.iter_blocks():
        rows.setdefault(blk % 4, []).append(blk)
        assert len(table.successors(blk)) <= num_succs
        assert blk not in table.successors(blk)
    for members in rows.values():
        assert len(members) <= assoc


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=4, max_size=120))
def test_exec_table_predictions_come_from_observations(launches):
    table = ExecutionCorrelationTable()
    hist = [-1, -1, -1, -1]
    observed = set()
    for eid in launches:
        prev = hist[-1]
        if prev != -1:
            table.record((hist[0], hist[1], hist[2]), prev, eid)
            observed.add(((hist[0], hist[1], hist[2]), prev))
        hist = hist[1:] + [eid]
    # Every prediction the table makes corresponds to a real observation.
    for (h, cur) in observed:
        assert table.predict_next(h, cur) is not None


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=50))
def test_exec_id_assignment_is_injective(signatures):
    table = ExecutionIDTable()
    ids = {}
    for sig in signatures:
        eid = table.assign(sig)
        if sig in ids:
            assert ids[sig] == eid
        ids[sig] = eid
    assert len(set(ids.values())) == len(ids)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6),
                          st.lists(st.integers(0, 40), max_size=5)),
                min_size=2, max_size=60))
def test_correlator_never_crashes_and_sizes_monotonic(schedule):
    cor = Correlator(BlockTableConfig(num_rows=8, assoc=2, num_succs=3))
    last_size = 0
    for exec_id, blocks in schedule:
        cor.on_kernel_launch(exec_id)
        for blk in blocks:
            cor.on_fault(blk)
        size = cor.table_size_bytes
        assert size >= last_size  # tables only grow
        last_size = size
