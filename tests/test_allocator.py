"""PyTorch-style caching allocator: pools, splitting, coalescing, OOM."""

import pytest

from repro.constants import MiB, PT_SMALL_SEGMENT
from repro.sim.um_space import UnifiedMemorySpace
from repro.torchsim.allocator import CachingAllocator, TorchSimOOM
from repro.torchsim.backend import RawGPUBackend, UMBackend


@pytest.fixture
def alloc():
    um = UnifiedMemorySpace()
    return CachingAllocator(UMBackend(um=um, host_capacity=1 << 40))


def test_small_request_uses_small_pool(alloc):
    block = alloc.allocate(1024)
    assert block.segment.pool is alloc.small_pool
    assert block.segment.size == PT_SMALL_SEGMENT


def test_large_request_uses_large_pool(alloc):
    block = alloc.allocate(2 * MiB)
    assert block.segment.pool is alloc.large_pool


def test_boundary_1mb_is_small(alloc):
    assert alloc.allocate(1 * MiB).segment.pool is alloc.small_pool
    assert alloc.allocate(1 * MiB + 1).segment.pool is alloc.large_pool


def test_sizes_round_to_512(alloc):
    assert alloc.allocate(1).size == 512
    assert alloc.allocate(513).size == 1024


def test_rejects_nonpositive(alloc):
    with pytest.raises(ValueError):
        alloc.allocate(0)


def test_small_segment_is_split_and_reused(alloc):
    a = alloc.allocate(512 * 1024)
    b = alloc.allocate(512 * 1024)
    # Both carved from the same 2 MB segment.
    assert a.segment is b.segment
    assert alloc.stats.splits >= 1


def test_free_marks_inactive_and_pools(alloc):
    block = alloc.allocate(4096)
    alloc.free(block)
    assert not block.active


def test_double_free_raises(alloc):
    block = alloc.allocate(4096)
    alloc.free(block)
    with pytest.raises(ValueError):
        alloc.free(block)


def test_freed_block_is_reused_best_fit(alloc):
    a = alloc.allocate(8192)
    addr = a.addr
    alloc.free(a)
    b = alloc.allocate(8192)
    assert b.addr == addr


def test_best_fit_picks_smallest_sufficient(alloc):
    small = alloc.allocate(4096)
    big = alloc.allocate(16384)
    alloc.free(small)
    alloc.free(big)
    c = alloc.allocate(4096)
    assert c.addr == small.addr


def test_coalescing_merges_neighbours(alloc):
    blocks = [alloc.allocate(4096) for _ in range(4)]
    seg = blocks[0].segment
    assert all(b.segment is seg for b in blocks)
    for b in blocks:
        alloc.free(b)
    # Also free the split remainder; the segment must be one free block.
    live = [b for b in seg.blocks if b.active]
    assert not live
    assert alloc.stats.coalesces >= 3


@pytest.mark.parametrize("order", [(1, 0), (0, 1), (0, 2, 1), (2, 0, 1)])
def test_coalescing_relinks_neighbours(alloc, order):
    """Right, left and two-sided merges leave prev/next links consistent."""
    blocks = [alloc.allocate(4096) for _ in range(4)]
    seg = blocks[0].segment
    for i in order:
        alloc.free(blocks[i])
        tiles = seg.blocks
        assert seg.head is tiles[0] and tiles[0].prev is None
        assert tiles[-1].next is None
        for left, right in zip(tiles, tiles[1:]):
            assert left.next is right and right.prev is left
            assert left.end == right.addr
            assert left.active or right.active
    # The freed prefix is one inactive block ahead of the first live one.
    head = seg.head
    assert not head.active and head.size == 4096 * len(order)
    assert head.next is blocks[len(order)] and blocks[len(order)].prev is head
    assert not seg.fully_free


def test_allocated_bytes_accounting(alloc):
    a = alloc.allocate(1 * MiB)
    size_at_alloc = a.size
    assert alloc.stats.allocated_bytes == size_at_alloc
    alloc.free(a)  # coalescing may grow the PT block object afterwards
    assert alloc.stats.allocated_bytes == 0
    assert alloc.stats.peak_allocated == size_at_alloc


def test_empty_cache_releases_free_segments(alloc):
    a = alloc.allocate(4 * MiB)
    alloc.free(a)
    released = alloc.empty_cache()
    assert released >= 4 * MiB
    assert alloc.reserved_bytes == 0


def test_empty_cache_keeps_segments_with_active_blocks(alloc):
    a = alloc.allocate(4096)
    b = alloc.allocate(4096)
    alloc.free(a)
    assert alloc.empty_cache() == 0  # b pins the 2 MB segment
    assert b.active


def test_backend_oom_triggers_flush_then_raises():
    backend = RawGPUBackend(capacity=4 * MiB)
    alloc = CachingAllocator(backend)
    a = alloc.allocate(2 * MiB)
    alloc.free(a)
    # Cached 2 MB segment + 2 MB of new demand fits only after a flush.
    b = alloc.allocate(3 * MiB)
    assert b.size >= 3 * MiB
    with pytest.raises(TorchSimOOM):
        alloc.allocate(3 * MiB)


def test_fragmentation_can_oom_despite_free_bytes():
    """Split remainders pin segments: the classic LMS fragmentation OOM.

    Two 3 MB allocations reserve two 4 MB segments, each left with a free
    1 MB remainder. 2 MB are free in total, yet a 2 MB request fails: no
    single free block is big enough, no segment is fully free to flush,
    and the backend has no capacity left for a fresh segment.
    """
    backend = RawGPUBackend(capacity=8 * MiB)
    alloc = CachingAllocator(backend)
    a = alloc.allocate(3 * MiB)
    b = alloc.allocate(3 * MiB)
    assert alloc.inactive_cached_bytes == 2 * MiB
    with pytest.raises(TorchSimOOM):
        alloc.allocate(2 * MiB)
    assert a.active and b.active


def test_state_listener_fires_on_transitions(alloc):
    events = []
    alloc.state_listeners.append(lambda blk, active: events.append(active))
    a = alloc.allocate(4096)
    alloc.free(a)
    assert events == [True, False]
