"""Pre-eviction policy and inactive-PT-block invalidation."""

import pytest

from repro.config import FaultCosts, LinkSpec
from repro.constants import UM_BLOCK_SIZE
from repro.core.block_table import BlockTableConfig
from repro.core.correlator import Correlator
from repro.core.invalidate import InactiveBlockRegistry
from repro.core.preevict import PreEvictor
from repro.core.prefetcher import ChainingPrefetcher
from repro.sim.fault_handler import DriverFaultHandler
from repro.sim.gpu import GPUMemory
from repro.sim.interconnect import PCIeLink
from repro.sim.um_space import BlockLocation, UnifiedMemorySpace
from repro.torchsim.allocator import CachingAllocator
from repro.torchsim.backend import UMBackend


def make_stack(capacity_blocks=4, watermark=0.3):
    um = UnifiedMemorySpace()
    gpu = GPUMemory(capacity_bytes=capacity_blocks * UM_BLOCK_SIZE)
    link = PCIeLink(bandwidth=LinkSpec().bandwidth, latency=LinkSpec().latency)
    handler = DriverFaultHandler(um=um, gpu=gpu, link=link, costs=FaultCosts())
    cor = Correlator(BlockTableConfig(num_rows=16, assoc=2, num_succs=4))
    pf = ChainingPrefetcher(cor, degree=2)
    pe = PreEvictor(gpu, handler, pf, low_watermark=watermark, batch_blocks=2)
    return um, gpu, handler, cor, pf, pe


def admit(um, gpu, idx, now=0.0):
    blk = um.block(idx)
    blk.populate(512)
    blk.location = BlockLocation.CPU
    gpu.admit(blk, now)
    return blk


def test_watermark_validation():
    um, gpu, handler, cor, pf, _ = make_stack()
    with pytest.raises(ValueError):
        PreEvictor(gpu, handler, pf, low_watermark=1.5)
    with pytest.raises(ValueError):
        PreEvictor(gpu, handler, pf, batch_blocks=0)


def test_no_eviction_with_headroom():
    um, gpu, handler, cor, pf, pe = make_stack(capacity_blocks=4)
    admit(um, gpu, 0)
    assert not pe.needs_room()
    assert pe.tick(0.0) is False


def test_evicts_lru_migrated_when_low():
    um, gpu, handler, cor, pf, pe = make_stack(capacity_blocks=4)
    blocks = [admit(um, gpu, i, now=float(i)) for i in range(4)]
    assert pe.needs_room()
    assert pe.tick(1.0)
    assert not gpu.is_resident(blocks[0])
    assert not gpu.is_resident(blocks[1])  # batch of two
    assert gpu.is_resident(blocks[2])


def test_protected_blocks_skipped():
    um, gpu, handler, cor, pf, pe = make_stack(capacity_blocks=4)
    blocks = [admit(um, gpu, i, now=float(i)) for i in range(4)]
    # Predict blocks 0 and 1 for upcoming kernels.
    cor.on_kernel_launch(1)
    pf.on_kernel_launch(1)
    pf.restart_from_fault(0)
    pf.restart_from_fault(1)
    pe.tick(1.0)
    assert gpu.is_resident(blocks[0]) and gpu.is_resident(blocks[1])
    assert not gpu.is_resident(blocks[2])
    assert pe.stats.protected_skips >= 2


def test_invalidated_blocks_preferred_and_dropped_free():
    um, gpu, handler, cor, pf, pe = make_stack(capacity_blocks=4)
    blocks = [admit(um, gpu, i, now=float(i)) for i in range(4)]
    gpu.set_invalidated(blocks[3])  # newest, but dead
    before_out = handler.link.bytes_to_cpu
    pe.tick(1.0)
    assert not gpu.is_resident(blocks[3])
    assert handler.stats.invalidated_evictions >= 1
    # Dead victim produced no write-back traffic.
    assert handler.link.bytes_to_cpu - before_out <= 1 * UM_BLOCK_SIZE


# --------------------------------------------------------------------- #
# victim-scan early stop and skip accounting (regression pins)
# --------------------------------------------------------------------- #


class FixedProtection:
    """A ProtectedBlockProvider pinning an exact protected set."""

    def __init__(self, protected):
        self._protected = frozenset(protected)

    def protected_blocks(self):
        return self._protected


def make_pe(capacity_blocks, protected, batch_blocks=2):
    um = UnifiedMemorySpace()
    gpu = GPUMemory(capacity_bytes=capacity_blocks * UM_BLOCK_SIZE)
    link = PCIeLink(bandwidth=LinkSpec().bandwidth, latency=LinkSpec().latency)
    handler = DriverFaultHandler(um=um, gpu=gpu, link=link, costs=FaultCosts())
    pe = PreEvictor(gpu, handler, FixedProtection(protected),
                    low_watermark=0.3, batch_blocks=batch_blocks)
    return um, gpu, pe


def test_scan_stops_early_and_unreached_protection_is_not_a_skip():
    """Once the live candidate list is full and no invalidated block
    remains ahead, the scan stops: protected blocks it never reached were
    never deferred and must not inflate ``protected_skips``."""
    um, gpu, pe = make_pe(6, protected={4, 5}, batch_blocks=2)
    for i in range(6):
        admit(um, gpu, i, now=float(i))
    victims = pe.select_victims()
    assert [v.index for v in victims] == [0, 1]
    assert pe.stats.protected_skips == 0


def test_skip_counted_exactly_once_per_deferred_candidate():
    um, gpu, pe = make_pe(4, protected={0}, batch_blocks=2)
    for i in range(4):
        admit(um, gpu, i, now=float(i))
    victims = pe.select_victims()
    # Block 0 (oldest) would have been picked — that is one deferral; the
    # batch refills from 1 and 2 and the scan needs nothing further.
    assert [v.index for v in victims] == [1, 2]
    assert pe.stats.protected_skips == 1


def test_scan_continues_past_full_live_list_for_invalidated_blocks():
    """A protected invalidated block deep in the migration order is still
    reached (free victims are preferred wherever they sit) and its
    deferral is counted."""
    um, gpu, pe = make_pe(4, protected={3}, batch_blocks=2)
    blocks = [admit(um, gpu, i, now=float(i)) for i in range(4)]
    gpu.set_invalidated(blocks[3])
    victims = pe.select_victims()
    assert [v.index for v in victims] == [0, 1]  # live fallback
    assert pe.stats.protected_skips == 1


def test_unprotected_invalidated_block_preempts_live_fallback():
    um, gpu, pe = make_pe(4, protected=(), batch_blocks=2)
    blocks = [admit(um, gpu, i, now=float(i)) for i in range(4)]
    gpu.set_invalidated(blocks[3])
    victims = pe.select_victims()
    assert [v.index for v in victims] == [3, 0]
    assert pe.stats.protected_skips == 0


def test_set_invalidated_keeps_resident_counter_in_sync():
    um, gpu, pe = make_pe(4, protected=(), batch_blocks=2)
    blocks = [admit(um, gpu, i, now=float(i)) for i in range(3)]
    assert gpu.invalidated_resident == 0
    gpu.set_invalidated(blocks[1])
    gpu.set_invalidated(blocks[1])  # idempotent
    assert gpu.invalidated_resident == 1
    gpu.set_invalidated(blocks[1], False)
    assert gpu.invalidated_resident == 0
    # Non-resident blocks flip their flag without touching the counter.
    outside = um.block(9)
    gpu.set_invalidated(outside)
    assert gpu.invalidated_resident == 0
    # Admission and removal of an already-invalidated block both count.
    outside.populate(512)
    gpu.admit(outside, 5.0)
    assert gpu.invalidated_resident == 1
    gpu.remove(outside)
    assert gpu.invalidated_resident == 0


# --------------------------------------------------------------------- #
# invalidation registry
# --------------------------------------------------------------------- #


def make_registry():
    um = UnifiedMemorySpace()
    allocator = CachingAllocator(UMBackend(um=um, host_capacity=1 << 40))
    registry = InactiveBlockRegistry(um)
    allocator.state_listeners.append(registry)
    return um, allocator, registry


def test_inactive_large_block_invalidates_interior_blocks():
    um, allocator, registry = make_registry()
    pt = allocator.allocate(4 * UM_BLOCK_SIZE)
    allocator.free(pt)
    first = -(-pt.addr // UM_BLOCK_SIZE)
    invalidated = [um.block(i).invalidated
                   for i in range(first, pt.end // UM_BLOCK_SIZE)]
    assert all(invalidated)
    assert registry.stats.blocks_invalidated >= 4


def test_partial_blocks_not_invalidated():
    """A UM block only partially covered by the inactive range stays valid."""
    um, allocator, registry = make_registry()
    pt = allocator.allocate(UM_BLOCK_SIZE // 2)
    blk = um.block(pt.addr // UM_BLOCK_SIZE)
    allocator.free(pt)
    assert not blk.invalidated


def test_reactivation_clears_overlapping_flags():
    um, allocator, registry = make_registry()
    pt = allocator.allocate(4 * UM_BLOCK_SIZE)
    addr = pt.addr
    allocator.free(pt)
    pt2 = allocator.allocate(4 * UM_BLOCK_SIZE)
    assert pt2.addr == addr  # pool reuse
    for i in range(addr // UM_BLOCK_SIZE, (addr + 4 * UM_BLOCK_SIZE) // UM_BLOCK_SIZE):
        assert not um.block(i).invalidated
    assert registry.stats.blocks_revalidated >= 4


def test_stats_count_events():
    um, allocator, registry = make_registry()
    pt = allocator.allocate(2 * UM_BLOCK_SIZE)
    allocator.free(pt)
    assert registry.stats.inactive_events == 1
    assert registry.stats.active_events == 1
