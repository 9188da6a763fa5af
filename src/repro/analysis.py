"""Offline analysis over block-access traces.

Tools for reasoning about a workload's memory behaviour independent of
any policy: reuse-distance profiles (how far apart repeat uses of a block
are, the quantity that decides whether any cache of a given size can
hold it), miss-curve estimation across device sizes, and a Belady (MIN)
simulator giving the information-theoretic lower bound on migrations that
*any* eviction policy — including DeepUM's — must pay.

Access traces are sequences of UM block indices; use
:func:`block_trace_from_workload` to record one from any torchsim
workload.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .sim import UnifiedMemorySpace
from .torchsim.backend import UMBackend
from .torchsim.context import Device, SimpleManager


# --------------------------------------------------------------------- #
# trace recording
# --------------------------------------------------------------------- #

class _TraceRecordingManager(SimpleManager):
    """Compute-free manager that captures block accesses at launch time.

    Addresses must be read while the kernel runs — the tape frees
    activation storages afterwards, detaching their blocks.
    """

    def __init__(self, um: UnifiedMemorySpace):
        super().__init__()
        self.um = um
        self.trace: list[int] = []
        self.kernel_boundaries: list[int] = []

    def run_kernel(self, launch, device) -> None:
        seen: set[int] = set()
        for tensor in launch.operands:
            for idx in self.um.blocks_spanned(tensor.addr, tensor.nbytes):
                if idx not in seen:
                    seen.add(idx)
                    self.trace.append(idx)
        self.kernel_boundaries.append(len(self.trace))


def block_trace_from_workload(build, *, iterations: int = 2,
                              seed: int = 0) -> list[int]:
    """Record the UM-block access sequence of a workload.

    ``build`` is a callable ``device -> Workload`` (e.g.
    ``lambda d: build_bert(d, 8, scale=0.125)``). The workload runs on a
    compute-free recording device; each kernel contributes its operand
    tensors' blocks in first-touch order, deduplicated within the kernel —
    the same decomposition the UM manager performs.
    """
    um = UnifiedMemorySpace()
    manager = _TraceRecordingManager(um)
    device = Device.with_backend(
        UMBackend(um=um, host_capacity=1 << 50), manager, seed=seed)
    device.manager = manager
    workload = build(device)
    manager.trace.clear()
    workload.run(iterations)
    return list(manager.trace)


# --------------------------------------------------------------------- #
# reuse distances
# --------------------------------------------------------------------- #

@dataclass
class ReuseProfile:
    """Stack (unique-block) reuse distances of a trace."""

    distances: list[int] = field(default_factory=list)  # finite reuses only
    cold_misses: int = 0
    accesses: int = 0

    def miss_ratio(self, capacity_blocks: int) -> float:
        """Miss ratio of a fully-associative LRU cache of that capacity.

        By the stack-distance theorem, an access misses iff its reuse
        distance is >= capacity (cold misses always miss).
        """
        if self.accesses == 0:
            return 0.0
        sorted_d = sorted(self.distances)
        hits = bisect.bisect_left(sorted_d, capacity_blocks)
        return 1.0 - hits / self.accesses

    def miss_curve(self, capacities: Sequence[int]) -> dict[int, float]:
        return {c: self.miss_ratio(c) for c in capacities}

    @property
    def working_set_blocks(self) -> int:
        return self.cold_misses  # each distinct block misses cold once


def reuse_profile(trace: Iterable[int]) -> ReuseProfile:
    """Compute stack reuse distances with an order-statistics sweep.

    O(n log n) via a sorted list of last-use positions: the reuse distance
    of an access is the number of *distinct* blocks touched since the
    block's previous use.
    """
    profile = ReuseProfile()
    last_pos: dict[int, int] = {}
    live_positions: list[int] = []  # sorted positions of each block's last use
    for pos, block in enumerate(trace):
        profile.accesses += 1
        prev = last_pos.get(block)
        if prev is None:
            profile.cold_misses += 1
        else:
            idx = bisect.bisect_left(live_positions, prev)
            distance = len(live_positions) - idx - 1
            profile.distances.append(distance)
            live_positions.pop(idx)
        bisect.insort(live_positions, pos)
        last_pos[block] = pos
    return profile


# --------------------------------------------------------------------- #
# Belady (MIN) bound
# --------------------------------------------------------------------- #

@dataclass
class BeladyResult:
    """Outcome of the optimal-eviction simulation."""

    accesses: int
    misses: int
    cold_misses: int
    capacity_blocks: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def capacity_misses(self) -> int:
        return self.misses - self.cold_misses


def belady_misses(trace: Sequence[int], capacity_blocks: int) -> BeladyResult:
    """Misses of Belady's optimal policy on a block trace.

    This is the minimum number of inbound migrations any eviction policy
    could achieve at this capacity — the floor that DeepUM's prefetcher
    tries to *hide* rather than remove. Runs in O(n log n) using
    precomputed next-use indices.
    """
    if capacity_blocks <= 0:
        raise ValueError("capacity must be positive")
    n = len(trace)
    next_use = [n] * n
    upcoming: dict[int, int] = {}
    for pos in range(n - 1, -1, -1):
        next_use[pos] = upcoming.get(trace[pos], n)
        upcoming[trace[pos]] = pos

    resident: set[int] = set()
    # Max-heap by next use, as a sorted list of (-next_use, block) pairs
    # with lazy invalidation.
    import heapq

    heap: list[tuple[int, int]] = []
    block_next: dict[int, int] = {}
    misses = cold = 0
    seen: set[int] = set()
    for pos, block in enumerate(trace):
        if block not in seen:
            seen.add(block)
            cold += 1
        if block in resident:
            block_next[block] = next_use[pos]
            heapq.heappush(heap, (-next_use[pos], block))
            continue
        misses += 1
        if len(resident) >= capacity_blocks:
            while True:
                neg_next, victim = heapq.heappop(heap)
                if victim in resident and block_next.get(victim) == -neg_next:
                    resident.remove(victim)
                    break
        resident.add(block)
        block_next[block] = next_use[pos]
        heapq.heappush(heap, (-next_use[pos], block))
    return BeladyResult(accesses=n, misses=misses, cold_misses=cold,
                        capacity_blocks=capacity_blocks)


def lru_misses(trace: Sequence[int], capacity_blocks: int) -> int:
    """Miss count of plain LRU at the given capacity (for comparison)."""
    if capacity_blocks <= 0:
        raise ValueError("capacity must be positive")
    from collections import OrderedDict

    cache: OrderedDict[int, None] = OrderedDict()
    misses = 0
    for block in trace:
        if block in cache:
            cache.move_to_end(block)
            continue
        misses += 1
        if len(cache) >= capacity_blocks:
            cache.popitem(last=False)
        cache[block] = None
    return misses


@dataclass
class TrafficBound:
    """Migration-traffic floor for a workload at a device size."""

    capacity_blocks: int
    belady: BeladyResult
    lru_misses: int
    block_bytes: int

    @property
    def min_inbound_bytes(self) -> int:
        return self.belady.misses * self.block_bytes

    @property
    def lru_inbound_bytes(self) -> int:
        return self.lru_misses * self.block_bytes


def traffic_bounds(trace: Sequence[int], capacity_blocks: int,
                   *, block_bytes: int = 2 * 1024 * 1024) -> TrafficBound:
    """Belady and LRU inbound-traffic bounds for a trace."""
    return TrafficBound(
        capacity_blocks=capacity_blocks,
        belady=belady_misses(trace, capacity_blocks),
        lru_misses=lru_misses(trace, capacity_blocks),
        block_bytes=block_bytes,
    )


def phase_working_sets(trace: Sequence[int], window: int) -> list[int]:
    """Distinct blocks per fixed-size window (coarse phase profile)."""
    if window <= 0:
        raise ValueError("window must be positive")
    sizes = []
    for start in range(0, len(trace), window):
        sizes.append(len(set(trace[start:start + window])))
    return sizes
