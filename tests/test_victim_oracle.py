"""The shared victim walk against the per-block classifications it replaced.

:mod:`repro.policies.eviction` selects victims for the demand-fault path
and the pre-evictor with one lazy, tiered walk. The two functions below
are the scans it replaced, kept verbatim as the oracle: on random
migration orders, protected sets, invalidated flags and advice masks,
both paths must return the same victims in the same order, and the
pre-evictor must book the same ``protected_skips`` and ``hint_skips``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultCosts, LinkSpec
from repro.constants import UM_BLOCK_SIZE
from repro.core.preevict import PreEvictor
from repro.policies.eviction import ProtectedLRUEvictionPolicy
from repro.sim.fault_handler import DriverFaultHandler
from repro.sim.gpu import GPUMemory
from repro.sim.interconnect import PCIeLink
from repro.sim.um_space import (
    ADVISE_CPU,
    ADVISE_STICKY,
    BlockLocation,
    MemAdvise,
    UnifiedMemorySpace,
)


def oracle_demand_victims(gpu, needed_bytes, protected, prefer_invalidated):
    """``ProtectedLRUEvictionPolicy.select_victims`` before the shared walk."""
    dead = []
    eager = []
    cold = []
    sticky = []
    hot = []
    for blk in gpu.migration_order():
        if blk.index in protected:
            hot.append(blk)
        elif prefer_invalidated and blk.invalidated:
            dead.append(blk)
        elif blk.advice:
            if blk.advice & ADVISE_CPU:
                eager.append(blk)
            elif blk.advice & ADVISE_STICKY:
                sticky.append(blk)
            else:
                cold.append(blk)
        else:
            cold.append(blk)
    victims = []
    reclaimed = 0
    for blk in (*dead, *eager, *cold, *sticky, *hot):
        if reclaimed >= needed_bytes:
            break
        victims.append(blk)
        reclaimed += blk.populated_bytes
    return victims


def oracle_preevict_victims(gpu, protected, batch):
    """``PreEvictor.select_victims`` before the shared walk; returns
    ``(victims, protected_skips, hint_skips)``."""
    victims = []
    live = []
    skips = 0
    hint_skips = 0
    inval_ahead = gpu.invalidated_resident
    for blk in gpu.migration_order():
        if len(live) >= batch and inval_ahead == 0:
            break
        if blk.invalidated:
            inval_ahead -= 1
        if blk.index in protected:
            if len(victims) < batch if blk.invalidated \
                    else len(live) < batch:
                skips += 1
            continue
        if blk.advice and not blk.invalidated:
            if blk.advice & ADVISE_STICKY:
                if len(live) < batch:
                    hint_skips += 1
                continue
            if blk.advice & ADVISE_CPU:
                continue
        if blk.invalidated:
            victims.append(blk)
            if len(victims) >= batch:
                break
        elif len(live) < batch:
            live.append(blk)
    if len(victims) < batch:
        victims.extend(live[: batch - len(victims)])
    return victims, skips, hint_skips


class FixedProtection:
    def __init__(self, protected):
        self.protected = protected

    def protected_blocks(self):
        return self.protected


ADVICE = st.sampled_from([
    0, 0, 0,
    int(MemAdvise.READ_MOSTLY),
    int(MemAdvise.PREFERRED_LOCATION_GPU),
    int(MemAdvise.PREFERRED_LOCATION_CPU),
    int(MemAdvise.ACCESSED_BY),
    int(MemAdvise.PREFERRED_LOCATION_CPU | MemAdvise.ACCESSED_BY),
    int(MemAdvise.PREFERRED_LOCATION_CPU | MemAdvise.READ_MOSTLY),
])


@st.composite
def resident_sets(draw):
    """A GPU holding blocks admitted in a random order, with random sizes,
    advice, invalidated flags and a protected set (which may also name
    blocks that are not resident)."""
    n = draw(st.integers(0, 40))
    order = draw(st.permutations(range(n)))
    um = UnifiedMemorySpace()
    gpu = GPUMemory(capacity_bytes=1 << 40)
    for t, idx in enumerate(order):
        blk = um.block(idx)
        blk.populate(draw(st.integers(1, blk.capacity_pages)))
        blk.location = BlockLocation.CPU
        blk.advice = draw(ADVICE)
        if draw(st.booleans()) and draw(st.booleans()):
            # Flagged before admission and after it: both keep the GPU's
            # invalidated-resident count exact.
            if draw(st.booleans()):
                blk.invalidated = True
                gpu.admit(blk, float(t))
            else:
                gpu.admit(blk, float(t))
                gpu.set_invalidated(blk)
        else:
            gpu.admit(blk, float(t))
    protected = draw(st.sets(st.integers(0, n + 5)))
    if draw(st.booleans()):
        protected = frozenset(protected)
    return um, gpu, protected


def indices(blocks):
    return [blk.index for blk in blocks]


@settings(max_examples=300, deadline=None)
@given(resident_sets(), st.integers(-1, 42 * UM_BLOCK_SIZE), st.booleans(),
       st.booleans())
def test_demand_victims_match_the_per_block_classification(
        state, needed_bytes, prefer_invalidated, protect_predicted):
    _, gpu, protected = state
    policy = ProtectedLRUEvictionPolicy(
        FixedProtection(protected), prefer_invalidated=prefer_invalidated,
        protect_predicted=protect_predicted)
    got = policy.select_victims(gpu, needed_bytes, now=0.0)
    want = oracle_demand_victims(
        gpu, needed_bytes, protected if protect_predicted else (),
        prefer_invalidated)
    assert indices(got) == indices(want)


@settings(max_examples=300, deadline=None)
@given(resident_sets(), st.integers(1, 20))
def test_preevict_victims_and_skips_match_the_ordered_scan(state, batch):
    um, gpu, protected = state
    link = PCIeLink(bandwidth=LinkSpec().bandwidth,
                    latency=LinkSpec().latency)
    handler = DriverFaultHandler(um=um, gpu=gpu, link=link,
                                 costs=FaultCosts())
    pe = PreEvictor(gpu, handler, FixedProtection(protected),
                    batch_blocks=batch)
    want, skips, hint_skips = oracle_preevict_victims(gpu, protected, batch)
    got = pe.select_victims()
    assert indices(got) == indices(want)
    assert pe.stats.protected_skips == skips
    assert pe.stats.hint_skips == hint_skips
