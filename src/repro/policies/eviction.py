"""Eviction policies for the demand-fault path.

The stock driver evicts least-recently-migrated blocks
(:class:`repro.sim.fault_handler.LRUMigratedPolicy`). Prefetching policies
replace it with :class:`ProtectedLRUEvictionPolicy`, which layers two
preferences on top of migration order: invalidated blocks are free to drop,
and blocks the policy predicts for imminent use are spared until the need
is otherwise unmet.
"""

from __future__ import annotations

from typing import Protocol

from ..sim.gpu import GPUMemory
from ..sim.um_space import ADVISE_CPU, ADVISE_STICKY, UMBlock


class ProtectedBlockProvider(Protocol):
    """Anything that can name the blocks predicted for imminent use."""

    def protected_blocks(self) -> set[int]:
        ...


class ProtectedLRUEvictionPolicy:
    """Victim policy for the demand-fault path under a prefetching policy.

    Order of preference: invalidated blocks (free to drop), then
    CPU-preferred blocks (their :class:`~repro.sim.um_space.MemAdvise`
    hint says the caller expects host residency anyway), then
    least-recently-migrated blocks outside the predicted-access window,
    then sticky-advised blocks (``READ_MOSTLY`` /
    ``PREFERRED_LOCATION_GPU`` — evicted last among the unprotected),
    then — only if the need is still unmet — protected blocks in
    migration order. With no hints set the extra tiers are empty and the
    ordering is bit-for-bit the pre-hint one.
    """

    def __init__(self, provider: ProtectedBlockProvider, *,
                 prefer_invalidated: bool, protect_predicted: bool):
        self.provider = provider
        self.prefer_invalidated = prefer_invalidated
        self.protect_predicted = protect_predicted

    def select_victims(self, gpu: GPUMemory, needed_bytes: int,
                       now: float) -> list[UMBlock]:
        protected = (
            self.provider.protected_blocks() if self.protect_predicted else ()
        )
        dead: list[UMBlock] = []
        eager: list[UMBlock] = []
        cold: list[UMBlock] = []
        sticky: list[UMBlock] = []
        hot: list[UMBlock] = []
        for blk in gpu.migration_order():
            if blk.index in protected:
                # Predicted for imminent use: never preferred, even when
                # invalidated (dropping it would just refault at touch).
                hot.append(blk)
            elif self.prefer_invalidated and blk.invalidated:
                dead.append(blk)
            elif blk.advice:  # advisory tiers; empty when no hints are set
                if blk.advice & ADVISE_CPU:
                    eager.append(blk)
                elif blk.advice & ADVISE_STICKY:
                    sticky.append(blk)
                else:
                    cold.append(blk)
            else:
                cold.append(blk)
        victims: list[UMBlock] = []
        reclaimed = 0
        for blk in (*dead, *eager, *cold, *sticky, *hot):
            if reclaimed >= needed_bytes:
                break
            victims.append(blk)
            reclaimed += blk.populated_bytes
        return victims
