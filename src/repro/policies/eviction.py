"""Victim selection for both eviction paths: one walk, one set of tiers.

The stock driver evicts least-recently-migrated blocks
(:class:`repro.sim.fault_handler.LRUMigratedPolicy`). Prefetching policies
replace it with :class:`ProtectedLRUEvictionPolicy` on the demand-fault
path, and add the watermark pre-evictor
(:class:`repro.core.preevict.PreEvictor`); both take their victims from
this module.

Victim tiers, each in migration order (least recently migrated first):

1. *dead* — invalidated blocks, free to drop (no write-back);
2. *eager* — CPU-preferred blocks (``PREFERRED_LOCATION_CPU``: the caller
   expects host residency anyway);
3. *cold* — every other block;
4. *sticky* — ``READ_MOSTLY`` / ``PREFERRED_LOCATION_GPU`` blocks;
5. *hot* — blocks the policy predicts for the current or next N kernels
   (the protected set), dead or not: dropping one would only refault it.

The demand path takes the tiers in that order until the fault's bytes are
covered, so a fault can always make room. The pre-evictor takes only dead
then cold blocks: it defers sticky blocks (counted as ``hint_skips``) and
protected ones (``protected_skips``), and leaves CPU-preferred blocks to
the demand path. With no hints set the advice tiers are empty and both
orders are bit-for-bit the pre-hint ones.

A selection visits only candidates. The walk skips the protected set with
a C-level membership filter, builds each tier only once the ones before
it fall short, and stops as soon as the need is covered.
"""

from __future__ import annotations

from itertools import filterfalse, takewhile
from operator import attrgetter
from typing import Collection, Iterator, Protocol

from ..sim.gpu import GPUMemory
from ..sim.um_space import ADVISE_CPU, ADVISE_STICKY, UMBlock

#: Advice bits that take a live block out of the cold tier.
_NOT_COLD = ADVISE_CPU | ADVISE_STICKY
_invalidated = attrgetter("invalidated")


class ProtectedBlockProvider(Protocol):
    """Anything that can name the blocks predicted for imminent use."""

    def protected_blocks(self) -> set[int]:
        ...


def unprotected(gpu: GPUMemory, protected: Collection[int]) -> Iterator[UMBlock]:
    """Resident blocks outside ``protected``, in migration order."""
    resident = gpu.resident
    return map(resident.__getitem__,
               filterfalse(protected.__contains__, resident))


def demand_order(gpu: GPUMemory, protected: Collection[int], *,
                 dead_first: bool) -> Iterator[UMBlock]:
    """Every resident block in demand-eviction order, tier by tier, lazily.

    The dead tier is skipped outright when no invalidated block is
    resident; eager blocks are yielded as the live pass meets them (cold
    and sticky ones wait for the pass to end); the protected tier is built
    only if a consumer is still asking after all of those.
    """
    live = unprotected(gpu, protected)
    if dead_first and gpu.invalidated_resident:
        yield from filter(_invalidated, unprotected(gpu, protected))
        live = filterfalse(_invalidated, live)
    cold: list[UMBlock] = []
    sticky: list[UMBlock] = []
    for blk in live:
        advice = blk.advice
        if not advice & _NOT_COLD:
            cold.append(blk)
        elif advice & ADVISE_CPU:
            yield blk
        else:
            sticky.append(blk)
    yield from cold
    yield from sticky
    resident = gpu.resident
    yield from map(resident.__getitem__,
                   filter(protected.__contains__, resident))


def preevict_victims(gpu: GPUMemory, protected: Collection[int],
                     batch: int) -> tuple[list[UMBlock], int, int]:
    """Up to ``batch`` pre-eviction victims: dead blocks, then cold ones.

    Returns ``(victims, protected_skips, hint_skips)``. A skip is a
    *deferral*: a protected or sticky block passed over while the batch
    it would have joined (the dead or the live one) still had room.
    """
    if gpu.invalidated_resident:
        return _preevict_ordered(gpu, protected, batch)
    resident = gpu.resident
    # No dead tier: the victims are the first ``batch`` cold blocks, and
    # every skip lies ahead of the last of them (or anywhere, when fewer
    # exist), so both counts follow from where the walk stops.
    live: list[UMBlock] = []
    hint_skips = 0
    seen = 0
    for blk in unprotected(gpu, protected):
        advice = blk.advice
        if not advice & _NOT_COLD:
            live.append(blk)
            if len(live) == batch:
                ahead = takewhile(blk.index.__ne__, resident)
                skips = sum(map(protected.__contains__, ahead))
                return live, skips, hint_skips
        elif advice & ADVISE_STICKY:
            hint_skips += 1
        seen += 1
    return live, len(resident) - seen, hint_skips


def _preevict_ordered(gpu: GPUMemory, protected: Collection[int],
                      batch: int) -> tuple[list[UMBlock], int, int]:
    """:func:`preevict_victims` while invalidated blocks are resident.

    Dead victims are preferred wherever they sit in the migration order,
    so this is one pass over every resident block. It may stop early only
    once the live list is full AND no invalidated block remains ahead; the
    GPU's resident count makes "remains ahead" a counter, not a rescan.
    """
    victims: list[UMBlock] = []
    live: list[UMBlock] = []
    skips = 0
    hint_skips = 0
    inval_ahead = gpu.invalidated_resident
    for blk in gpu.resident.values():
        if len(live) >= batch and inval_ahead == 0:
            break
        if blk.invalidated:
            inval_ahead -= 1
            if blk.index in protected:
                if len(victims) < batch:
                    skips += 1
                continue
            victims.append(blk)
            if len(victims) >= batch:
                break
        elif blk.index in protected:
            if len(live) < batch:
                skips += 1
        elif len(live) < batch:
            advice = blk.advice
            if not advice & _NOT_COLD:
                live.append(blk)
            elif advice & ADVISE_STICKY:
                hint_skips += 1
    victims.extend(live[: batch - len(victims)])
    return victims, skips, hint_skips


class ProtectedLRUEvictionPolicy:
    """Victim policy for the demand-fault path under a prefetching policy.

    Takes :func:`demand_order` until the need is met: dead blocks first
    (with ``prefer_invalidated``), protected blocks last (with
    ``protect_predicted``; otherwise nothing is protected).
    """

    def __init__(self, provider: ProtectedBlockProvider, *,
                 prefer_invalidated: bool, protect_predicted: bool):
        self.provider = provider
        self.prefer_invalidated = prefer_invalidated
        self.protect_predicted = protect_predicted

    def select_victims(self, gpu: GPUMemory, needed_bytes: int,
                       now: float) -> list[UMBlock]:
        if needed_bytes <= 0:
            return []
        protected: Collection[int] = (
            self.provider.protected_blocks() if self.protect_predicted else ()
        )
        victims: list[UMBlock] = []
        reclaimed = 0
        for blk in demand_order(gpu, protected,
                                dead_first=self.prefer_invalidated):
            victims.append(blk)
            reclaimed += blk.populated_bytes
            if reclaimed >= needed_bytes:
                break
        return victims
