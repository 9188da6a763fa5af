"""The DeepUM driver: the four kernel threads tied together (Section 3.1).

In the paper this is a Linux kernel module with a fault-handling thread, a
correlator thread, a prefetching thread, and a migration thread around two
single-producer/single-consumer queues. In the simulator the threads become
event handlers invoked by the engine (which owns time): the engine *is* the
fault-handling and migration machinery, and this driver is the *plumbing*
between the runtime callbacks and a pluggable
:class:`~repro.policies.base.PrefetchPolicy` — the brain supplying
prediction, eviction protection, and pre-eviction. The paper's chaining
prefetcher (:class:`~repro.policies.chaining.ChainingPolicy`) is the
default brain; the policy registry (:mod:`repro.policies`) names the rest.

Only the invalidation registry (Section 5.2) stays driver-owned: dead-block
tracking is a property of the allocator integration, not of any particular
prediction policy, and every policy benefits from it identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..config import DeepUMConfig
from ..policies.eviction import ProtectedLRUEvictionPolicy
from ..sim.engine import UMSimulator
from ..sim.um_space import UMBlock
from .invalidate import InactiveBlockRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..policies.base import PrefetchPolicy

#: Backwards-compatible name: the DeepUM victim policy is the protected-LRU
#: policy parameterized by the chaining prefetcher's window.
DeepUMEvictionPolicy = ProtectedLRUEvictionPolicy


class DeepUMDriver:
    """DriverHooks implementation wiring a prefetch policy into the engine."""

    def __init__(self, engine: UMSimulator, config: DeepUMConfig,
                 policy: Optional["PrefetchPolicy"] = None):
        self.config = config
        self.engine = engine
        if policy is None:
            # Imported here, not at module top: repro.policies implementation
            # modules import repro.core, so the eager import would re-enter
            # this package while it initializes.
            from ..policies.chaining import ChainingPolicy

            policy = ChainingPolicy(engine, config)
        self.policy = policy
        # Component attributes of the chaining policy, surfaced for the
        # observability layer (table health) and existing callers; None for
        # policies without correlation tables.
        self.correlator = getattr(policy, "correlator", None)
        self.prefetcher = getattr(policy, "prefetcher", None)
        self.preevictor = policy.preevictor
        self.invalidation = InactiveBlockRegistry(engine.um, gpu=engine.gpu)
        if not config.enable_invalidation:
            # Victims are then always written back, like the stock driver.
            engine.handler.is_invalidated = lambda blk: False
        # Demand faults that still need room use the policy's victim
        # ordering (invalidated first, predicted-soon blocks last),
        # replacing the stock least-recently-migrated-only policy.
        engine.handler.eviction_policy = policy.eviction_policy
        # The engine consults these hooks before every block access; when a
        # feature is enabled, bind its implementation directly so the
        # per-access dispatch skips the config re-check (the class methods
        # below remain the disabled-feature fallback).
        if config.enable_prefetch:
            self.pop_prefetch = policy.pop_command
        if config.enable_preeviction and policy.preevictor is not None:
            self.background_tick = policy.preevictor.tick

    def attach_recorder(self, recorder) -> None:
        """Thread an observability recorder through the driver threads.

        The policy gets the engine clock so its chain-break instants land
        at the simulated time they happen; the pre-evictor stamps its own
        ticks (it is handed ``now`` by the engine).
        """
        self.policy.attach_recorder(recorder, lambda: self.engine.now)
        self.invalidation.recorder = recorder

    # ------------------------------------------------------------------ #
    # ioctl from the runtime
    # ------------------------------------------------------------------ #

    def notify_execution_id(self, exec_id: int, now: float) -> None:
        """The runtime's pre-launch callback delivering the execution ID."""
        recorder = self.engine.recorder
        if recorder.enabled:
            recorder.set_exec_id(exec_id)
            if self.config.enable_prefetch:
                # Attribution signal: faults under a kernel the policy
                # cannot predict for yet are cold starts, not prediction
                # failures. Only an active prefetcher sends this — its
                # absence tells the decision log the policy cannot predict
                # at all (naive UM).
                recorder.note_kernel_known(self.policy.kernel_known(exec_id))
        self.policy.observe_kernel_launch(exec_id)
        if self.config.enable_prefetch:
            self.policy.start_prefetch(exec_id)

    def notify_pt_block_state(self, pt_block, active: bool) -> None:
        """The PyTorch allocator patch reporting a PT block state change."""
        if self.config.enable_invalidation:
            self.invalidation(pt_block, active)

    # ------------------------------------------------------------------ #
    # DriverHooks (called by the engine)
    # ------------------------------------------------------------------ #

    def on_kernel_launch(self, payload: object, now: float) -> None:
        # The runtime translates payloads to execution IDs; nothing to do
        # here because notify_execution_id is invoked by the runtime wrapper.
        return None

    def on_fault(self, block: UMBlock, now: float) -> None:
        self.policy.observe_fault(block.index)
        if self.config.enable_prefetch:
            self.policy.restart_from_fault(block.index)

    def pop_prefetch(self) -> Optional[int]:
        if not self.config.enable_prefetch:
            return None
        return self.policy.pop_command()

    def push_back_prefetch(self, block_index: int) -> None:
        self.policy.push_back(block_index)

    def background_tick(self, now: float) -> bool:
        if not self.config.enable_preeviction or self.policy.preevictor is None:
            return False
        return self.policy.preevictor.tick(now)

    def on_kernel_end(self, now: float) -> None:
        if self.config.enable_prefetch:
            self.policy.on_kernel_end()

    # ------------------------------------------------------------------ #

    @property
    def correlation_table_bytes(self) -> int:
        return self.policy.table_size_bytes
