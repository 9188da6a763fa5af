"""Naive NVIDIA Unified Memory: demand paging, no prefetching.

This is the paper's "UM" baseline: every non-resident access pays the full
fault-handling path, and evictions (least-recently-migrated) happen on the
fault critical path once the device fills.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..sim.engine import UMSimulator
from ..torchsim.backend import UMBackend
from ..torchsim.context import Device
from ..core.replay import IterationReplayer
from ..core.um_manager import UMMemoryManager


class NaiveUM:
    """UM facade with no driver assistance (same interface as DeepUM)."""

    def __init__(self, system: SystemConfig, *, seed: int = 0,
                 block_size: int | None = None):
        self.system = system
        self.engine = UMSimulator(system, block_size=block_size)
        self.manager = UMMemoryManager(
            self.engine, host_capacity=system.host.memory_bytes, runtime=None
        )
        self.device = Device.with_backend(
            UMBackend(um=self.engine.um, host_capacity=system.host.memory_bytes),
            self.manager,
            seed=seed,
        )
        self.device.replayer = IterationReplayer(self.device, self.manager)

    def advise(self, tensor, advice: int) -> list:
        """Apply a madvise-style hint to a tensor's UM range.

        Naive UM has no prefetch policy and keeps the stock
        least-recently-migrated eviction order, so hints are recorded on
        the blocks (and the decision track) but steer nothing — exactly
        the baseline a hinted DeepUM run is compared against.
        """
        return self.manager.advise(tensor.addr, tensor.nbytes, advice)

    def elapsed(self) -> float:
        return self.manager.elapsed()

    def energy_joules(self) -> float:
        return self.engine.energy_joules()

    @property
    def page_faults(self) -> int:
        return self.engine.stats.page_faults

    @property
    def peak_populated_bytes(self) -> int:
        return self.manager.peak_populated_bytes
