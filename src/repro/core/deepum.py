"""DeepUM facade: one object wiring runtime + driver + engine + allocator.

This is the public entry point a user of the library touches::

    system = SystemConfig.v100_32gb()
    deepum = DeepUM(system)
    device = deepum.device          # allocate tensors / build models here
    ... run training ...
    print(deepum.elapsed(), deepum.engine.stats.page_faults)
"""

from __future__ import annotations

from ..config import DeepUMConfig, SystemConfig
from ..policies import build_prefetch_policy
from ..sim.engine import UMSimulator
from ..torchsim.backend import UMBackend
from ..torchsim.context import Device
from .driver import DeepUMDriver
from .replay import IterationReplayer
from .runtime import DeepUMRuntime
from .um_manager import UMMemoryManager


class DeepUM:
    """The full DeepUM stack over a simulated system."""

    def __init__(
        self,
        system: SystemConfig,
        config: DeepUMConfig | None = None,
        *,
        seed: int = 0,
        block_size: int | None = None,
        prefetch_policy: str = "deepum",
    ):
        self.system = system
        self.config = config if config is not None else DeepUMConfig()
        self.prefetch_policy = prefetch_policy
        self.engine = UMSimulator(system, block_size=block_size)
        policy = build_prefetch_policy(prefetch_policy, self.engine,
                                       self.config)
        self.driver = DeepUMDriver(self.engine, self.config, policy)
        self.engine.hooks = self.driver
        self.runtime = DeepUMRuntime(self.driver)
        self.manager = UMMemoryManager(
            self.engine, host_capacity=system.host.memory_bytes, runtime=self.runtime
        )
        self.device = Device.with_backend(
            UMBackend(um=self.engine.um, host_capacity=system.host.memory_bytes),
            self.manager,
            seed=seed,
        )
        self.runtime.attach_allocator(self.device.allocator)
        self.device.replayer = IterationReplayer(self.device, self.manager)

    # ------------------------------------------------------------------ #

    def advise(self, tensor, advice: int) -> list:
        """Apply a madvise-style hint to a tensor's UM range.

        ``advice`` is a :class:`~repro.sim.um_space.MemAdvise` bitmask;
        the hint lands on every UM block the tensor overlaps (block
        granularity, as in real ``cudaMemAdvise``) and is forwarded to
        the active prefetch policy.
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
    def correlation_table_bytes(self) -> int:
        return self.driver.correlation_table_bytes

    @property
    def peak_populated_bytes(self) -> int:
        return self.manager.peak_populated_bytes
