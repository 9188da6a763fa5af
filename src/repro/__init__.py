"""repro: a simulation-based reproduction of DeepUM (ASPLOS 2023).

DeepUM lets PyTorch oversubscribe GPU memory through CUDA Unified Memory,
hiding page-migration cost with correlation prefetching learned from the
GPU fault stream, plus pre-eviction and inactive-block invalidation.

Quick start::

    from repro import DeepUM, SystemConfig
    from repro.models import build_bert

    deepum = DeepUM(SystemConfig.v100_32gb())
    workload = build_bert(deepum.device, batch_size=16, scale=0.125)
    workload.run(5)
    print(deepum.elapsed(), deepum.page_faults)

See ``repro.harness`` for the paper's experiment grid and
``benchmarks/`` for the per-table/figure reproduction harnesses.
"""

from .config import (
    DeepUMConfig,
    FaultCosts,
    GPUSpec,
    HostSpec,
    LinkSpec,
    PowerSpec,
    SystemConfig,
)
from .core import DeepUM
from .baselines import (
    LMS,
    AutoTM,
    Capuchin,
    IdealNoOversubscription,
    LMSMod,
    NaiveUM,
    Sentinel,
    SwapAdvisor,
    VDNN,
)

__version__ = "1.0.0"

__all__ = [
    "DeepUMConfig",
    "FaultCosts",
    "GPUSpec",
    "HostSpec",
    "LinkSpec",
    "PowerSpec",
    "SystemConfig",
    "DeepUM",
    "LMS",
    "LMSMod",
    "NaiveUM",
    "IdealNoOversubscription",
    "VDNN",
    "AutoTM",
    "SwapAdvisor",
    "Capuchin",
    "Sentinel",
    "__version__",
]
