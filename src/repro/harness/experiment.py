"""Run one workload under one memory-management policy and measure it.

The harness self-calibrates the simulated machine: it measures the
workload's footprint on an unbounded device, then sizes the simulated GPU
so the footprint/GPU-capacity ratio matches the oversubscription the paper
ran at (per model, from its evaluation setup). Host memory keeps the
paper's 16:1 host:GPU proportion. This keeps the *regime* (how hard memory
is oversubscribed) faithful even though the simulation runs at laptop
scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..config import DeepUMConfig, GPUSpec, HostSpec, SystemConfig
from ..constants import MiB
from ..core.deepum import DeepUM
from ..core.um_manager import UMCapacityError
from ..baselines import (
    LMS,
    AutoTM,
    Capuchin,
    IdealNoOversubscription,
    LMSMod,
    NaiveUM,
    Sentinel,
    SwapAdvisor,
    TensorSwapOOM,
    VDNN,
)
from ..models.registry import get_model_config
from ..policies import PREFETCH_POLICIES
from ..torchsim.allocator import TorchSimOOM
from .metrics import Snapshot, WindowMetrics


def _um_policy_facade(prefetch_name: str) -> Callable[..., object]:
    """Facade factory for a registered UM prefetch policy.

    Each entry of :data:`repro.policies.PREFETCH_POLICIES` runs on the full
    DeepUM stack (runtime + driver + engine) with only the driver's brain
    swapped, so every competitor inherits the same simulated machinery the
    paper's policy is measured on.
    """
    def factory(system: SystemConfig,
                config: Optional[DeepUMConfig] = None, *,
                seed: int = 0, **kwargs: object) -> DeepUM:
        return DeepUM(system, config, seed=seed,
                      prefetch_policy=prefetch_name, **kwargs)

    factory.__name__ = f"um_policy_{prefetch_name}"
    return factory


POLICIES: dict[str, Callable[..., object]] = {
    "um": NaiveUM,
    # The UM prefetch-policy family: "deepum" plus every competitor in the
    # policy registry, all sharing the DeepUM facade.
    "deepum": DeepUM,
    **{name: _um_policy_facade(name)
       for name in PREFETCH_POLICIES if name != "deepum"},
    "ideal": IdealNoOversubscription,
    "lms": LMS,
    "lms-mod": LMSMod,
    "vdnn": VDNN,
    "autotm": AutoTM,
    "swapadvisor": SwapAdvisor,
    "capuchin": Capuchin,
    "sentinel": Sentinel,
}


def policy_accepts_config(name: str) -> bool:
    """True if policy ``name`` honors a :class:`DeepUMConfig`.

    Exactly the UM prefetch-policy family does; passing a config to any
    other policy is a silent no-op bug that :func:`build_policy` now
    rejects, so callers constructing configs unconditionally gate on this.
    """
    return name in PREFETCH_POLICIES

#: Footprint / GPU-capacity ratio each model runs at for the *middle* batch
#: of its Fig. 9 grid (estimated from the paper's setup: which batches OOM
#: under LMS, how far each model is from Ideal, and the models' published
#: memory profiles). Other batches inherit the same simulated GPU, so the
#: ratio moves with batch size exactly as in the paper.
OVERSUBSCRIPTION_AT_MID = {
    "gpt2-xl": 2.2,
    "gpt2-l": 2.0,
    "bert-large": 1.5,
    "bert-base": 1.08,
    "dlrm": 4.0,
    "resnet152": 3.2,
    "resnet200": 3.6,
    "resnet200-cifar": 2.2,
    "bert-large-cola": 1.8,
    "dcgan": 2.0,
    "mobilenet": 2.2,
}

#: Fallback linear dimension scale when a model config does not set one.
DEFAULT_SIM_SCALE = 0.125

_HOST_TO_GPU = 16  # the paper's testbed: 512 GB host : 32 GB GPU


def build_policy(name: str, system: SystemConfig, *,
                 deepum_config: Optional[DeepUMConfig] = None, seed: int = 0):
    """Instantiate a policy facade by registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None
    if policy_accepts_config(name):
        return cls(system, deepum_config, seed=seed)
    if deepum_config is not None:
        family = ", ".join(sorted(PREFETCH_POLICIES))
        raise ValueError(
            f"policy {name!r} does not honor a DeepUMConfig (it applies "
            f"only to the UM prefetch policies: {family}); passing one "
            "here would be silently ignored"
        )
    return cls(system, seed=seed)


def __getattr__(name: str):
    # The deprecation cycle for the old facade constructor ended: the
    # warn-once alias is gone, and reaching for it now fails loudly with
    # the migration path instead of silently doing the old thing.
    if name == "make_policy":
        raise AttributeError(
            "make_policy was removed: construct cells via "
            "repro.api.RunRequest / repro.api.execute, or use "
            "repro.harness.build_policy for a bare facade")
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


@dataclass
class ExperimentResult:
    model: str
    policy: str
    paper_batch: int
    sim_batch: int
    oom: bool
    window: Optional[WindowMetrics]
    peak_populated_bytes: int = 0
    correlation_table_bytes: int = 0
    oom_reason: str = ""
    #: The policy facade the run executed on. Kept (not snapshotted) so
    #: post-run analysis can reach live state — e.g. the DeepUM driver's
    #: correlation tables for the policy-health report.
    facade: object = field(default=None, repr=False)

    @property
    def seconds_per_100_iterations(self) -> Optional[float]:
        if self.window is None:
            return None
        return self.window.seconds_per_100_iterations()


_calibration_cache: dict[tuple, SystemConfig] = {}


def measure_footprint(model: str, paper_batch: int, *, scale: float | None = None,
                      iterations: int = 2) -> int:
    """Peak populated bytes of a workload on an unbounded device."""
    cfg = get_model_config(model)
    if scale is None:
        scale = cfg.sim_scale
    system = SystemConfig()
    facade = IdealNoOversubscription(system)
    workload = cfg.build(facade.device, cfg.sim_batch(paper_batch), scale=scale)
    workload.run(iterations)
    return facade.peak_populated_bytes


def calibrate_system(model: str, *, scale: float | None = None,
                     mid_batch: Optional[int] = None,
                     oversubscription: Optional[float] = None) -> SystemConfig:
    """Size the simulated machine for ``model`` at simulation scale.

    GPU capacity = footprint(mid batch) / target oversubscription ratio;
    host = 16x GPU (the paper's 512 GB : 32 GB proportion).
    """
    cfg = get_model_config(model)
    if scale is None:
        scale = cfg.sim_scale
    mid = mid_batch if mid_batch is not None else \
        cfg.fig9_batches[len(cfg.fig9_batches) // 2]
    ratio = oversubscription if oversubscription is not None else \
        OVERSUBSCRIPTION_AT_MID.get(model, 2.0)
    key = (model, scale, mid, ratio)
    cached = _calibration_cache.get(key)
    if cached is not None:
        return cached
    footprint = measure_footprint(model, mid, scale=scale)
    gpu_bytes = max(16 * MiB, int(footprint / ratio))
    # Scaling width-like dimensions by `scale` cuts FLOPs by ~scale^2 but
    # bytes by only ~scale, which would make every workload artificially
    # link-bound. Scaling the simulated GPU's throughput by the same factor
    # restores the paper's compute-to-traffic ratio.
    base = GPUSpec()
    system = SystemConfig(
        gpu=GPUSpec(
            name=f"sim-gpu({model})",
            memory_bytes=gpu_bytes,
            flops_per_second=base.flops_per_second * min(1.0, scale),
        ),
        host=HostSpec(memory_bytes=_HOST_TO_GPU * gpu_bytes),
    )
    _calibration_cache[key] = system
    return system


def _snapshot(facade) -> Snapshot:
    """Uniform counter snapshot across UM facades and swap facades."""
    if hasattr(facade, "engine"):  # UM family
        eng = facade.engine
        return Snapshot(
            elapsed=facade.elapsed(),
            page_faults=eng.stats.page_faults,
            gpu_busy=eng.metrics.compute_time,
            link_busy=eng.link.busy_time,
            bytes_in=eng.link.bytes_to_gpu,
            bytes_out=eng.link.bytes_to_cpu,
            prefetched=eng.metrics.prefetched_blocks,
        )
    mgr = facade.manager  # tensor-swap family
    return Snapshot(
        elapsed=facade.elapsed(),
        page_faults=0,
        gpu_busy=mgr.compute_time,
        link_busy=mgr.link.busy_time,
        bytes_in=mgr.link.bytes_to_gpu,
        bytes_out=mgr.link.bytes_to_cpu,
    )


#: A cell observer: any one-argument callable, handed the cell's freshly
#: built facade by :func:`build_cell_facade`. Its return value is ignored.
Observer = Callable[[Any], object]


def build_cell_facade(policy: str, system: SystemConfig, *,
                      deepum_config: Optional[DeepUMConfig] = None,
                      seed: int = 0,
                      observe: Optional[Observer] = None):
    """Build one cell's policy facade and hand it to ``observe``.

    Every cell — training, probe and serve alike — gets its facade here,
    so an observer sees exactly one freshly built facade per cell, before
    the workload is built. ``observe`` is any one-argument callable: a
    recorder (``functools.partial(repro.obs.attach, recorder=rec)``,
    UM-family policies only; tensor-swap facades raise ``TypeError``) or
    the wall-clock profiler (:mod:`repro.obs.prof`). It must be
    observation-only: observing a cell may never change its simulated
    metrics.
    """
    facade = build_policy(policy, system, deepum_config=deepum_config,
                          seed=seed)
    if observe is not None:
        observe(facade)
    return facade


def run_experiment(
    model: str,
    paper_batch: int,
    policy: str,
    *,
    scale: float | None = None,
    system: Optional[SystemConfig] = None,
    warmup_iterations: int = 3,
    measure_iterations: int = 3,
    deepum_config: Optional[DeepUMConfig] = None,
    seed: int = 0,
    observe: Optional[Observer] = None,
) -> ExperimentResult:
    """Train ``model`` under ``policy`` and measure the steady-state window.

    ``observe`` is handed the facade before the workload is built (see
    :func:`build_cell_facade`); a recorder attached that way sees the
    whole run including warm-up — filter by kernel record timestamps if
    only the measurement window matters. ``measure_iterations=0`` makes
    the run a probe: warm-up only, no measurement window.
    """
    cfg = get_model_config(model)
    if scale is None:
        scale = cfg.sim_scale
    if system is None:
        system = calibrate_system(model, scale=scale)
    facade = build_cell_facade(policy, system, deepum_config=deepum_config,
                               seed=seed, observe=observe)
    from ..exec.telemetry import TELEMETRY
    sim_batch = cfg.sim_batch(paper_batch)
    result = ExperimentResult(
        model=model, policy=policy, paper_batch=paper_batch,
        sim_batch=sim_batch, oom=False, window=None, facade=facade,
    )
    try:
        workload = cfg.build(facade.device, sim_batch, scale=scale)
        workload.run(warmup_iterations)
        if measure_iterations > 0:
            before = _snapshot(facade)
            TELEMETRY.set_sim_time(before.elapsed)
            workload.run(measure_iterations)
            after = _snapshot(facade)
            TELEMETRY.set_sim_time(after.elapsed)
    except (UMCapacityError, TorchSimOOM, TensorSwapOOM) as exc:
        result.oom = True
        result.oom_reason = f"{type(exc).__name__}: {exc}"
        return result
    result.peak_populated_bytes = getattr(facade, "peak_populated_bytes", 0)
    if measure_iterations <= 0:
        return result  # a probe: the warm-up fit; nothing to measure
    power = system.power
    result.window = WindowMetrics.between(
        before, after, measure_iterations,
        idle_watts=power.idle_watts,
        gpu_watts=power.gpu_active_watts,
        link_watts=power.link_active_watts,
    )
    result.correlation_table_bytes = getattr(facade, "correlation_table_bytes", 0)
    return result
