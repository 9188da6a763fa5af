"""Experiment harness: calibration, runs, OOM handling, max-batch search."""

import pytest

from repro.config import DeepUMConfig, GPUSpec, HostSpec, SystemConfig
from repro.constants import GiB, MiB
from repro.harness import (
    POLICIES,
    calibrate_system,
    build_policy,
    max_batch_outcome,
    run_experiment,
)
from repro.harness.experiment import measure_footprint

TINY = 0.0625


def test_policy_registry_complete():
    for name in ["um", "deepum", "ideal", "lms", "lms-mod", "vdnn", "autotm",
                 "swapadvisor", "capuchin", "sentinel"]:
        assert name in POLICIES


def test_build_policy_unknown_raises():
    with pytest.raises(KeyError):
        build_policy("magic", SystemConfig())


def test_measure_footprint_positive():
    fp = measure_footprint("bert-base", 4, scale=TINY)
    assert fp > 10 * MiB


def test_calibrate_targets_oversubscription():
    system = calibrate_system("bert-base", scale=TINY, mid_batch=8,
                              oversubscription=1.0)
    fp = measure_footprint("bert-base", 8, scale=TINY)
    assert system.gpu.memory_bytes == pytest.approx(fp, rel=0.01)
    assert system.host.memory_bytes == 16 * system.gpu.memory_bytes


def test_calibrate_enforces_minimum_gpu():
    system = calibrate_system("bert-base", scale=TINY, mid_batch=8,
                              oversubscription=1000.0)
    assert system.gpu.memory_bytes == 16 * MiB


def test_calibrate_scales_gpu_throughput():
    system = calibrate_system("bert-base", scale=TINY, mid_batch=8)
    assert system.gpu.flops_per_second < GPUSpec().flops_per_second


def test_calibration_cached():
    a = calibrate_system("bert-base", scale=TINY, mid_batch=8)
    b = calibrate_system("bert-base", scale=TINY, mid_batch=8)
    assert a is b


def test_run_experiment_produces_window():
    system = calibrate_system("bert-base", scale=TINY, mid_batch=8)
    result = run_experiment("bert-base", 8, "um", scale=TINY, system=system,
                            warmup_iterations=2, measure_iterations=2)
    assert not result.oom
    assert result.window is not None
    assert result.seconds_per_100_iterations > 0
    assert result.window.energy_joules > 0


def test_run_experiment_deepum_config_respected():
    system = calibrate_system("bert-base", scale=TINY, mid_batch=8)
    result = run_experiment(
        "bert-base", 8, "deepum", scale=TINY, system=system,
        warmup_iterations=2, measure_iterations=2,
        deepum_config=DeepUMConfig(prefetch_degree=2),
    )
    assert not result.oom


def test_run_experiment_reports_oom():
    starved = SystemConfig(
        gpu=GPUSpec(memory_bytes=16 * MiB),
        host=HostSpec(memory_bytes=12 * MiB),
    )
    result = run_experiment("bert-base", 8, "um", scale=TINY, system=starved)
    assert result.oom
    assert "UMCapacityError" in result.oom_reason
    assert result.seconds_per_100_iterations is None


def test_max_batch_outcome_deepum_exceeds_lms():
    """Table 3's headline: DeepUM (host-bound) runs much larger batches
    than LMS (device/fragmentation-bound)."""
    system = SystemConfig(
        gpu=GPUSpec(memory_bytes=96 * MiB),
        host=HostSpec(memory_bytes=1 * GiB),
    )
    lms_max = max_batch_outcome("bert-base", "lms", system, scale=TINY,
                                start_batch=2).max_batch
    deepum_max = max_batch_outcome("bert-base", "deepum", system, scale=TINY,
                                   start_batch=2).max_batch
    assert deepum_max > lms_max > 0


def test_max_batch_outcome_returns_zero_when_nothing_fits():
    system = SystemConfig(
        gpu=GPUSpec(memory_bytes=16 * MiB),
        host=HostSpec(memory_bytes=8 * MiB),
    )
    assert max_batch_outcome("bert-base", "um", system, scale=TINY,
                             start_batch=2).max_batch == 0
