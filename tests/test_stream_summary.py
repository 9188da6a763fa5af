"""The kernel-stream summary computed from SpanRecorder output."""

import pytest

from repro.baselines import NaiveUM
from repro.config import DeepUMConfig, GPUSpec, HostSpec, SystemConfig
from repro.constants import GiB, MiB
from repro.core.deepum import DeepUM
from repro.obs import (
    TRACK_FAULT,
    SpanRecorder,
    attach,
    iteration_fault_counts,
    trace_summary,
)

from workloads import make_mlp_workload

#: Small enough that the test MLP evicts, refaults and prefetches.
PRESSED = SystemConfig(gpu=GPUSpec(memory_bytes=16 * MiB),
                       host=HostSpec(memory_bytes=4 * GiB))

FACADES = {
    "deepum": lambda system: DeepUM(system, DeepUMConfig(prefetch_degree=8)),
    "um": NaiveUM,
}


def recorded_mlp(facade, iterations=4):
    """Train the test MLP on ``facade``; returns its recorder."""
    rec = attach(facade)
    step, _, _ = make_mlp_workload(facade.device, layers_n=6, dim=512,
                                   batch=128)
    for _ in range(iterations):
        step()
    return rec


@pytest.mark.parametrize("policy", sorted(FACADES))
def test_summary_reconciles_with_engine_counters(policy):
    facade = FACADES[policy](PRESSED)
    rec = recorded_mlp(facade)
    summary = trace_summary(rec)
    engine = facade.engine
    stats = engine.handler.stats
    assert summary.kernels == engine.metrics.kernels > 100
    assert summary.faults == sum(k.faults for k in rec.kernels) > 0
    assert summary.prefetches == engine.metrics.prefetched_blocks
    assert summary.evictions == \
        stats.evictions + stats.invalidated_evictions > 0
    assert summary.faults_per_kernel == summary.faults / summary.kernels
    assert summary.median_refault_gap > 0
    counts = [n for _, n in summary.hottest_kernels]
    assert counts == sorted(counts, reverse=True)
    assert 0 < sum(counts) <= summary.faults
    if policy == "deepum":
        assert 0 < summary.distinct_exec_ids < summary.kernels
        assert summary.prefetches > 0
    else:
        assert summary.distinct_exec_ids == 0  # naive UM assigns none


@pytest.mark.parametrize("policy", sorted(FACADES))
def test_stream_periodicity_detects_training_loop(tiny_system, policy):
    # On exec IDs under DeepUM, on kernel names under naive UM.
    summary = trace_summary(recorded_mlp(FACADES[policy](tiny_system)))
    assert summary.stream_periodicity > 0.95


def synthetic(*stream):
    """A hand-filled recorder: a str launches a kernel of that name, an
    int is a demand fault on that block under the current kernel."""
    rec = SpanRecorder()
    for t, event in enumerate(stream):
        if isinstance(event, str):
            rec.end_kernel(float(t))
            rec.begin_kernel(event, float(t))
        else:
            rec.instant(TRACK_FAULT, "fault", float(t), args={"block": event})
    rec.end_kernel(float(len(stream)))
    return rec


def test_median_refault_gap_synthetic():
    # Block 5 refaults two kernels later; block 9 faults only once.
    rec = synthetic("k1", 5, "k2", "k3", 5, 9)
    assert trace_summary(rec).median_refault_gap == 2.0


def test_median_refault_gap_none_without_repeats():
    assert trace_summary(synthetic("k1", 5)).median_refault_gap is None


def test_iteration_fault_counts():
    rec = synthetic("a", 5, "b", "a", 6, 7, "b")
    assert iteration_fault_counts(rec, kernels_per_iteration=2) == [1, 2]


def test_iteration_fault_counts_validation():
    with pytest.raises(ValueError):
        iteration_fault_counts(SpanRecorder(), 0)
    assert iteration_fault_counts(SpanRecorder(), 2) == []
