"""The observability layer: recorder, phase breakdown, Chrome-trace export."""

import io
import json

import pytest

from repro.baselines import VDNN
from repro.config import DeepUMConfig, GPUSpec, HostSpec, SystemConfig
from repro.constants import GiB, MiB
from repro.core.deepum import DeepUM
from repro.obs import (
    NULL_RECORDER,
    SpanRecorder,
    TRACK_GPU,
    TRACK_LINK,
    aggregate_by_kernel,
    attach,
    chrome_trace_dict,
    kernel_phases,
    validate_chrome_trace,
    write_chrome_trace,
)
from workloads import make_mlp_workload


@pytest.fixture(scope="module")
def recorded_run():
    """One instrumented DeepUM training run shared by the module's tests."""
    system = SystemConfig(gpu=GPUSpec(memory_bytes=64 * MiB),
                          host=HostSpec(memory_bytes=4 * GiB))
    deepum = DeepUM(system, DeepUMConfig(prefetch_degree=8))
    rec = attach(deepum)
    step, _, _ = make_mlp_workload(deepum.device, layers_n=6, dim=512,
                                   batch=128)
    for _ in range(3):
        step()
    return deepum, rec


# --------------------------------------------------------------------- #
# recorder units
# --------------------------------------------------------------------- #

def test_null_recorder_is_inert():
    assert NULL_RECORDER.enabled is False
    NULL_RECORDER.begin_kernel("k", 0.0)
    NULL_RECORDER.span(TRACK_GPU, "s", 0.0, 1.0)
    NULL_RECORDER.instant(TRACK_GPU, "i", 0.0)
    NULL_RECORDER.note_prefetch_done(1)
    assert NULL_RECORDER.note_access(1) is False
    NULL_RECORDER.note_evict(1)
    NULL_RECORDER.end_kernel(1.0)


def test_events_are_stamped_with_the_current_kernel():
    rec = SpanRecorder()
    rec.set_exec_id(42)
    rec.begin_kernel("conv", 1.0)
    rec.span(TRACK_LINK, "xfer", 1.0, 2.0)
    rec.instant(TRACK_GPU, "fault", 1.5)
    rec.end_kernel(3.0, compute_time=0.5)
    rec.span(TRACK_LINK, "late", 3.0, 4.0)  # between kernels: unowned
    k = rec.kernels[0]
    assert (k.name, k.exec_id, k.start, k.end) == ("conv", 42, 1.0, 3.0)
    assert rec.spans[0].kernel_seq == 0
    assert rec.instants[0].kernel_seq == 0
    assert rec.spans[1].kernel_seq == -1


def test_prefetch_usefulness_accounting():
    rec = SpanRecorder()
    rec.begin_kernel("a", 0.0)
    rec.note_prefetch_done(7)
    rec.note_prefetch_done(8)
    rec.end_kernel(1.0)
    rec.begin_kernel("b", 1.0)
    assert rec.note_access(7) is True     # used: charged to kernel 0
    assert rec.note_access(7) is False    # only the first access counts
    rec.note_evict(8)                      # never touched: wasted
    rec.end_kernel(2.0)
    assert rec.prefetch_used == 1 and rec.prefetch_wasted == 1
    assert rec.prefetch_accuracy() == pytest.approx(0.5)
    assert rec.kernel_prefetch_done[0] == 2
    assert rec.kernel_prefetch_useful[0] == 1


# --------------------------------------------------------------------- #
# attach + end-to-end attribution
# --------------------------------------------------------------------- #

def test_attach_rejects_tensor_swap_facades():
    system = SystemConfig(gpu=GPUSpec(memory_bytes=64 * MiB),
                          host=HostSpec(memory_bytes=4 * GiB))
    with pytest.raises(TypeError):
        attach(VDNN(system))


def test_per_kernel_stall_sums_match_engine_aggregates(recorded_run):
    deepum, rec = recorded_run
    eng = deepum.engine
    assert rec.total_fault_wait() == pytest.approx(eng.metrics.fault_wait_time)
    assert rec.total_inflight_wait() == \
        pytest.approx(eng.metrics.inflight_wait_time)
    assert sum(k.faults for k in rec.kernels) == eng.stats.faulted_blocks


def test_fault_phases_cover_each_kernels_fault_wait(recorded_run):
    _, rec = recorded_run
    phased = [kp for kp in kernel_phases(rec) if kp.faults]
    assert phased, "the tiny GPU must produce faulting kernels"
    for kp in phased:
        assert sum(kp.fault_phases.values()) == pytest.approx(kp.fault_wait)


def test_aggregate_sorts_by_stall_and_preserves_totals(recorded_run):
    _, rec = recorded_run
    aggs = aggregate_by_kernel(rec)
    stalls = [a.stall_time for a in aggs]
    assert stalls == sorted(stalls, reverse=True)
    assert sum(a.fault_wait for a in aggs) == \
        pytest.approx(rec.total_fault_wait())
    assert sum(a.launches for a in aggs) == len(rec.kernels)


# --------------------------------------------------------------------- #
# Chrome-trace export
# --------------------------------------------------------------------- #

def test_chrome_trace_is_structurally_valid(recorded_run):
    _, rec = recorded_run
    doc = chrome_trace_dict(rec)
    validate_chrome_trace(doc)
    # Round-trips through JSON (no non-serializable args leaked in).
    validate_chrome_trace(json.loads(json.dumps(doc)))


def test_chrome_trace_stall_args_sum_to_engine_aggregate(recorded_run):
    deepum, rec = recorded_run
    eng = deepum.engine
    doc = chrome_trace_dict(rec)
    kernel_events = [e for e in doc["traceEvents"]
                     if e.get("cat") == "kernel"]
    assert len(kernel_events) == len(rec.kernels)
    total_stall = sum(e["args"]["fault_wait_s"] + e["args"]["inflight_wait_s"]
                      for e in kernel_events)
    assert total_stall == pytest.approx(
        eng.metrics.fault_wait_time + eng.metrics.inflight_wait_time)


def test_write_chrome_trace_to_file_object(recorded_run):
    _, rec = recorded_run
    buf = io.StringIO()
    write_chrome_trace(rec, buf)
    validate_chrome_trace(json.loads(buf.getvalue()))


def test_validate_rejects_malformed_documents():
    with pytest.raises(ValueError):
        validate_chrome_trace({})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "X", "ts": 0.0,
                                               "dur": -1.0}]})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "i"}]})
