"""Memory-pressure timeline: derivation, reconciliation, and neutrality.

The timeline is replayed offline from ``TRACK_MEMORY`` instants and must
reconcile against the simulator's own ``GPUMemory.used_bytes`` after every
residency change — these tests cover that invariant on real oversubscribed
runs (um and deepum), prove the reconciliation actually *fails* on
tampered or incomplete event streams, and re-check that turning the
instrumentation on changes no timed simulated metric.
"""

from functools import partial
from types import SimpleNamespace

import pytest

from repro.harness import calibrate_system, run_experiment
from repro.obs import SpanRecorder, attach
from repro.obs.memory import (
    MemoryReconciliationError,
    MemoryTimeline,
    memory_timeline,
)
from repro.obs.recorder import Instant, TRACK_MEMORY


def _recorded_run(policy, warmup=1, measure=2):
    system = calibrate_system("mobilenet")
    rec = SpanRecorder()
    result = run_experiment("mobilenet", 3072, policy, system=system,
                            warmup_iterations=warmup,
                            measure_iterations=measure,
                            observe=partial(attach, recorder=rec))
    assert not result.oom
    return rec, result, system.gpu.memory_bytes


def _fake_recorder(instants, kernels=()):
    return SimpleNamespace(instants=list(instants), kernels=list(kernels))


def _admit(block, nbytes, used, t=0.0, reason="fault"):
    return Instant(TRACK_MEMORY, "mem.admit", t,
                   args={"block": block, "bytes": nbytes, "reason": reason,
                         "used": used})


def _evict(block, nbytes, used, t=0.0, reason="writeback", trigger="fault"):
    return Instant(TRACK_MEMORY, "mem.evict", t,
                   args={"block": block, "bytes": nbytes, "reason": reason,
                         "trigger": trigger, "used": used})


def _grow(block, nbytes, used, t=0.0):
    return Instant(TRACK_MEMORY, "mem.grow", t,
                   args={"block": block, "bytes": nbytes, "used": used})


# ---------------------------------------------------------------- real runs


@pytest.mark.parametrize("policy", ["um", "deepum"])
def test_timeline_reconciles_on_oversubscribed_run(policy):
    rec, result, capacity = _recorded_run(policy)
    tl = memory_timeline(rec, capacity)  # raises on any mismatch

    # Final derived occupancy equals the simulator's live accounting.
    gpu = result.facade.engine.gpu
    assert tl.occupancy[-1][1] == gpu.used_bytes

    # The smoke model oversubscribes: the working set exceeds capacity,
    # occupancy peaks at (or, via in-place growth, marginally past) it.
    assert tl.oversubscription > 1.0
    assert tl.peak_used_bytes <= capacity + tl.over_capacity_bytes
    assert tl.admits > 0 and tl.evicts > 0
    assert tl.thrash_score > 0.0

    # Split totals are self-consistent.
    assert tl.admits == sum(tl.admits_by_reason.values())
    assert tl.evicts == sum(tl.evicts_by_trigger.values())
    assert tl.evicts == sum(tl.evicts_by_reason.values())
    assert tl.evicted_bytes == sum(tl.evicted_bytes_by_trigger.values())

    # Open intervals are exactly the blocks still resident at the end.
    open_blocks = {iv.block for iv in tl.intervals if iv.end is None}
    assert open_blocks == set(gpu.resident)
    for iv in tl.intervals:
        if iv.end is not None:
            assert iv.end >= iv.start
            assert iv.evict_trigger in ("fault", "migration", "preevict")


def test_eviction_trigger_split_separates_policies():
    rec_um, _, cap = _recorded_run("um")
    rec_dm, _, _ = _recorded_run("deepum")
    um = memory_timeline(rec_um, cap)
    dm = memory_timeline(rec_dm, cap)
    # Naive UM only evicts on the fault critical path; DeepUM's watermark
    # pre-evictor should absorb most evictions off it.
    assert set(um.evicts_by_trigger) == {"fault"}
    assert um.admits_by_reason.get("prefetch", 0) == 0
    assert dm.evicts_by_trigger.get("preevict", 0) > 0
    assert dm.admits_by_reason.get("prefetch", 0) > 0
    assert dm.evicts_by_trigger.get("fault", 0) < um.evicts_by_trigger["fault"]


def test_enabling_recording_changes_no_timed_metric():
    system = calibrate_system("mobilenet")

    def run(observe):
        return run_experiment("mobilenet", 3072, "um", system=system,
                              warmup_iterations=1, measure_iterations=1,
                              observe=observe)

    plain = run(None)
    instrumented = run(attach)
    assert plain.window.elapsed == instrumented.window.elapsed
    assert plain.window.page_faults == instrumented.window.page_faults
    assert plain.window.bytes_in == instrumented.window.bytes_in
    assert plain.window.bytes_out == instrumented.window.bytes_out


# ---------------------------------------------------------------- synthetic


def test_synthetic_timeline_counters():
    rec = _fake_recorder([
        _admit(0, 100, 100, t=1.0),
        _admit(1, 50, 150, t=2.0, reason="prefetch"),
        _grow(1, 10, 160, t=2.5),
        _evict(0, 100, 60, t=3.0, trigger="preevict"),
        _admit(0, 100, 160, t=4.0),  # re-fetch after eviction
        _evict(1, 60, 100, t=5.0, reason="drop", trigger="migration"),
    ])
    tl = memory_timeline(rec, capacity_bytes=1000)
    assert tl.admits == 3 and tl.evicts == 2
    assert tl.admits_by_reason == {"fault": 2, "prefetch": 1}
    assert tl.evicts_by_trigger == {"preevict": 1, "migration": 1}
    assert tl.evicts_by_reason == {"writeback": 1, "drop": 1}
    assert tl.grows == 1 and tl.grown_bytes == 10
    assert tl.refetched_admits == 1 and tl.refetched_bytes == 100
    assert tl.thrash_score == pytest.approx(1 / 3)
    assert tl.peak_used_bytes == 160
    # Working set: block 0 maxes at 100, block 1 grew to 60.
    assert tl.working_set_bytes == 160 and tl.working_set_blocks == 2
    assert tl.end_t == 5.0
    # Occupancy starts at the (0, 0) origin and tracks every event.
    assert tl.occupancy[0] == (0.0, 0)
    assert [u for _, u in tl.occupancy] == [0, 100, 150, 160, 60, 160, 100]

    rates = tl.rates(buckets=5)
    assert len(rates) == 5
    assert sum(r["admitted_bytes"] for r in rates) == 260  # admits + grow
    assert sum(r["evicted_bytes"] for r in rates) == 160

    doc = tl.to_dict()
    assert doc["occupancy"][0] == [0.0, 0]
    assert len(doc["intervals"]) == 3
    assert doc["thrash_score"] == tl.thrash_score


def test_to_dict_decimation_keeps_peak():
    rec = _fake_recorder(
        [_admit(i, 1, i + 1, t=float(i)) for i in range(5000)])
    tl = memory_timeline(rec, capacity_bytes=10000)
    doc = tl.to_dict(max_samples=100)
    assert len(doc["occupancy"]) <= 102
    assert max(u for _, u in doc["occupancy"]) == tl.peak_used_bytes


# ------------------------------------------------------- reconciliation


def test_mismatched_used_bytes_raises():
    rec = _fake_recorder([_admit(0, 100, 101)])
    with pytest.raises(MemoryReconciliationError, match="derived occupancy"):
        memory_timeline(rec, capacity_bytes=1000)


def test_double_admit_raises():
    rec = _fake_recorder([_admit(0, 100, 100), _admit(0, 100, 200)])
    with pytest.raises(MemoryReconciliationError, match="already"):
        memory_timeline(rec, capacity_bytes=1000)


def test_evict_without_admit_raises():
    rec = _fake_recorder([_evict(3, 100, 0)])
    with pytest.raises(MemoryReconciliationError, match="no admit is open"):
        memory_timeline(rec, capacity_bytes=1000)


def test_grow_of_nonresident_block_raises():
    rec = _fake_recorder([_grow(7, 10, 10)])
    with pytest.raises(MemoryReconciliationError, match="not resident"):
        memory_timeline(rec, capacity_bytes=1000)


def test_admit_past_capacity_raises():
    rec = _fake_recorder([_admit(0, 2000, 2000)])
    with pytest.raises(MemoryReconciliationError, match="exceeds capacity"):
        memory_timeline(rec, capacity_bytes=1000)


def test_tampered_real_run_is_caught():
    rec, _, capacity = _recorded_run("um", measure=1)
    # Drop the first memory event: every later `used` no longer matches
    # the derived running occupancy (or an evict finds no open admit).
    idx = next(i for i, inst in enumerate(rec.instants)
               if inst.track == TRACK_MEMORY)
    del rec.instants[idx]
    with pytest.raises(MemoryReconciliationError):
        memory_timeline(rec, capacity)


def test_empty_recorder_gives_empty_timeline():
    tl = memory_timeline(_fake_recorder([]), capacity_bytes=1000)
    assert isinstance(tl, MemoryTimeline)
    assert tl.admits == 0 and tl.evicts == 0
    assert tl.occupancy == [(0.0, 0)]
    assert tl.rates() == []
    assert tl.thrash_score == 0.0 and tl.oversubscription == 0.0
