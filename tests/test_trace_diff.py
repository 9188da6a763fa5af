"""Trace diff: alignment, attribution, and the bit-for-bit exactness contract.

The contract under test (see ``repro.obs.diff``): a per-entry delta is the
sum of its bucket deltas in ``BUCKETS`` order, and ``total_delta`` is the
sum of entry deltas in alignment order. These tests recompute both sums in
exactly that order and assert float equality (``==``, not approx) — on real
runs, on synthetic aligned/diverging sequences, and property-style under
hypothesis with dyadic bucket values cross-checked against exact
``fractions.Fraction`` arithmetic.
"""

import json
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.harness import calibrate_system, run_experiment
from repro.obs import SpanRecorder, attach
from repro.obs.decisions import ALL_CAUSES
from repro.obs.diff import BUCKETS, diff_runs, format_diff, kernel_slices
from repro.obs.recorder import KernelRecord


def _recorded_run(policy):
    system = calibrate_system("mobilenet")
    rec = SpanRecorder()
    result = run_experiment("mobilenet", 3072, policy, system=system,
                            warmup_iterations=1, measure_iterations=1,
                            observe=partial(attach, recorder=rec))
    assert not result.oom
    return rec


def _fake_recorder(kernels):
    return SimpleNamespace(kernels=list(kernels), instants=[])


def _kernel(seq, name, exec_id, start, compute, fault, inflight):
    end = start + compute + fault + inflight
    return KernelRecord(seq=seq, name=name, exec_id=exec_id, start=start,
                        end=end, compute_time=compute, fault_wait=fault,
                        inflight_wait=inflight)


def _assert_exact(diff):
    """Recompute every sum of the exactness contract and require ==."""
    total = 0.0
    buckets = {name: 0.0 for name in BUCKETS}
    for entry in diff.entries:
        delta = 0.0
        for name in BUCKETS:
            delta += entry.deltas[name]
            buckets[name] += entry.deltas[name]
        assert delta == entry.delta
        total += entry.delta
    assert total == diff.total_delta
    assert buckets == diff.bucket_deltas


# --------------------------------------------------------------- real runs


def test_identical_runs_diff_to_exact_zero():
    rec = _recorded_run("deepum")
    diff = diff_runs(rec, rec, label_a="x", label_b="y")
    assert diff.inserted == 0 and diff.deleted == 0
    assert diff.matched == len(rec.kernels) > 0
    assert diff.total_delta == 0.0
    assert diff.total_a == diff.total_b
    for entry in diff.entries:
        assert entry.op == "match" and entry.delta == 0.0
        assert all(v == 0.0 for v in entry.deltas.values())
    _assert_exact(diff)


def test_um_vs_deepum_diff_is_exact_and_name_aligned():
    rec_um = _recorded_run("um")
    rec_dm = _recorded_run("deepum")
    diff = diff_runs(rec_um, rec_dm, label_a="um", label_b="deepum")
    # Naive UM assigns no exec IDs, so alignment falls back to names —
    # and the same workload then matches kernel-for-kernel.
    assert diff.aligned_on == "name"
    assert diff.matched > 0
    assert diff.matched == len(rec_um.kernels) == len(rec_dm.kernels)
    _assert_exact(diff)
    # The attributed total equals the difference of per-side kernel time
    # up to the residual bucket's float dust, which the contract captures:
    # summing published buckets reproduces total_delta exactly.
    assert diff.total_b < diff.total_a  # deepum is faster on this workload
    text = format_diff(diff)
    assert "bit-for-bit" in text
    assert "deepum - um" in text


def test_slices_cover_kernel_durations_exactly():
    rec = _recorded_run("deepum")
    for s in kernel_slices(rec):
        total = 0.0
        for name in BUCKETS:
            total += s.buckets[name]
        assert total == s.duration
        # Cause buckets never exceed the recorded fault phase they refine.
        assert s.buckets["fault_other"] >= -1e-12


# --------------------------------------------------------------- synthetic


def test_diverging_sequences_insert_delete():
    a = _fake_recorder([
        _kernel(0, "conv", 1, 0.0, 1.0, 0.5, 0.0),
        _kernel(1, "relu", 2, 1.5, 0.25, 0.0, 0.0),
        _kernel(2, "fc", 3, 1.75, 0.5, 0.0, 0.125),
    ])
    b = _fake_recorder([
        _kernel(0, "conv", 1, 0.0, 1.0, 0.0, 0.0),
        _kernel(1, "bn", 9, 1.0, 0.125, 0.0, 0.0),  # only in B
        _kernel(2, "fc", 3, 1.125, 0.5, 0.0, 0.0),
    ])
    diff = diff_runs(a, b)
    assert diff.aligned_on == "exec"
    assert diff.matched == 2 and diff.inserted == 1 and diff.deleted == 1
    ops = [e.op for e in diff.entries]
    assert ops == ["match", "delete", "insert", "match"]
    by_key = {e.key: e for e in diff.entries}
    # The deleted kernel contributes its full (negated) time.
    assert by_key[("relu", 2)].delta == -0.25
    assert by_key[("bn", 9)].delta == 0.125
    # conv lost its 0.5 s fault phase, fc its 0.125 s in-flight wait.
    assert by_key[("conv", 1)].deltas["fault_other"] == -0.5
    assert by_key[("fc", 3)].deltas["inflight_wait"] == -0.125
    assert diff.total_delta == -0.75
    _assert_exact(diff)


def test_cause_taxonomy_refines_fault_phase():
    k = _kernel(0, "conv", 1, 0.0, 1.0, 0.75, 0.0)
    causes = SimpleNamespace(fault_causes=[
        SimpleNamespace(kernel_seq=0, cause=ALL_CAUSES[0], stall=0.5),
        SimpleNamespace(kernel_seq=0, cause=ALL_CAUSES[2], stall=0.25),
    ])
    rec = SimpleNamespace(kernels=[k], instants=[], decisions=causes)
    (s,) = kernel_slices(rec)
    assert s.buckets[ALL_CAUSES[0]] == 0.5
    assert s.buckets[ALL_CAUSES[2]] == 0.25
    assert s.buckets["fault_other"] == 0.0  # fully classified
    assert s.buckets["compute"] == 1.0


# ------------------------------------------------------------- property


def _dyadic():
    # n/1024 floats are exactly representable and sum without rounding in
    # the magnitudes used here, so float and Fraction arithmetic agree.
    return st.integers(min_value=0, max_value=1024).map(lambda n: n / 1024)


_names = st.sampled_from(["conv", "relu", "fc", "pool"])


@st.composite
def _kernel_list(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    kernels = []
    t = 0.0
    for seq in range(n):
        name = draw(_names)
        exec_id = draw(st.integers(min_value=-1, max_value=6))
        compute, fault, inflight = draw(_dyadic()), draw(_dyadic()), draw(_dyadic())
        kernels.append(_kernel(seq, name, exec_id, t, compute, fault, inflight))
        t = kernels[-1].end
    return kernels


@settings(max_examples=60, deadline=None)
@given(a=_kernel_list(), b=_kernel_list())
def test_attribution_sums_bit_for_bit(a, b):
    diff = diff_runs(_fake_recorder(a), _fake_recorder(b))
    _assert_exact(diff)
    # Cross-check against exact rational arithmetic: with dyadic inputs
    # every float sum above is exact, so the attributed total must equal
    # total_b - total_a not just bitwise-in-order but mathematically.
    exact = Fraction(0)
    for k in b:
        exact += Fraction(k.end) - Fraction(k.start)
    for k in a:
        exact -= Fraction(k.end) - Fraction(k.start)
    assert Fraction(diff.total_delta) == exact
    assert diff.matched + diff.deleted == len(a)
    assert diff.matched + diff.inserted == len(b)


@settings(max_examples=30, deadline=None)
@given(a=_kernel_list())
def test_self_diff_is_identity(a):
    diff = diff_runs(_fake_recorder(a), _fake_recorder(a))
    assert diff.matched == len(a)
    assert diff.inserted == diff.deleted == 0
    assert diff.total_delta == 0.0


# ------------------------------------------------------------------- CLI


def test_trace_diff_cli(tmp_path, capsys):
    out = tmp_path / "diff.json"
    main(["trace", "diff", "mobilenet", "--batch", "3072",
          "--warmup", "1", "--measure", "1", "--out", str(out)])
    text = capsys.readouterr().out
    assert "trace diff: deepum - um" in text
    assert "Attribution by bucket" in text
    doc = json.loads(out.read_text())
    assert doc["aligned_on"] == "name"
    assert doc["buckets"] == list(BUCKETS)
    total = 0.0
    for entry in doc["entries"]:
        delta = 0.0
        for name in doc["buckets"]:
            delta += entry["deltas"][name]
        assert delta == entry["delta"]
        total += entry["delta"]
    assert total == doc["total_delta"]


def test_trace_diff_cli_rejects_same_policy():
    with pytest.raises(SystemExit):
        main(["trace", "diff", "mobilenet", "--a", "um", "--b", "um"])
