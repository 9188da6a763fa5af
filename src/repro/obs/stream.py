"""Kernel-stream summary computed from a :class:`SpanRecorder`.

DeepUM's correlation prefetching assumes the kernel stream repeats every
training iteration: the same execution IDs launch in the same order and
the same UM blocks fault under them. This module checks that assumption on
a recorded run — stream periodicity, the refault gap, the kernels that
fault most — from events the recorder already holds, so it works on any
UM-family run (DeepUM or naive UM) with no extra instrumentation.

Usage::

    deepum = DeepUM(system)
    recorder = attach(deepum)
    workload.run(5)
    summary = trace_summary(recorder)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from statistics import median
from typing import Optional, Sequence, Union

from .recorder import (
    TRACK_FAULT,
    TRACK_MEMORY,
    TRACK_MIGRATION,
    Instant,
    KernelRecord,
    SpanRecorder,
)


@dataclass
class TraceSummary:
    """Aggregates the paper cares about, computed from a recorded run."""

    kernels: int = 0
    distinct_exec_ids: int = 0
    faults: int = 0
    #: Blocks the migration thread actually prefetched
    #: (equals ``EngineMetrics.prefetched_blocks``).
    prefetches: int = 0
    evictions: int = 0
    faults_per_kernel: float = 0.0
    #: Fraction of launch-sequence positions repeating between the last two
    #: full iterations (1.0 = perfectly periodic, DeepUM's core assumption).
    stream_periodicity: Optional[float] = None
    #: Median number of kernels between consecutive faults on one block.
    median_refault_gap: Optional[float] = None
    #: Up to five (kernel name, faults) pairs, most faults first.
    hottest_kernels: list[tuple[str, int]] = field(default_factory=list)


def _faults(recorder: SpanRecorder) -> list[Instant]:
    """The demand-fault instants, in fault order."""
    return [i for i in recorder.instants
            if i.track == TRACK_FAULT and i.name == "fault"]


def trace_summary(recorder: SpanRecorder) -> TraceSummary:
    """Summarize the kernel and fault streams of a recorded run."""
    kernels = recorder.kernels
    faults = _faults(recorder)
    # Counted in fault order, so kernels with equal counts rank by which
    # faulted first.
    faults_by_name = Counter(kernels[f.kernel_seq].name for f in faults)
    return TraceSummary(
        kernels=len(kernels),
        distinct_exec_ids=len({k.exec_id for k in kernels if k.exec_id >= 0}),
        faults=len(faults),
        prefetches=sum(1 for s in recorder.spans
                       if s.track == TRACK_MIGRATION
                       and s.name == "prefetch.block"),
        evictions=sum(1 for i in recorder.instants
                      if i.track == TRACK_MEMORY and i.name == "mem.evict"),
        faults_per_kernel=len(faults) / len(kernels) if kernels else 0.0,
        stream_periodicity=_periodicity(kernels),
        median_refault_gap=_median_refault_gap(faults),
        hottest_kernels=faults_by_name.most_common(5),
    )


def _periodicity(kernels: Sequence[KernelRecord]) -> Optional[float]:
    """Match the last two iterations of the launch stream.

    The stream is the execution-ID sequence, or the kernel-name sequence
    when the run assigned no execution IDs (naive UM). The period is the
    distance between the last two occurrences of the final entry;
    positions where the two candidate iterations agree count toward the
    score.
    """
    ids: list[Union[int, str]]
    if any(k.exec_id >= 0 for k in kernels):
        ids = [k.exec_id for k in kernels]
    else:
        ids = [k.name for k in kernels]
    if len(ids) < 4:
        return None
    last = ids[-1]
    occurrences = [i for i, v in enumerate(ids) if v == last]
    if len(occurrences) < 2:
        return None
    period = occurrences[-1] - occurrences[-2]
    if period * 2 > len(ids):
        return None
    a = ids[-period:]
    b = ids[-2 * period:-period]
    return sum(1 for x, y in zip(a, b) if x == y) / period


def _median_refault_gap(faults: Sequence[Instant]) -> Optional[float]:
    """Median kernel-count gap between repeat faults on one block."""
    last_fault_seq: dict[int, int] = {}
    gaps: list[int] = []
    for fault in faults:
        assert fault.args is not None
        block = fault.args["block"]
        prev = last_fault_seq.get(block)
        if prev is not None:
            gaps.append(fault.kernel_seq - prev)
        last_fault_seq[block] = fault.kernel_seq
    return float(median(gaps)) if gaps else None


def iteration_fault_counts(recorder: SpanRecorder,
                           kernels_per_iteration: int) -> list[int]:
    """Faults per iteration, given the workload's kernel count."""
    if kernels_per_iteration <= 0:
        raise ValueError("kernels_per_iteration must be positive")
    counts: dict[int, int] = {}
    for fault in _faults(recorder):
        iteration = max(fault.kernel_seq, 0) // kernels_per_iteration
        counts[iteration] = counts.get(iteration, 0) + 1
    if not counts:
        return []
    return [counts.get(i, 0) for i in range(max(counts) + 1)]
