"""``repro.obs``: the time-attributed observability layer.

Records where simulated time goes — kernel compute, demand-fault stalls
(split into pipeline phases), in-flight prefetch waits, prefetch transfers,
pre-eviction work — as spans/instants on per-resource tracks, and renders
them as a per-kernel phase-breakdown table, a kernel-stream summary
(:mod:`repro.obs.stream`) or a Chrome-trace (Perfetto) timeline. Recording is off by default (:data:`NULL_RECORDER`) and costs one
boolean check per instrumentation site when disabled.

Typical use::

    from repro import DeepUM, SystemConfig
    from repro.obs import SpanRecorder, attach, write_chrome_trace

    deepum = DeepUM(SystemConfig.v100_32gb())
    rec = attach(deepum)            # or DeepUM(system, recorder=SpanRecorder())
    ... run the workload ...
    write_chrome_trace(rec, "timeline.json")   # open in ui.perfetto.dev
"""

from __future__ import annotations

from typing import Optional

from .chrome_trace import (
    chrome_trace_dict,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from .decisions import (
    ALL_CAUSES,
    COMMAND_SOURCES,
    DecisionLog,
    FaultCause,
    Provenance,
    describe_event,
)
from .diff import (
    BUCKETS,
    DiffEntry,
    KernelSlice,
    RunDiff,
    diff_runs,
    format_diff,
    kernel_slices,
)
from .doctor import (
    DOCTOR_SCHEMA_VERSION,
    Finding,
    diagnose,
    format_doctor,
    run_doctor,
    validate_doctor_report,
)
from .health import (
    PolicyHealth,
    TableHealth,
    policy_health,
    table_health,
    validate_policy_health,
)
from .history import (
    DEFAULT_HISTORY_PATH,
    HISTORY_SCHEMA_VERSION,
    HistoryError,
    append_entry,
    current_git_sha,
    format_history,
    format_trend,
    load_history,
    make_entry,
    trend,
    validate_entry,
)
from .memory import (
    EVICT_TRIGGERS,
    MemoryEvent,
    MemoryReconciliationError,
    MemoryTimeline,
    ResidencyInterval,
    memory_timeline,
)
from .prof import (
    PROFILE_SCHEMA_VERSION,
    SUBSYSTEMS,
    NeutralityError,
    ProfileError,
    SamplingProfiler,
    WallProfiler,
    format_profile,
    profile_request,
    profile_scenario,
    speedscope_document,
    validate_profile,
    validate_speedscope,
)
from .report import (
    REPORT_SCHEMA_VERSION,
    ReportOfflineError,
    assert_offline,
    journal_report,
    render_html,
    scenario_report,
    write_report,
)
from .phases import (
    FAULT_PHASES,
    KernelAggregate,
    KernelPhases,
    aggregate_by_kernel,
    kernel_phases,
)
from .recorder import (
    ALL_TRACKS,
    NULL_RECORDER,
    TRACK_EXEC,
    TRACK_FAULT,
    TRACK_GPU,
    TRACK_LABELS,
    TRACK_LINK,
    TRACK_MEMORY,
    TRACK_MIGRATION,
    TRACK_PREEVICT,
    Instant,
    KernelRecord,
    NullRecorder,
    Span,
    SpanRecorder,
)
from .stream import TraceSummary, iteration_fault_counts, trace_summary


def attach(target, recorder: Optional[SpanRecorder] = None) -> SpanRecorder:
    """Wire a recorder through a UM facade (DeepUM, NaiveUM) or bare engine.

    Accepts anything exposing an ``engine`` attribute (or a
    :class:`~repro.sim.engine.UMSimulator` itself) and threads the recorder
    into the engine, fault handler and PCIe link; if the target also has a
    DeepUM ``driver``, the prefetcher and pre-evictor are instrumented too.
    Returns the (possibly freshly created) recorder.
    """
    rec = recorder if recorder is not None else SpanRecorder()
    engine = getattr(target, "engine", target)
    if not hasattr(engine, "handler"):
        raise TypeError(
            f"cannot attach a recorder to {type(target).__name__}: "
            "no UM engine found (tensor-swap facades are not instrumented)"
        )
    if engine.metrics.kernels or engine.now > 0.0:
        # Attaching mid-run used to silently produce a half-empty recording
        # (per-kernel sums no longer matching the engine aggregates, fault
        # causes missing their history). Refuse loudly instead.
        raise RuntimeError(
            "cannot attach a recorder mid-run: the engine has already "
            f"executed {engine.metrics.kernels} kernel(s) "
            f"(now={engine.now:.6f}s). Attach before the first kernel, or "
            "construct the facade with recorder=SpanRecorder()."
        )
    engine.recorder = rec
    engine.handler.recorder = rec
    engine.link.recorder = rec
    driver = getattr(target, "driver", None)
    if driver is not None and hasattr(driver, "attach_recorder"):
        driver.attach_recorder(rec)
    return rec


__all__ = [
    "ALL_CAUSES",
    "ALL_TRACKS",
    "BUCKETS",
    "COMMAND_SOURCES",
    "DEFAULT_HISTORY_PATH",
    "DOCTOR_SCHEMA_VERSION",
    "DecisionLog",
    "DiffEntry",
    "EVICT_TRIGGERS",
    "HISTORY_SCHEMA_VERSION",
    "HistoryError",
    "FAULT_PHASES",
    "FaultCause",
    "Finding",
    "Instant",
    "KernelAggregate",
    "KernelPhases",
    "KernelRecord",
    "KernelSlice",
    "MemoryEvent",
    "MemoryReconciliationError",
    "MemoryTimeline",
    "NULL_RECORDER",
    "NeutralityError",
    "NullRecorder",
    "PROFILE_SCHEMA_VERSION",
    "PolicyHealth",
    "ProfileError",
    "Provenance",
    "REPORT_SCHEMA_VERSION",
    "ReportOfflineError",
    "ResidencyInterval",
    "RunDiff",
    "SUBSYSTEMS",
    "SamplingProfiler",
    "Span",
    "SpanRecorder",
    "TableHealth",
    "TraceSummary",
    "WallProfiler",
    "TRACK_EXEC",
    "TRACK_FAULT",
    "TRACK_GPU",
    "TRACK_LABELS",
    "TRACK_LINK",
    "TRACK_MEMORY",
    "TRACK_MIGRATION",
    "TRACK_PREEVICT",
    "aggregate_by_kernel",
    "append_entry",
    "assert_offline",
    "attach",
    "chrome_trace_dict",
    "chrome_trace_events",
    "current_git_sha",
    "describe_event",
    "diagnose",
    "diff_runs",
    "format_diff",
    "format_doctor",
    "format_history",
    "format_profile",
    "format_trend",
    "iteration_fault_counts",
    "journal_report",
    "kernel_phases",
    "kernel_slices",
    "load_history",
    "make_entry",
    "memory_timeline",
    "policy_health",
    "profile_request",
    "profile_scenario",
    "render_html",
    "run_doctor",
    "scenario_report",
    "speedscope_document",
    "table_health",
    "trace_summary",
    "trend",
    "validate_chrome_trace",
    "validate_doctor_report",
    "validate_entry",
    "validate_policy_health",
    "validate_profile",
    "validate_speedscope",
    "write_chrome_trace",
]
