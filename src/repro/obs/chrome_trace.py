"""Chrome-trace (``chrome://tracing`` / Perfetto) JSON export.

Serializes a :class:`~repro.obs.recorder.SpanRecorder` into the Trace
Event Format (JSON object with a ``traceEvents`` array) that both
``chrome://tracing`` and https://ui.perfetto.dev open directly.

Mapping:

* each recorder track becomes one thread (named via ``thread_name``
  metadata events) inside a single process, ordered GPU stream first;
* kernel executions and spans become complete events (``ph: "X"``) whose
  nesting Perfetto infers from containment;
* faults, chain breaks and declined prefetches become thread-scoped
  instant events (``ph: "i"``);
* simulated seconds are exported as microseconds (the format's native
  unit), so one simulated second reads as one second in the UI.
"""

from __future__ import annotations

import json

from .recorder import ALL_TRACKS, TRACK_GPU, TRACK_LABELS, SpanRecorder

_PID = 1
_US = 1e6  # simulated seconds -> trace microseconds

#: Stable thread IDs per track (GPU first so Perfetto shows it on top).
TRACK_TIDS = {track: tid for tid, track in enumerate(ALL_TRACKS, start=1)}


def _metadata_events() -> list[dict]:
    events = [{
        "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
        "args": {"name": "repro simulation"},
    }]
    for track, tid in TRACK_TIDS.items():
        events.append({
            "ph": "M", "pid": _PID, "tid": tid, "name": "thread_name",
            "args": {"name": TRACK_LABELS.get(track, track)},
        })
        events.append({
            "ph": "M", "pid": _PID, "tid": tid, "name": "thread_sort_index",
            "args": {"sort_index": tid},
        })
    return events


def _tid(track: str) -> int:
    return TRACK_TIDS.get(track, len(TRACK_TIDS) + 1)


def chrome_trace_events(recorder: SpanRecorder) -> list[dict]:
    """The full ``traceEvents`` array for a recorded run."""
    events = _metadata_events()
    for rec in recorder.kernels:
        args = {
            "exec_id": rec.exec_id,
            "accesses": rec.accesses,
            "faults": rec.faults,
            "prefetch_hits": rec.prefetch_hits,
            "compute_s": rec.compute_time,
            "fault_wait_s": rec.fault_wait,
            "inflight_wait_s": rec.inflight_wait,
        }
        events.append({
            "ph": "X", "pid": _PID, "tid": _tid(TRACK_GPU),
            "name": rec.name, "cat": "kernel",
            "ts": rec.start * _US, "dur": max(0.0, rec.end - rec.start) * _US,
            "args": args,
        })
    for span in recorder.spans:
        event = {
            "ph": "X", "pid": _PID, "tid": _tid(span.track),
            "name": span.name, "cat": span.track,
            "ts": span.start * _US, "dur": max(0.0, span.duration) * _US,
        }
        if span.args:
            event["args"] = span.args
        events.append(event)
    for inst in recorder.instants:
        event = {
            "ph": "i", "s": "t", "pid": _PID, "tid": _tid(inst.track),
            "name": inst.name, "cat": inst.track, "ts": inst.t * _US,
        }
        if inst.args:
            event["args"] = inst.args
        events.append(event)
    return events


def chrome_trace_dict(recorder: SpanRecorder) -> dict:
    return {"traceEvents": chrome_trace_events(recorder),
            "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: SpanRecorder, path_or_file) -> None:
    """Write the Perfetto-loadable JSON to a path or open file object."""
    doc = chrome_trace_dict(recorder)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)
        return
    with open(path_or_file, "w") as fh:
        json.dump(doc, fh)


def validate_chrome_trace(doc: dict) -> None:
    """Cheap structural validation (used by tests and the CLI).

    Raises ``ValueError`` if the document would not load in Perfetto:
    missing ``traceEvents``, events without a phase, complete events with
    negative durations, or non-finite timestamps.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents missing or not a list")
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("X", "i", "I", "M", "B", "E", "C"):
            raise ValueError(f"event with unsupported phase: {ev!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts != ts:
            raise ValueError(f"event without finite ts: {ev!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"complete event with bad dur: {ev!r}")
