"""Task payloads the executor ships to worker processes.

A :class:`Task` is a (key, kind, payload) triple where the payload is a
plain JSON-serializable dict, so tasks can cross process boundaries and be
journaled to disk verbatim. :func:`execute_task` is the single dispatch
point a worker runs: it rebuilds the typed request from the payload,
executes it, and returns a JSON-serializable result dict whose ``status``
is one of :data:`repro.api.RUN_STATUSES`.

A request task whose payload carries the ``obs`` run-mode key (a trace
path, plus ``top`` for a phase-breakdown table) runs recorded: the worker
attaches a :class:`~repro.obs.SpanRecorder` and writes the cell's
simulated Perfetto timeline itself. Such a task exists for that side
effect, so :func:`uses_cache` keeps it away from the result cache.

Fault injection (tests and chaos drills) rides on the ``REPRO_EXEC_INJECT``
environment variable: a JSON object mapping task keys to an injection spec
(``{"mode": "crash"|"sigkill"|"hang"|"flaky", ...}``). Workers consult it
before executing; production runs never set it.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Optional

from ..api import KIND_EXPERIMENT, REQUEST_KINDS

KIND_BENCH_CELL = "bench-cell"
KIND_TOURNAMENT_CELL = "tournament-cell"

#: Request kinds run one ``RunRequest``; the two cell kinds run a request
#: under a harness mode (bench timing passes, tournament judging).
TASK_KINDS = REQUEST_KINDS + (KIND_BENCH_CELL, KIND_TOURNAMENT_CELL)

#: Environment variable carrying the fault-injection spec (JSON).
INJECT_ENV = "REPRO_EXEC_INJECT"


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work: a key, a kind, a JSON payload."""

    key: str
    kind: str
    payload: dict[str, Any]

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(
                f"unknown task kind {self.kind!r}; known: {TASK_KINDS}")
        if not self.key:
            raise ValueError("task key must be non-empty")


def experiment_task(request: Any, key: Optional[str] = None, *,
                    kind: Optional[str] = None, **mode: Any) -> Task:
    """Build an executor task from a :class:`repro.api.RunRequest`.

    The request is resolved first (batch/scale/system pinned) so every
    worker — and every resume — executes exactly the same cell, and so
    the payload is the canonical form the result cache keys on. The task
    kind defaults to the request's own (``experiment`` or ``serve``).
    The ``bench-cell`` and ``tournament-cell`` kinds pass theirs plus
    their run-mode keys (``mode``: ``repeats``/``warmup_runs``/
    ``collect_health``, the tournament's ``pressure`` label, or a
    recorded cell's ``obs``/``top``), which ride next to the canonical
    request fields.
    """
    resolved = request.resolved()
    return Task(
        key=key if key is not None else resolved.cell_key,
        kind=kind if kind is not None else resolved.kind,
        payload={**resolved.canonical_payload(), **mode},
    )


def uses_cache(task: Task) -> bool:
    """Whether the result cache may serve or store ``task``'s result.

    A recorded (``obs``) task always runs: a cached result would skip the
    trace file it exists to write.
    """
    return "obs" not in task.payload


def maybe_inject_fault(key: str, attempt: int) -> None:
    """Apply the ``REPRO_EXEC_INJECT`` spec for ``key``, if any.

    Modes: ``crash`` exits the process without a result (optionally only
    through attempt ``until_attempt``); ``sigkill`` dies by signal;
    ``hang`` sleeps ``seconds`` (default: forever, for timeout tests);
    ``flaky`` raises until attempt ``ok_on_attempt`` is reached.
    """
    raw = os.environ.get(INJECT_ENV)
    if not raw:
        return
    spec = json.loads(raw).get(key)
    if not spec:
        return
    mode = spec.get("mode")
    if mode == "flaky":
        if attempt < int(spec.get("ok_on_attempt", 2)):
            raise RuntimeError(
                f"injected flaky failure for {key!r} (attempt {attempt})")
    elif mode == "crash":
        if attempt <= int(spec.get("until_attempt", 10 ** 9)):
            os._exit(int(spec.get("exit_code", 1)))
    elif mode == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "hang":
        time.sleep(float(spec.get("seconds", 86400.0)))
    else:
        raise ValueError(f"unknown injection mode {mode!r} for {key!r}")


def execute_task(kind: str, payload: dict[str, Any],
                 attempt: int = 1) -> dict[str, Any]:
    """Run one task in the current process; returns its result dict.

    Exceptions escape to the caller (the worker entry wraps them into a
    ``failed`` result with the traceback) — except inside
    :func:`repro.api.execute`, which already captures cell-level failures.
    """
    from .telemetry import TELEMETRY

    if kind in REQUEST_KINDS:
        from ..api import RunRequest, execute

        TELEMETRY.set_phase("run" if kind == KIND_EXPERIMENT else kind)
        request = RunRequest.from_dict(payload)
        if "obs" in payload:
            return _execute_recorded(request, payload["obs"],
                                     payload.get("top"))
        return execute(request).to_dict()
    if kind == KIND_BENCH_CELL:
        from ..bench.runner import run_scenario_cell

        # The envelope the executor gives every result, so `cache verify`
        # compares a re-run against a stored entry key for key.
        return {"status": "ok", "cell": run_scenario_cell(payload),
                "error": ""}
    if kind == KIND_TOURNAMENT_CELL:
        from ..harness.tournament import run_tournament_cell

        TELEMETRY.set_phase("run")
        return run_tournament_cell(payload)
    raise ValueError(f"unknown task kind {kind!r}; known: {TASK_KINDS}")


def _execute_recorded(request: Any, path: str,
                      top: Optional[int]) -> dict[str, Any]:
    """Run ``request`` recorded and write its Perfetto timeline to ``path``.

    The result carries an ``obs`` section: the ``note`` for the command's
    table and, with ``top``, the per-kernel phase ``breakdown`` table.
    Tensor-swap facades have no UM engine to record, so such a cell runs
    unrecorded under a note saying so.
    """
    from functools import partial

    from ..api import execute
    from ..harness.report import phase_breakdown_table
    from ..obs import SpanRecorder, attach, write_chrome_trace

    recorder = SpanRecorder()
    try:
        result = execute(request, observe=partial(attach, recorder=recorder))
    except TypeError:
        doc = execute(request).to_dict()
        doc["obs"] = {"note": "no obs (tensor-swap)"}
        return doc
    write_chrome_trace(recorder, path)
    obs = {"note": f"trace: {path}"}
    if top is not None:
        obs["breakdown"] = phase_breakdown_table(
            recorder, top, title=f"{request.policy}: per-kernel phase "
                                 "breakdown (worst stalls first)")
    doc = result.to_dict()
    doc["obs"] = obs
    return doc
