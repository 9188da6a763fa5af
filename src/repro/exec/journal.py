"""The resumable on-disk run journal: ``runs/<run-id>/``.

Layout::

    runs/<run-id>/
      state.json          # the journal: task table, statuses, attempts
      cells/<slug>.json   # one terminal result document per finished cell

``state.json`` (schema v1)::

    {
      "journal_schema_version": 1,
      "run_id": "20260806-141530-3fa9c1",
      "kind": "run",                 # run | bench | sweep-degree | ...
      "created_at": "2026-08-06T14:15:30",
      "meta": { ... },               # entry-point specific (argv, out path)
      "executor": { ... },           # the ExecutorConfig the run started with
      "tasks": {
        "<key>": {"kind": "experiment", "payload": { ... },
                   "status": "pending|running|ok|oom|failed|timeout",
                   "attempts": 0, "error": "",
                   "result_file": "cells/<slug>.json" | null}
      }
    }

Every task payload is a resolved canonical :class:`repro.api.RunRequest`
dict (plus run-mode keys for the ``bench-cell``/``tournament-cell``
kinds); :func:`validate_state` refuses any other.

Every status transition rewrites ``state.json`` atomically (tmp file +
``os.replace``), so a killed run leaves a loadable journal: cells still
marked ``running`` were in flight when the process died and are re-executed
on resume, exactly like ``pending`` ones. Terminal cells are never re-run —
that is what makes a resumed run reproduce the uninterrupted run's
simulated metrics bit-for-bit (each cell is a deterministic function of its
journaled payload).

Wall-clock values (``created_at``, per-cell ``wall_seconds``) live only in
the journal and result envelopes, never inside the simulated ``snapshot``
metrics.

Live runs additionally keep one heartbeat file per in-flight cell under
``heartbeats/<slug>.json`` (see :mod:`repro.exec.telemetry`). Heartbeats
are advisory wall-clock telemetry — a running cell whose beat goes stale
is *displayed* as ``stalled`` (:meth:`RunJournal.display_status`) but its
journaled status stays ``running`` until the executor records an outcome.
"""

from __future__ import annotations

import json
import os
import re
import time
import uuid
from typing import Any, Optional, Sequence

from ..api import RunRequest
from .tasks import TASK_KINDS, Task

JOURNAL_SCHEMA_VERSION = 1

#: Default root directory for run journals, relative to the working dir.
DEFAULT_RUNS_DIR = "runs"

STATUS_PENDING = "pending"
STATUS_RUNNING = "running"

#: States a cell can end in; anything else is unfinished and will be
#: (re-)executed on resume.
TERMINAL_STATUSES = ("ok", "oom", "failed", "timeout")

ALL_STATUSES = (STATUS_PENDING, STATUS_RUNNING) + TERMINAL_STATUSES


class JournalError(ValueError):
    """A run journal is missing, malformed, or used inconsistently."""


def new_run_id() -> str:
    """Sortable-by-time unique run id, e.g. ``20260806-141530-3fa9c1``."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def _slug(key: str) -> str:
    """Filesystem-safe name for a cell key."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", key).strip("-") or "cell"


def _write_json_atomic(path: str, doc: dict[str, Any]) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _unresolved(payload: dict[str, Any]) -> str:
    """Why ``payload`` is not a resolved canonical request, or ``""``.

    Every task kind carries one, so a payload that does not parse, or
    leaves batch/scale/system to defaults, would run a different cell
    than the one journaled (a bench cell keyed by ``paper_batch`` would
    silently become the grid-midpoint batch).
    """
    try:
        request = RunRequest.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    missing = [name for name in ("batch", "scale", "system")
               if getattr(request, name) is None]
    return f"no {'/'.join(missing)}" if missing else ""


def validate_state(doc: Any) -> dict[str, Any]:
    """Structural validation of a ``state.json`` document."""
    if not isinstance(doc, dict):
        raise JournalError("journal state must be a JSON object")
    if doc.get("journal_schema_version") != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"journal_schema_version must be {JOURNAL_SCHEMA_VERSION}, "
            f"got {doc.get('journal_schema_version')!r}")
    for field in ("run_id", "kind", "created_at"):
        if not isinstance(doc.get(field), str) or not doc[field]:
            raise JournalError(f"journal {field!r} must be a non-empty string")
    tasks = doc.get("tasks")
    if not isinstance(tasks, dict) or not tasks:
        raise JournalError("journal 'tasks' must be a non-empty object")
    for key, entry in tasks.items():
        if not isinstance(entry, dict):
            raise JournalError(f"task {key!r} must be an object")
        if entry.get("kind") not in TASK_KINDS:
            raise JournalError(
                f"task {key!r}: unknown kind {entry.get('kind')!r}")
        if not isinstance(entry.get("payload"), dict):
            raise JournalError(f"task {key!r}: payload must be an object")
        problem = _unresolved(entry["payload"])
        if problem:
            raise JournalError(
                f"task {key!r}: payload is not a resolved RunRequest "
                f"({problem}); it would not run the journaled cell — start "
                "the run again")
        if entry.get("status") not in ALL_STATUSES:
            raise JournalError(
                f"task {key!r}: bad status {entry.get('status')!r}")
        attempts = entry.get("attempts")
        if not isinstance(attempts, int) or attempts < 0:
            raise JournalError(
                f"task {key!r}: attempts must be a non-negative integer")
    return doc


class RunJournal:
    """One run's durable state: what to do, what happened, where results are."""

    def __init__(self, root: str, state: dict[str, Any]):
        self.root = root
        self.state = validate_state(state)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        tasks: Sequence[Task],
        *,
        kind: str,
        meta: Optional[dict[str, Any]] = None,
        executor: Optional[dict[str, Any]] = None,
        runs_dir: str = DEFAULT_RUNS_DIR,
        run_id: Optional[str] = None,
    ) -> "RunJournal":
        if not tasks:
            raise JournalError("cannot create a journal with no tasks")
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise JournalError(f"duplicate task keys: {dupes}")
        rid = run_id if run_id is not None else new_run_id()
        root = os.path.join(runs_dir, rid)
        if os.path.exists(os.path.join(root, "state.json")):
            raise JournalError(f"run {rid!r} already exists under {runs_dir!r}")
        os.makedirs(os.path.join(root, "cells"), exist_ok=True)
        state: dict[str, Any] = {
            "journal_schema_version": JOURNAL_SCHEMA_VERSION,
            "run_id": rid,
            "kind": kind,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "meta": dict(meta or {}),
            "executor": dict(executor or {}),
            "tasks": {
                t.key: {
                    "kind": t.kind,
                    "payload": t.payload,
                    "status": STATUS_PENDING,
                    "attempts": 0,
                    "error": "",
                    "result_file": None,
                }
                for t in tasks
            },
        }
        journal = cls(root, state)
        journal.save()
        return journal

    @classmethod
    def load(cls, run_id: str,
             runs_dir: str = DEFAULT_RUNS_DIR) -> "RunJournal":
        root = os.path.join(runs_dir, run_id)
        path = os.path.join(root, "state.json")
        try:
            with open(path) as fh:
                state = json.load(fh)
        except FileNotFoundError:
            known = ", ".join(
                r["run_id"] for r in list_runs(runs_dir)) or "(none)"
            raise JournalError(
                f"no run {run_id!r} under {runs_dir!r}; known runs: {known}"
            ) from None
        except json.JSONDecodeError as exc:
            raise JournalError(f"corrupt journal {path}: {exc}") from None
        return cls(root, state)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def run_id(self) -> str:
        return str(self.state["run_id"])

    @property
    def kind(self) -> str:
        return str(self.state["kind"])

    @property
    def meta(self) -> dict[str, Any]:
        return dict(self.state.get("meta", {}))

    def keys(self) -> list[str]:
        return list(self.state["tasks"])

    def task(self, key: str) -> Task:
        entry = self._entry(key)
        return Task(key=key, kind=entry["kind"], payload=entry["payload"])

    def status(self, key: str) -> str:
        return str(self._entry(key)["status"])

    def attempts(self, key: str) -> int:
        return int(self._entry(key)["attempts"])

    def error(self, key: str) -> str:
        return str(self._entry(key).get("error", ""))

    def unfinished(self) -> list[str]:
        """Keys still to execute: ``pending`` plus interrupted ``running``."""
        return [
            key for key, entry in self.state["tasks"].items()
            if entry["status"] not in TERMINAL_STATUSES
        ]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry in self.state["tasks"].values():
            out[entry["status"]] = out.get(entry["status"], 0) + 1
        return out

    def _entry(self, key: str) -> dict[str, Any]:
        try:
            entry: dict[str, Any] = self.state["tasks"][key]
            return entry
        except KeyError:
            raise JournalError(
                f"run {self.run_id!r} has no cell {key!r}") from None

    # ------------------------------------------------------------------ #
    # heartbeats (live telemetry; see repro.exec.telemetry)
    # ------------------------------------------------------------------ #

    def heartbeat_path(self, key: str) -> str:
        """Where this cell's worker writes its heartbeat file."""
        self._entry(key)  # unknown keys fail loudly, like every accessor
        return os.path.join(self.root, "heartbeats", f"{_slug(key)}.json")

    def heartbeat(self, key: str) -> Optional[dict[str, Any]]:
        """The cell's last heartbeat (with file mtime), or ``None``."""
        from .telemetry import read_heartbeat

        return read_heartbeat(self.heartbeat_path(key))

    def heartbeat_interval(self) -> float:
        """The run's heartbeat cadence; pre-telemetry journals get 1.0s."""
        raw = self.state.get("executor", {}).get("heartbeat_interval")
        return float(raw) if isinstance(raw, (int, float)) and raw > 0 \
            else 1.0

    def display_status(self, key: str,
                       *, now: Optional[float] = None) -> str:
        """The journal status, except stale-heartbeat ``running`` cells
        read ``stalled`` (hung worker diagnosis; display-only)."""
        from .telemetry import classify_running

        status = self.status(key)
        if status != STATUS_RUNNING:
            return status
        return classify_running(self.heartbeat(key),
                                self.heartbeat_interval(), now=now)

    def display_counts(self, *, now: Optional[float] = None) -> dict[str, int]:
        """Like :meth:`counts`, with running split into running/stalled."""
        out: dict[str, int] = {}
        for key in self.keys():
            status = self.display_status(key, now=now)
            out[status] = out.get(status, 0) + 1
        return out

    # ------------------------------------------------------------------ #
    # transitions
    # ------------------------------------------------------------------ #

    def mark_running(self, key: str, attempt: int) -> None:
        entry = self._entry(key)
        entry["status"] = STATUS_RUNNING
        entry["attempts"] = attempt
        self.save()

    def finish(self, key: str, result: dict[str, Any]) -> None:
        """Record a terminal result: write the cell file, update the state."""
        status = result.get("status")
        if status not in TERMINAL_STATUSES:
            raise JournalError(
                f"cell {key!r}: non-terminal result status {status!r}")
        entry = self._entry(key)
        rel = os.path.join("cells", f"{_slug(key)}.json")
        _write_json_atomic(os.path.join(self.root, rel), result)
        entry["status"] = status
        entry["attempts"] = int(result.get("attempts", entry["attempts"]))
        entry["error"] = str(result.get("error", ""))
        entry["result_file"] = rel
        self.save()

    def reset(self, keys: Sequence[str]) -> None:
        """Send terminal cells back to ``pending`` (``--retry-failed``)."""
        for key in keys:
            entry = self._entry(key)
            entry["status"] = STATUS_PENDING
            entry["attempts"] = 0
            entry["error"] = ""
            entry["result_file"] = None
        self.save()

    def save(self) -> None:
        validate_state(self.state)
        _write_json_atomic(os.path.join(self.root, "state.json"), self.state)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def result(self, key: str) -> Optional[dict[str, Any]]:
        """The terminal result document for ``key``, if it finished."""
        rel = self._entry(key).get("result_file")
        if not rel:
            return None
        with open(os.path.join(self.root, rel)) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise JournalError(f"cell {key!r}: result file is not an object")
        return doc

    def results(self) -> dict[str, dict[str, Any]]:
        """All terminal results, in task order."""
        out: dict[str, dict[str, Any]] = {}
        for key in self.keys():
            doc = self.result(key)
            if doc is not None:
                out[key] = doc
        return out


def list_runs(runs_dir: str = DEFAULT_RUNS_DIR) -> list[dict[str, Any]]:
    """Summaries of every journal under ``runs_dir``, oldest first."""
    if not os.path.isdir(runs_dir):
        return []
    out = []
    for name in sorted(os.listdir(runs_dir)):
        path = os.path.join(runs_dir, name, "state.json")
        if not os.path.isfile(path):
            continue
        try:
            journal = RunJournal.load(name, runs_dir)
        except JournalError:
            out.append({"run_id": name, "kind": "?", "created_at": "?",
                        "counts": {}, "display_counts": {}, "corrupt": True})
            continue
        counts = journal.counts()
        display = (journal.display_counts()
                   if counts.get(STATUS_RUNNING) else dict(counts))
        out.append({
            "run_id": journal.run_id,
            "kind": journal.kind,
            "created_at": str(journal.state["created_at"]),
            "counts": counts,
            # Running cells reclassified by heartbeat staleness: a hung
            # worker shows as ``stalled`` here, not indefinite ``running``.
            "display_counts": display,
            "corrupt": False,
        })
    return out
