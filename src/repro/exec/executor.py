"""Process-pool cell executor: isolation, timeouts, retries, resume.

Each cell runs in its own worker process (one process per attempt, up to
``workers`` concurrently), which buys three properties the old in-process
loop could not offer:

* **Crash isolation** — a worker dying (segfault, ``os._exit``, OOM
  killer) marks its cell ``failed`` with the exit code instead of taking
  the sweep down.
* **Wall-clock timeouts** — a hung cell is terminated at
  ``cell_timeout`` seconds and marked ``timeout``; the sweep continues.
* **Bounded retry with backoff** — ``failed`` cells (crashes and
  unexpected exceptions; never deterministic ``oom``/``timeout``) are
  retried up to ``retries`` extra attempts, with exponential backoff.

Because every cell is a deterministic function of its journaled payload
(see :mod:`repro.api`), scheduling is free to be arbitrary: runs at any
pool size, and killed-then-resumed runs, all produce bit-identical
simulated metrics — only wall-clock differs. The test suite enforces this.
The same property powers the optional content-addressed result cache
(:mod:`repro.exec.cache`): when one is attached, first attempts consult it
before any worker is spawned — a hit journals the stored result as if the
cell had run — and fresh deterministic results are stored for the next
sweep, bench, or CI run that needs the identical cell. A recorded
(``obs``) task never touches the cache (:func:`~repro.exec.tasks.uses_cache`).

Progress is reported two ways: a ``progress`` callback gets human lines,
and an optional :class:`repro.obs.SpanRecorder` gets per-cell spans and
instants on the ``exec`` track. Unlike every simulation track, executor
events are stamped in *wall-clock seconds since the run started* — they
describe the harness, not the simulated machine.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass
from multiprocessing.connection import Connection
from typing import Any, Callable, Optional, Sequence

from ..api import REQUEST_KINDS
from .cache import CACHEABLE_STATUSES, ResultCache
from .journal import RunJournal
from .tasks import Task, execute_task, maybe_inject_fault, uses_cache

#: Statuses the executor will retry (everything else is deterministic).
RETRYABLE_STATUSES = ("failed",)


@dataclass(frozen=True)
class ExecutorConfig:
    """Scheduling knobs; everything here is sim-metric-neutral."""

    workers: int = 2
    #: Per-cell wall-clock timeout in seconds; ``None`` disables.
    cell_timeout: Optional[float] = None
    #: Extra attempts after the first for retryable failures.
    retries: int = 1
    #: Base retry delay; attempt ``n`` waits ``backoff * 2**(n-1)``.
    backoff: float = 0.25
    poll_interval: float = 0.02
    #: ``fork``/``spawn``/``forkserver``; ``None`` picks ``fork`` where
    #: available (Linux) and the platform default elsewhere.
    start_method: Optional[str] = None
    #: Worker heartbeat cadence in seconds (journaled runs only). A cell
    #: whose beat stalls for 3x this interval displays as ``stalled``.
    heartbeat_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, "
                f"got {self.heartbeat_interval}")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _worker_entry(conn: Connection, key: str, kind: str,
                  payload: dict[str, Any], attempt: int,
                  heartbeat_path: Optional[str] = None,
                  heartbeat_interval: float = 1.0) -> None:
    """Run one task and ship its result dict back over the pipe.

    Runs in the child process. Any exception becomes a ``failed`` result
    with the full traceback; a crash that skips the ``send`` entirely is
    detected by the parent via the process exit code.

    With ``heartbeat_path`` (journaled runs) a daemon
    :class:`~repro.exec.telemetry.HeartbeatWriter` persists this worker's
    live phase/sim-time telemetry; the writer starts before fault
    injection so even an injected hang leaves a datable first beat. The
    result ships a ``wall_breakdown`` (seconds per phase) either way.
    """
    from .telemetry import TELEMETRY, HeartbeatWriter

    t0 = time.perf_counter()
    TELEMETRY.reset(key=key, attempt=attempt)
    writer = None
    if heartbeat_path is not None:
        writer = HeartbeatWriter(heartbeat_path, heartbeat_interval)
        writer.start()
    try:
        maybe_inject_fault(key, attempt)
        result = execute_task(kind, payload, attempt)
    except Exception:
        result = {"status": "failed", "error": traceback.format_exc()}
    result["wall_seconds"] = time.perf_counter() - t0
    result.setdefault("wall_breakdown", TELEMETRY.wall_breakdown())
    if writer is not None:
        writer.stop()
    try:
        conn.send(result)
    finally:
        conn.close()


def _poll_result(conn: Connection) -> Optional[dict[str, Any]]:
    """The result waiting on a worker's pipe, or None if there is none."""
    if not conn.poll():
        return None
    try:
        result: dict[str, Any] = conn.recv()
    except EOFError:
        return None  # pipe closed without a result
    return result


@dataclass
class _Slot:
    """One in-flight attempt: the process, its pipe, and its deadline."""

    task: Task
    attempt: int
    proc: Any  # multiprocessing.process.BaseProcess
    conn: Connection
    started: float
    deadline: Optional[float]


class Executor:
    """Schedules tasks over a bounded pool of single-use worker processes."""

    def __init__(
        self,
        config: Optional[ExecutorConfig] = None,
        *,
        progress: Optional[Callable[[str], None]] = None,
        recorder: Optional[Any] = None,
        cache: Optional[ResultCache] = None,
    ):
        self.config = config if config is not None else ExecutorConfig()
        self.progress = progress
        self.recorder = recorder
        #: Content-addressed result cache; ``None`` (the default) always
        #: executes. With a cache, first attempts consult it before a
        #: worker is spawned, and fresh deterministic results are stored.
        self.cache = cache
        method = self.config.start_method
        if method is None:
            method = ("fork" if "fork" in mp.get_all_start_methods()
                      else None)
        self._ctx = mp.get_context(method)

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #

    def run_tasks(self, tasks: Sequence[Task]) -> dict[str, dict[str, Any]]:
        """Execute ``tasks`` (no journal); returns key -> result dict."""
        keys = [t.key for t in tasks]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate task keys: {dupes}")
        return self._execute(list(tasks), journal=None, limit=None)

    def run_journal(self, journal: RunJournal, *,
                    limit: Optional[int] = None) -> dict[str, dict[str, Any]]:
        """Execute the journal's unfinished cells; returns all results.

        Cells already in a terminal state are returned from their journaled
        result files without re-execution — this is both the resume path
        and the reason a resumed run reproduces an uninterrupted one
        exactly. ``limit`` stops after that many cells finish this call
        (used to simulate a killed run in tests, and for chunked runs).
        """
        tasks = [journal.task(key) for key in journal.unfinished()]
        self._execute(tasks, journal=journal, limit=limit)
        return journal.results()

    # ------------------------------------------------------------------ #
    # the scheduling loop
    # ------------------------------------------------------------------ #

    def _execute(
        self,
        tasks: list[Task],
        *,
        journal: Optional[RunJournal],
        limit: Optional[int],
    ) -> dict[str, dict[str, Any]]:
        cfg = self.config
        results: dict[str, dict[str, Any]] = {}
        queue: deque[tuple[Task, int]] = deque((t, 1) for t in tasks)
        retry: list[tuple[float, Task, int]] = []  # (eligible_at, task, att)
        running: list[_Slot] = []
        completed = 0
        t0 = time.monotonic()

        def note(name: str, t: float, start: Optional[float] = None,
                 args: Optional[dict[str, Any]] = None) -> None:
            if self.recorder is None:
                return
            from ..obs.recorder import TRACK_EXEC

            if start is None:
                self.recorder.instant(TRACK_EXEC, name, t, args)
            else:
                self.recorder.span(TRACK_EXEC, name, start, t, args)

        def finish(task: Task, result: dict[str, Any], attempt: int,
                   started: Optional[float]) -> None:
            nonlocal completed
            result["attempts"] = attempt
            result.setdefault("error", "")
            if task.kind in REQUEST_KINDS:
                # A cell the worker never reported (timeout, crash) still
                # names its request, so every renderer can row it.
                result.setdefault("request", task.payload)
            results[task.key] = result
            completed += 1
            if journal is not None:
                journal.finish(task.key, result)
            if (self.cache is not None and uses_cache(task)
                    and not result.get("cached")
                    and result["status"] in CACHEABLE_STATUSES):
                if self.cache.put(self.cache.key(task.kind, task.payload),
                                  result):
                    note(f"cache store {task.key}", time.monotonic() - t0,
                         args={"status": result["status"]})
            now = time.monotonic() - t0
            note(f"{task.key}", now,
                 start=(started - t0) if started is not None else now,
                 args={"status": result["status"], "attempt": attempt,
                       "cached": bool(result.get("cached"))})
            if self.progress is not None:
                status = result["status"]
                if result.get("cached"):
                    self.progress(f"{task.key}: {status} (cached)")
                    return
                wall = result.get("wall_seconds")
                dur = f" in {wall:.2f}s" if isinstance(wall, float) else ""
                line = f"{task.key}: {status}{dur} (attempt {attempt})"
                err = str(result.get("error", ""))
                if status != "ok" and err:
                    line += f" - {err.strip().splitlines()[-1]}"
                self.progress(line)

        def launch(task: Task, attempt: int) -> None:
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            hb_path = (journal.heartbeat_path(task.key)
                       if journal is not None else None)
            proc = self._ctx.Process(
                target=_worker_entry,
                args=(child_conn, task.key, task.kind, task.payload, attempt,
                      hb_path, cfg.heartbeat_interval),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            if journal is not None:
                journal.mark_running(task.key, attempt)
            now = time.monotonic()
            deadline = (now + cfg.cell_timeout
                        if cfg.cell_timeout is not None else None)
            running.append(_Slot(task, attempt, proc, parent_conn,
                                 now, deadline))
            note(f"start {task.key}", now - t0,
                 args={"attempt": attempt, "pid": proc.pid})
            if self.progress is not None and attempt > 1:
                self.progress(f"{task.key}: retrying (attempt {attempt})")

        def reap(slot: _Slot, result: dict[str, Any],
                 *, retryable: bool) -> None:
            running.remove(slot)
            slot.conn.close()
            if (retryable and result["status"] in RETRYABLE_STATUSES
                    and slot.attempt <= cfg.retries):
                delay = cfg.backoff * (2 ** (slot.attempt - 1))
                retry.append((time.monotonic() + delay, slot.task,
                              slot.attempt + 1))
                note(f"retry {slot.task.key}", time.monotonic() - t0,
                     args={"failed_attempt": slot.attempt,
                           "delay_seconds": delay})
                if self.progress is not None:
                    err = str(result.get("error", "")).strip()
                    tail = err.splitlines()[-1] if err else "failure"
                    self.progress(
                        f"{slot.task.key}: attempt {slot.attempt} failed "
                        f"({tail}); retrying in {delay:.2f}s")
            else:
                finish(slot.task, result, slot.attempt, slot.started)

        def kill(slot: _Slot) -> None:
            slot.proc.terminate()
            slot.proc.join(1.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(1.0)

        try:
            while queue or retry or running:
                now = time.monotonic()
                # Promote retries whose backoff elapsed.
                for item in list(retry):
                    if item[0] <= now:
                        retry.remove(item)
                        queue.append((item[1], item[2]))
                # Fill free worker slots (respecting the completion limit).
                while (queue and len(running) < cfg.workers
                       and (limit is None
                            or completed + len(running) < limit)):
                    task, attempt = queue.popleft()
                    # Consult the content-addressed cache before spawning
                    # a worker; a hit fills the cell as if it had run.
                    if (attempt == 1 and self.cache is not None
                            and uses_cache(task)):
                        hit = self.cache.get(
                            self.cache.key(task.kind, task.payload))
                        if hit is not None:
                            hit["cached"] = True
                            note(f"cache hit {task.key}",
                                 time.monotonic() - t0,
                                 args={"status": hit.get("status")})
                            finish(task, hit, int(hit.get("attempts", 1)),
                                   None)
                            continue
                        note(f"cache miss {task.key}",
                             time.monotonic() - t0)
                    launch(task, attempt)
                if not running:
                    if limit is not None and completed >= limit:
                        break
                    if not queue and retry:
                        time.sleep(max(
                            0.0,
                            min(e for e, _, _ in retry) - time.monotonic()))
                        continue
                    if not queue:
                        break
                    continue
                progressed = False
                for slot in list(running):
                    msg = _poll_result(slot.conn)
                    dead = msg is None and not slot.proc.is_alive()
                    if dead:
                        # The worker may have sent its result and exited
                        # between the poll and the liveness check: read
                        # the pipe once more before calling it a crash.
                        msg = _poll_result(slot.conn)
                    if msg is not None:
                        slot.proc.join(5.0)
                        if slot.proc.is_alive():
                            kill(slot)
                        reap(slot, msg, retryable=True)
                        progressed = True
                    elif dead:
                        slot.proc.join()
                        reap(slot, {
                            "status": "failed",
                            "error": (
                                "worker crashed before reporting a result "
                                f"(exit code {slot.proc.exitcode})"),
                            "wall_seconds": time.monotonic() - slot.started,
                        }, retryable=True)
                        progressed = True
                    elif (slot.deadline is not None
                          and time.monotonic() >= slot.deadline):
                        kill(slot)
                        assert cfg.cell_timeout is not None
                        reap(slot, {
                            "status": "timeout",
                            "error": (
                                f"cell exceeded the {cfg.cell_timeout:.1f}s "
                                f"wall-clock timeout "
                                f"(attempt {slot.attempt})"),
                            "wall_seconds": time.monotonic() - slot.started,
                        }, retryable=False)
                        progressed = True
                if not progressed and running:
                    time.sleep(cfg.poll_interval)
        finally:
            # On interrupt (or an executor bug) never leak workers. Cells
            # left "running" in the journal re-execute on resume.
            for slot in running:
                kill(slot)
                slot.conn.close()
        return results
