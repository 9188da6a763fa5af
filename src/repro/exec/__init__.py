"""``repro.exec``: the parallel, fault-tolerant, resumable cell executor.

The pieces:

* :mod:`repro.exec.tasks` — serializable task payloads and the worker-side
  dispatch (plus the test-only fault-injection hook).
* :mod:`repro.exec.journal` — the on-disk run journal
  (``runs/<run-id>/state.json`` + per-cell result files) that makes runs
  resumable.
* :mod:`repro.exec.executor` — the process-pool scheduling loop: crash
  isolation, per-cell wall-clock timeouts, bounded retry with backoff.
* :mod:`repro.exec.cache` — the content-addressed result cache that lets
  any of the above skip cells whose inputs (payload + sim-relevant code)
  have not changed, with bit-identical results.
* :mod:`repro.exec.telemetry` — worker-side phase/progress accounting and
  the heartbeat files that make ``repro runs watch`` live and stalled
  workers detectable.

The load-bearing invariant: a cell is a deterministic function of its
journaled payload, so parallel, serial, and killed-then-resumed runs
produce bit-identical simulated metrics (wall-clock may differ; the
``snapshot`` dicts may not).
"""

from ..api import KIND_EXPERIMENT, KIND_SERVE
from .cache import (
    CACHE_DIR_ENV,
    CACHE_ENABLE_ENV,
    CACHE_SCHEMA_VERSION,
    CACHEABLE_STATUSES,
    DEFAULT_CACHE_DIR,
    CacheKey,
    ResultCache,
    cache_key,
    code_fingerprint,
    deterministic_view,
)
from .executor import Executor, ExecutorConfig
from .journal import (
    DEFAULT_RUNS_DIR,
    JOURNAL_SCHEMA_VERSION,
    TERMINAL_STATUSES,
    JournalError,
    RunJournal,
    list_runs,
    new_run_id,
    validate_state,
)
from .tasks import (
    INJECT_ENV,
    KIND_BENCH_CELL,
    KIND_TOURNAMENT_CELL,
    TASK_KINDS,
    Task,
    execute_task,
    experiment_task,
)
from .telemetry import (
    STALL_FACTOR,
    STATUS_STALLED,
    TELEMETRY,
    HeartbeatWriter,
    Telemetry,
    classify_running,
    read_heartbeat,
    watch_snapshot,
    write_heartbeat,
)

__all__ = [
    "CACHEABLE_STATUSES",
    "CACHE_DIR_ENV",
    "CACHE_ENABLE_ENV",
    "CACHE_SCHEMA_VERSION",
    "CacheKey",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_RUNS_DIR",
    "Executor",
    "ExecutorConfig",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
    "deterministic_view",
    "INJECT_ENV",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "KIND_BENCH_CELL",
    "KIND_EXPERIMENT",
    "KIND_SERVE",
    "KIND_TOURNAMENT_CELL",
    "HeartbeatWriter",
    "RunJournal",
    "STALL_FACTOR",
    "STATUS_STALLED",
    "TASK_KINDS",
    "TELEMETRY",
    "TERMINAL_STATUSES",
    "Task",
    "Telemetry",
    "classify_running",
    "read_heartbeat",
    "watch_snapshot",
    "write_heartbeat",
    "execute_task",
    "experiment_task",
    "list_runs",
    "new_run_id",
    "validate_state",
]
