"""Scenario execution: warm-up runs, repeats, min-of-N wall timing.

Wall-clock numbers answer "did the simulator get slower?", so each cell
runs ``warmup_runs`` untimed passes (heating code caches and the branch
predictor) followed by ``repeats`` timed passes, keeping the minimum — the
standard estimator for the noise-free cost of deterministic code.  The
simulated metrics of every timed pass are compared on the spot: a
deterministic simulator must reproduce them exactly, so any drift between
repeats aborts the bench rather than silently reporting an unstable cell.

One scenario cell is a ``bench-cell`` executor task: the cell's canonical
:class:`~repro.api.RunRequest` payload plus the run-mode keys
``repeats``/``warmup_runs``/``collect_health``. :func:`run_scenario` runs
them through the process-pool executor at every pool size (so every run
shares one cache population), journaled for ``repro runs resume`` when
given a ``runs_dir``, and :func:`bench_document` assembles the result
document for a live run and a resumed one alike.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import TYPE_CHECKING, Any, Optional

from ..api import RunRequest, RunResult, execute
from ..config import DeepUMConfig
from ..harness.experiment import ExperimentResult
from .manifest import DEFAULT_MEASURE, DEFAULT_WARMUP, Scenario
from .schema import make_result

if TYPE_CHECKING:
    from ..exec.tasks import Task


class BenchRunError(RuntimeError):
    """A scenario cell failed (OOM) or was non-deterministic."""


def run_cell(
    model: str,
    batch: int,
    policy: str,
    *,
    deepum_config: Optional[DeepUMConfig] = None,
    warmup_iterations: int = DEFAULT_WARMUP,
    measure_iterations: int = DEFAULT_MEASURE,
    seed: int = 0,
) -> ExperimentResult:
    """One experiment cell under the bench's pinned iteration counts.

    This is the primitive the figure/table benchmarks share (see
    ``benchmarks/common.py``): one :class:`repro.api.RunRequest` executed
    in-process.
    """
    result = execute(
        RunRequest(
            model=model,
            policy=policy,
            batch=batch,
            warmup_iterations=warmup_iterations,
            measure_iterations=measure_iterations,
            deepum_config=deepum_config,
            seed=seed,
        )
    )
    return _checked(result)


def _checked(result: RunResult) -> ExperimentResult:
    """The live experiment of a finished (ok or OOM) cell."""
    if result.status == "failed":
        raise BenchRunError(f"{result.request.cell_key} failed: {result.error}")
    assert result.experiment is not None
    return result.experiment


def _sim_metrics(result: ExperimentResult) -> dict:
    if result.oom or result.window is None:
        raise BenchRunError(
            f"{result.model}@{result.paper_batch}/{result.policy} OOMed: "
            f"{result.oom_reason}"
        )
    window = result.window
    return {
        "elapsed": window.elapsed,
        "page_faults": window.page_faults,
        "prefetch_coverage": window.prefetch_coverage,
        "bytes_in": window.bytes_in,
        "bytes_out": window.bytes_out,
        "peak_populated_bytes": result.peak_populated_bytes,
    }


def _peak_rss_bytes() -> int:
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return ru if sys.platform == "darwin" else ru * 1024


def scenario_tasks(
    scenario: Scenario,
    *,
    repeats: int,
    warmup_runs: int,
    collect_health: bool,
) -> list[Task]:
    """One ``bench-cell`` task per scenario cell, keyed by cell name."""
    from ..exec.tasks import KIND_BENCH_CELL, experiment_task

    return [
        experiment_task(
            request,
            key,
            kind=KIND_BENCH_CELL,
            repeats=repeats,
            warmup_runs=warmup_runs,
            collect_health=collect_health,
        )
        for key, request in scenario.requests().items()
    ]


def run_scenario_cell(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one ``bench-cell`` task payload (all its passes).

    Returns the cell document stored under ``cells`` in the bench result,
    plus a ``peak_rss_bytes`` key (this process's high-water mark) that
    :func:`bench_document` pops into the document level. Raises
    :class:`BenchRunError` on OOM or nondeterminism, and
    :class:`~repro.obs.prof.NeutralityError` if the health pass moved a
    simulated metric — in a worker process either surfaces as a
    ``failed`` cell with the traceback.
    """
    from ..exec.telemetry import TELEMETRY
    from ..obs.doctor import judge
    from ..obs.prof import check_neutral

    request = RunRequest.from_dict(payload)
    cell_name = request.cell_key

    def one() -> dict:
        result = _checked(execute(request))
        # Advance the live sim-time watermark at pass boundaries (wall
        # telemetry only; see repro.exec.telemetry — never fed back into
        # the simulation).
        elapsed = getattr(result.facade, "elapsed", None)
        if callable(elapsed):
            TELEMETRY.set_sim_time(float(elapsed()))
        return _sim_metrics(result)

    # Per-cell phase accounting: the phases set below become the cell's
    # ``wall_breakdown`` and drive heartbeat progress/ETA in worker runs.
    TELEMETRY.reset(key=cell_name, attempt=TELEMETRY.attempt)
    warmup_runs = payload["warmup_runs"]
    repeats = payload["repeats"]
    passes = warmup_runs + repeats + (1 if payload["collect_health"] else 0)
    for i in range(warmup_runs):
        TELEMETRY.set_phase("warmup", completed=i, total=passes)
        one()
    walls: list[float] = []
    sim: Optional[dict] = None
    for i in range(repeats):
        TELEMETRY.set_phase("timed", completed=warmup_runs + i, total=passes)
        t0 = time.perf_counter()
        metrics = one()
        walls.append(time.perf_counter() - t0)
        if sim is None:
            sim = metrics
        elif sim != metrics:
            raise BenchRunError(
                f"{cell_name}: simulated metrics differed between "
                f"repeats ({sim} vs {metrics}); the simulator must be "
                f"deterministic"
            )
    assert sim is not None
    cell: dict[str, Any] = {
        "wall_seconds": min(walls),
        "wall_seconds_all": walls,
        "sim": sim,
    }
    if payload["collect_health"]:
        TELEMETRY.set_phase("health", completed=warmup_runs + repeats, total=passes)
        # None for a tensor-swap facade: no UM engine, no health section.
        judged = judge(request)
        if judged is not None:
            inst_sim = _sim_metrics(_checked(judged.result))
            check_neutral(cell_name, sim, inst_sim, "decision attribution")
            assert judged.health is not None
            cell["policy_health"] = judged.health.to_dict()
    cell["wall_breakdown"] = TELEMETRY.wall_breakdown()
    cell["peak_rss_bytes"] = _peak_rss_bytes()
    return cell


def bench_document(
    scenario: Scenario,
    results: dict[str, dict],
    *,
    repeats: int,
    warmup_runs: int,
) -> dict:
    """The bench result document from per-cell ``bench-cell`` results.

    Used by a live run and by ``repro runs resume`` alike. Raises
    :class:`BenchRunError` if any cell did not finish ``ok`` — a bench
    document must cover every pinned cell or it is not a benchmark.
    """
    cells: dict[str, dict] = {}
    for key, doc in results.items():
        if doc.get("status") != "ok":
            raise BenchRunError(f"{key}: cell ended {doc.get('status')!r}: {doc.get('error', '')}")
        cells[key] = doc["cell"]
    cell_peaks = [cell.pop("peak_rss_bytes", 0) for cell in cells.values()]
    return make_result(
        scenario.name,
        scenario.config_dict(),
        repeats=repeats,
        warmup_runs=warmup_runs,
        cells=cells,
        peak_rss_bytes=max([_peak_rss_bytes()] + cell_peaks),
    )


def run_scenario(
    scenario: Scenario,
    *,
    repeats: int = 3,
    warmup_runs: int = 1,
    collect_health: bool = False,
    progress=None,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
    retries: int = 1,
    heartbeat_interval: float = 1.0,
    runs_dir: Optional[str] = None,
    run_id: Optional[str] = None,
    out: Optional[str] = None,
    cache=None,
) -> dict:
    """Run every cell of ``scenario``; returns a schema result dict.

    With ``collect_health`` each cell gets one extra *untimed* pass with
    decision attribution on, adding a ``policy_health`` section (schema v2).
    The instrumented pass must reproduce the timed passes' simulated
    metrics exactly — a recorder that perturbs simulation is a bug the
    bench refuses to measure around.

    The cells run in ``workers`` worker processes through the executor.
    With ``runs_dir`` the run is journaled there, so a killed bench can be
    resumed (``repro runs resume``); without one nothing is written. The
    simulated metrics are bit-identical at every worker count.

    With ``cache`` (a :class:`repro.exec.ResultCache`) cells whose
    content-addressed key is already stored are replayed instead of
    re-simulated — a replayed cell is bit-for-bit identical to a fresh one
    (the recorded wall times are the original measurement's).
    """
    from ..exec import Executor, ExecutorConfig, RunJournal

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    tasks = scenario_tasks(
        scenario,
        repeats=repeats,
        warmup_runs=warmup_runs,
        collect_health=collect_health,
    )
    config = ExecutorConfig(
        workers=workers,
        cell_timeout=cell_timeout,
        retries=retries,
        heartbeat_interval=heartbeat_interval,
    )
    executor = Executor(config, progress=progress, cache=cache)
    if runs_dir is None:
        results = executor.run_tasks(tasks)
    else:
        journal = RunJournal.create(
            tasks,
            kind="bench",
            meta={
                "scenario": scenario.name,
                "repeats": repeats,
                "warmup_runs": warmup_runs,
                "collect_health": collect_health,
                "out": out,
            },
            executor=config.to_dict(),
            runs_dir=runs_dir,
            run_id=run_id,
        )
        if progress is not None:
            progress(
                f"bench run {journal.run_id}: {len(tasks)} cells across "
                f"{workers} workers (journal: {journal.root})"
            )
        results = executor.run_journal(journal)
    return bench_document(scenario, results, repeats=repeats, warmup_runs=warmup_runs)
