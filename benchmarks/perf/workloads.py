"""The benchmark's workloads: the cells each one runs, and how a pass runs.

A *cell* is one :class:`repro.api.RunRequest`. A *pass* runs every cell of
a workload once, one after another, and returns each cell's outcome: its
status and its deterministic simulated snapshot. Host time is measured
around whole passes by the caller; simulated outputs are checked against
the pins in ``expected/``, never compared as metrics.

The simulator is reached only through public entry points:
:func:`repro.api.execute` (traced or not; the tracer instruments each
facade through :func:`repro.harness.experiment.build_policy`) and the
journaled :class:`repro.exec.Executor` over a
:class:`repro.exec.ResultCache`.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.api import RunRequest, execute
from repro.harness import experiment
from repro.serve.spec import ServeSpec

WARMUP_ITERATIONS = 4

#: The three Fig. 9 training cells shared by both training workloads.
TRAIN_CELLS = (("resnet152", 1536), ("bert-large", 16), ("gpt2-l", 5))

#: Measured iterations per training cell. Replay engages after the warm-up,
#: so under ``um`` a measured iteration is cheap on the host; under
#: ``deepum`` the prefetch policy runs live and each one costs 3-7x more.
#: Sized so one pass of each workload takes about 3-4 s on a 2-vCPU x86 VM.
MEASURE_ITERATIONS = {
    "um": {"resnet152": 24, "bert-large": 24, "gpt2-l": 24},
    "deepum": {"resnet152": 4, "bert-large": 8, "gpt2-l": 2},
}


@dataclass(frozen=True)
class ServeCase:
    """One serve scenario, with its load pinned for every policy."""

    scenario: str
    model: str
    requests: int
    warmup_requests: int
    decode_tokens: int
    #: Offered rate (req/s) and SLO (ms), derived once from the ``um``
    #: cell's warm-up at seed 0 and then pinned, so ``um`` and ``deepum``
    #: see the same arrival trace and are judged against the same SLO.
    rate: float
    slo_ms: float


SERVE_CASES = (
    ServeCase("dlrm", "dlrm", requests=8, warmup_requests=4,
              decode_tokens=8, rate=1.2935, slo_ms=2705.84),
    # 8 requests: with the CLI defaults (48 + 4 warm-up) every policy ends
    # ``oom`` (see README). 4 decode tokens per request halve host time.
    ServeCase("gpt2-decode", "gpt2-l", requests=8, warmup_requests=1,
              decode_tokens=4, rate=5.64087, slo_ms=620.472),
)
SERVE_POLICIES = ("um", "deepum")

#: One model per family the registry has (depthwise conv, ResNet, BERT,
#: GPT-2, DLRM); the larger variants of a family add host time, not code.
SWEEP_MODELS = ("mobilenet", "resnet152", "bert-large", "gpt2-l", "dlrm")
SWEEP_POLICIES = ("um", "deepum", "stride", "markov", "lms")

WORKLOADS = ("train-um", "train-deepum", "serve-open-loop", "sweep-cold")


def requests(workload: str, seed: int) -> list[RunRequest]:
    """The workload's cells. ``seed`` reaches the simulator only here, as
    ``RunRequest.seed`` and ``ServeSpec.arrival_seed``."""
    if workload in ("train-um", "train-deepum"):
        policy = workload.split("-", 1)[1]
        return [
            RunRequest(model=model, policy=policy, batch=batch,
                       warmup_iterations=WARMUP_ITERATIONS,
                       measure_iterations=MEASURE_ITERATIONS[policy][model],
                       seed=seed)
            for model, batch in TRAIN_CELLS
        ]
    if workload == "serve-open-loop":
        return [
            RunRequest(model=case.model, policy=policy, kind="serve",
                       warmup_iterations=case.warmup_requests, seed=seed,
                       serve=ServeSpec(scenario=case.scenario,
                                       requests=case.requests,
                                       rate=case.rate, slo_ms=case.slo_ms,
                                       arrival_seed=seed,
                                       decode_tokens=case.decode_tokens))
            for case in SERVE_CASES for policy in SERVE_POLICIES
        ]
    if workload == "sweep-cold":
        return [
            RunRequest(model=model, policy=policy, warmup_iterations=1,
                       measure_iterations=1, seed=seed)
            for model in SWEEP_MODELS for policy in SWEEP_POLICIES
        ]
    raise KeyError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def forks_workers(workload: str) -> bool:
    """Whether an untraced pass runs its cells in executor workers."""
    return workload == "sweep-cold"


def iterations(req: RunRequest) -> int:
    """Training iterations a cell runs (serve cells run requests)."""
    if req.kind == "serve":
        return 0
    return req.warmup_iterations + req.measure_iterations


def _outcome(status: str, snapshot: Optional[dict[str, Any]],
             error: str = "") -> dict[str, Any]:
    out: dict[str, Any] = {"status": status, "snapshot": snapshot}
    if error:
        out["error"] = error.strip().splitlines()[-1]
    return out


def facade_counters(facade: Any) -> dict[str, int]:
    """Deterministic per-cell work counts read off a finished facade."""
    device = facade.device
    replayer = getattr(device, "replayer", None)
    counters = {
        "kernels": device.kernel_count,
        "replayed_iterations": getattr(replayer, "iterations_replayed", 0),
        "fault_batches": 0,
        "faulted_blocks": 0,
    }
    engine = getattr(facade, "engine", None)
    if engine is not None:
        counters["fault_batches"] = engine.stats.fault_batches
        counters["faulted_blocks"] = engine.stats.faulted_blocks
    return counters


def _run_cell(req: RunRequest, tracer: Any) -> dict[str, Any]:
    with (tracer.instrumenting(experiment, "build_policy")
          if tracer is not None else contextlib.nullcontext()):
        result = execute(req)
    out = _outcome(result.status, result.snapshot, result.error)
    facades = tracer.take_facades() if tracer is not None else []
    if len(facades) == 1:
        out["counters"] = facade_counters(facades[0])
    return out


def run_pass(workload: str, reqs: list[RunRequest], *, workdir: str,
             tracer: Any = None, timers: Any = None) -> dict[str, Any]:
    """Run every cell once.

    Returns ``{"wall_s": timed seconds, "cells": {cell key: outcome}}``
    plus, for executor passes, the executor's own timings. ``tracer``
    traces every cell; ``timers`` (a tracer with per-request and per-cell
    seams only) is open exactly while the pass is timed.

    Untraced ``sweep-cold`` passes go through a journaled
    ``Executor(workers=1)`` over a fresh result cache, so every cell
    misses and runs in a forked worker. Spans cannot leave a worker, so a
    traced pass runs the same cells in this process instead.
    """
    window = timers if timers is not None else contextlib.nullcontext()
    if forks_workers(workload) and tracer is None:
        return _executor_pass(reqs, workdir, window)
    cells: dict[str, dict[str, Any]] = {}
    probe = tracer if tracer is not None else timers
    with window:
        t0 = time.perf_counter()
        for req in reqs:
            with (probe.region(req.cell_key) if probe is not None
                  else contextlib.nullcontext()):
                cells[req.cell_key] = _run_cell(req, tracer)
        wall = time.perf_counter() - t0
    return {"wall_s": wall, "cells": cells}


def _executor_pass(reqs: list[RunRequest], workdir: str,
                   window: Any) -> dict[str, Any]:
    from repro.exec import (Executor, ExecutorConfig, ResultCache,
                            RunJournal, experiment_task)

    root = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
    runs_dir = os.path.join(root, "runs")
    config = ExecutorConfig(workers=1)
    try:
        tasks = [experiment_task(req) for req in reqs]
        cache = ResultCache(root=os.path.join(root, "cache"))
        with window:
            t0 = time.perf_counter()
            journal = RunJournal.create(tasks, kind="perfbench",
                                        runs_dir=runs_dir)
            results = Executor(config, cache=cache).run_journal(journal)
            wall = time.perf_counter() - t0
        # Untimed: the same grid over the now-warm cache, where every cell
        # must hit and return the stored result.
        warm = ResultCache(root=cache.root)
        warm_results = Executor(config, cache=warm).run_journal(
            RunJournal.create(tasks, kind="perfbench", runs_dir=runs_dir))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "wall_s": wall,
        "cells": {key: _outcome(doc["status"], doc.get("snapshot"),
                                str(doc.get("error", "")))
                  for key, doc in results.items()},
        "executor": {
            "worker_s": sum(float(doc.get("wall_seconds") or 0.0)
                            for doc in results.values()),
            "retried": sum(int(doc.get("attempts", 1)) > 1
                           for doc in results.values()),
            "warm_hit_ratio": warm.hit_rate or 0.0,
            "warm_agrees": all(
                warm_results[key].get("snapshot") == doc.get("snapshot")
                for key, doc in results.items()),
        },
    }
