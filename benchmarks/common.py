"""Shared machinery for the per-table/figure benchmark harnesses.

Each ``bench_*`` module regenerates one table or figure of the paper's
evaluation section: it runs the experiment grid, a dict of
:class:`repro.api.RunRequest` cells, through :func:`run_grid`, prints the
same rows/series the paper reports (side by side with the paper's numbers
where useful), and asserts the qualitative shape.

Every cell runs on one :class:`repro.exec.Executor` with the result cache
the ``repro`` commands use, so benches that share cells (Fig. 9a/9b/9c,
Tables 4 and 5) simulate them once and a re-run replays finished cells.
``REPRO_CACHE=off`` runs every cell cold.

Environment knobs:

* ``REPRO_FAST=1`` — trim grids to one batch per model and fewer
  iterations, for quick smoke runs;
* ``REPRO_MODELS=gpt2-xl,bert-large`` — restrict the model set.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from repro.api import STATUS_OK, STATUS_OOM, RunRequest, RunResult
from repro.bench.manifest import DEFAULT_MEASURE, DEFAULT_WARMUP
from repro.config import DeepUMConfig
from repro.exec import Executor, ExecutorConfig, ResultCache, experiment_task
from repro.exec.cache import cache_disabled_by_env
from repro.harness.experiment import policy_accepts_config
from repro.models.registry import get_model_config

FAST = os.environ.get("REPRO_FAST", "") not in ("", "0")

FIG9_MODELS = ("gpt2-xl", "gpt2-l", "bert-large", "bert-base", "dlrm",
               "resnet152", "resnet200")
FIG13_MODELS = ("resnet200-cifar", "bert-large-cola", "dcgan", "mobilenet")

#: Models used for parameter sweeps (Figs. 11 and 12) — a representative
#: subset keeps sweep cost manageable.
SWEEP_MODELS = ("gpt2-l", "bert-large", "resnet152")

# Shared with the ``repro bench`` scenario manifests, so a pinned bench
# scenario times exactly what the figure grids run.
WARMUP = DEFAULT_WARMUP
MEASURE = 2 if FAST else DEFAULT_MEASURE

#: Runs every figure and table cell, max-batch probes included.
EXECUTOR = Executor(ExecutorConfig(workers=os.cpu_count() or 1),
                    cache=None if cache_disabled_by_env() else ResultCache())


def selected_models(default: Iterable[str]) -> tuple[str, ...]:
    """``REPRO_MODELS`` within ``default``; an unregistered name raises."""
    env = os.environ.get("REPRO_MODELS")
    if not env:
        return tuple(default)
    chosen = tuple(m.strip() for m in env.split(",") if m.strip())
    for model in chosen:
        get_model_config(model)  # KeyError lists the registry's models
    return tuple(m for m in chosen if m in set(default)) or tuple(default)


def fig9_batches(model: str) -> tuple[int, ...]:
    batches = get_model_config(model).fig9_batches
    if FAST:
        return (batches[len(batches) // 2],)
    return batches


def cell(model: str, batch: int, policy: str,
         config: Optional[DeepUMConfig] = None) -> RunRequest:
    """One figure cell under the pinned iteration counts.

    Config-accepting policies default to an explicit ``DeepUMConfig()``,
    as in ``repro run``, so the two share one result-cache entry.
    """
    if config is None and policy_accepts_config(policy):
        config = DeepUMConfig()
    return RunRequest(model=model, policy=policy, batch=batch,
                      warmup_iterations=WARMUP, measure_iterations=MEASURE,
                      deepum_config=config)


def run_grid(requests: dict) -> dict:
    """Run a figure grid on :data:`EXECUTOR`: key -> ``RunResult``.

    An ``oom`` cell is a result (Fig. 13 needs vDNN-on-BERT to be one);
    any other non-``ok`` cell raises, naming the cell and its error.
    """
    names = {key: str(key) for key in requests}
    docs = EXECUTOR.run_tasks([experiment_task(request, names[key])
                               for key, request in requests.items()])
    results = {key: RunResult.from_dict(docs[names[key]]) for key in requests}
    for key, result in results.items():
        if result.status not in (STATUS_OK, STATUS_OOM):
            raise RuntimeError(f"figure cell {names[key]} ended "
                               f"{result.status}: {result.error}")
    print_cache_summary()
    return results


def print_cache_summary() -> None:
    if EXECUTOR.cache is not None:
        print(EXECUTOR.cache.summary_line())


def fig9_grid() -> dict[tuple[str, int, str], RunResult]:
    """The Fig. 9 sweep: 7 models x batch grid x 5 systems."""
    return run_grid({
        (model, batch, policy): cell(model, batch, policy)
        for model in selected_models(FIG9_MODELS)
        for batch in fig9_batches(model)
        for policy in ("um", "lms", "lms-mod", "deepum", "ideal")
    })


def fig13_grid() -> dict[tuple[str, str], RunResult]:
    """The Fig. 13 sweep: 4 models x 8 systems on the 16 GB-class config."""
    return run_grid({
        (model, policy): cell(model, get_model_config(model).fig9_batches[0],
                              policy)
        for model in selected_models(FIG13_MODELS)
        for policy in ("um", "vdnn", "autotm", "swapadvisor", "capuchin",
                       "sentinel", "deepum", "ideal")
    })


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations — repeated rounds would
    only re-measure Python overhead — so every bench uses a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
