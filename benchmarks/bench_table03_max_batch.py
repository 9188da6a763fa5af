"""Table 3: maximum possible batch sizes, LMS vs DeepUM.

The paper's point: LMS is bounded by device memory and allocator
fragmentation, while DeepUM (virtual memory with a host backing store) runs
until the peak footprint approaches total CPU memory — an order of
magnitude larger batches on several models.
"""

from __future__ import annotations

from repro.harness import calibrate_system, max_batch_outcome
from repro.harness.paperdata import TABLE3_MAX_BATCH
from repro.harness.report import format_table
from repro.models.registry import get_model_config

from common import EXECUTOR, FAST, once, print_cache_summary, selected_models

MODELS = ("gpt2-l", "bert-large", "bert-base", "dlrm", "resnet152") if FAST \
    else ("gpt2-xl", "gpt2-l", "bert-large", "bert-base", "dlrm",
          "resnet200", "resnet152")


def _search_all():
    rows = []
    for model in selected_models(MODELS):
        cfg = get_model_config(model)
        system = calibrate_system(model)
        start = cfg.fig9_batches[0]
        lms_max, deepum_max = [
            max_batch_outcome(model, policy, system, scale=cfg.sim_scale,
                              start_batch=start, executor=EXECUTOR).max_batch
            for policy in ("lms", "deepum")
        ]
        paper = TABLE3_MAX_BATCH.get(model, {})
        rows.append([model, lms_max, deepum_max,
                     paper.get("lms"), paper.get("deepum")])
    print_cache_summary()
    return rows


def bench_table03_max_batch(benchmark):
    rows = once(benchmark, _search_all)
    print()
    print(format_table(
        ["model", "sim:LMS", "sim:DeepUM", "paper:LMS", "paper:DeepUM"],
        rows, title="Table 3: maximum possible batch sizes"))
    for model, lms_max, deepum_max, *_ in rows:
        assert deepum_max > 0, f"{model}: DeepUM must run some batch"
        assert deepum_max >= lms_max, \
            f"{model}: DeepUM max batch must be >= LMS (paper: strictly larger)"
    # Across the board, DeepUM's advantage is substantial.
    total_ratio = sum(d for _, _, d, *_ in rows) / max(1, sum(l for _, l, *_ in rows))
    assert total_ratio > 1.2
