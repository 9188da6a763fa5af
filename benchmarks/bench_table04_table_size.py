"""Table 4: correlation-table memory per model and batch size.

Block tables are allocated per execution ID, so table memory tracks the
number of distinct kernels (model size), not batch size — the paper's
tables range from ~13 MB (DLRM) to ~350 MB (GPT-2 XL) at full scale.
"""

from __future__ import annotations

from repro.constants import MiB
from repro.harness.paperdata import TABLE4_TABLE_MB
from repro.harness.report import format_table

from common import FIG9_MODELS, fig9_batches, fig9_grid, once, selected_models


def bench_table04_table_size(benchmark):
    grid = once(benchmark, fig9_grid)
    rows = []
    by_model: dict[str, float] = {}
    for model in selected_models(FIG9_MODELS):
        for batch in fig9_batches(model):
            result = grid[(model, batch, "deepum")]
            if result.status == "oom":
                continue
            mb = result.snapshot["correlation_table_bytes"] / MiB
            by_model[model] = mb
            rows.append([model, batch, mb, TABLE4_TABLE_MB.get((model, batch))])
    print()
    print(format_table(
        ["model", "batch", "sim table MB", "paper table MB"],
        rows, title="Table 4: correlation table sizes"))

    for model, batch, mb, _ in rows:
        assert mb > 0, f"{model}@{batch}: tables must exist"
    # Deeper/wider models need more table memory. Cross-model comparisons
    # are only meaningful between models simulated at the same sim_scale
    # (BERT Large and Base both run at 0.25).
    if {"bert-large", "bert-base"} <= set(by_model):
        assert by_model["bert-large"] > by_model["bert-base"]
    if {"resnet200", "resnet152"} <= set(by_model):
        assert by_model["resnet200"] >= by_model["resnet152"] * 0.9
