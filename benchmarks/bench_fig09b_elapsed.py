"""Fig. 9(b): elapsed seconds for 100 training iterations, per system.

Absolute numbers are simulator seconds (not testbed seconds), so the bench
prints them next to the paper's table and asserts the *relationships*:
column ordering per cell, DLRM insensitivity, and UM's growth with batch.
"""

from __future__ import annotations

from repro.harness.paperdata import FIG9B_ELAPSED
from repro.harness.report import format_table

from common import FIG9_MODELS, fig9_batches, fig9_grid, once, selected_models

SYSTEMS = ("um", "lms", "lms-mod", "deepum")


def bench_fig09b_elapsed(benchmark):
    grid = once(benchmark, fig9_grid)
    rows = []
    for model in selected_models(FIG9_MODELS):
        for batch in fig9_batches(model):
            row: list[object] = [f"{model} @{batch}"]
            paper = FIG9B_ELAPSED.get((model, batch), {})
            for system in SYSTEMS:
                row.append(grid[(model, batch, system)].seconds_per_100_iterations)
            for system in SYSTEMS:
                row.append(paper.get(system))
            rows.append(row)
    headers = (["model/batch"] + [f"sim:{s}" for s in SYSTEMS]
               + [f"paper:{s}" for s in SYSTEMS])
    print()
    print(format_table(headers, rows,
                       title="Fig. 9(b): seconds per 100 iterations"))

    # Shape assertions: UM is the slowest system in (almost) every cell,
    # and UM's time grows with batch size within each model.
    for model in selected_models(FIG9_MODELS):
        batches = fig9_batches(model)
        um_times = []
        for batch in batches:
            um = grid[(model, batch, "um")].seconds_per_100_iterations
            deepum = grid[(model, batch, "deepum")].seconds_per_100_iterations
            assert um is not None and deepum is not None
            um_times.append(um)
            if model != "dlrm":
                assert deepum < um, f"{model}@{batch}: DeepUM must beat UM"
        assert um_times == sorted(um_times), f"{model}: UM grows with batch"
