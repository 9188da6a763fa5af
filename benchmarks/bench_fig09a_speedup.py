"""Fig. 9(a): speedup of LMS, LMS-mod, DeepUM, and Ideal over naive UM.

Reproduces the shape of the paper's headline figure: DeepUM beats naive UM
on every workload except DLRM (irregular embedding access defeats any
prefetcher), Ideal bounds everything from above, and LMS sits between UM
and DeepUM.
"""

from __future__ import annotations

from repro.harness.report import format_table, geomean

from common import FIG9_MODELS, fig9_batches, fig9_grid, once, selected_models

SYSTEMS = ("lms", "lms-mod", "deepum", "ideal")


def bench_fig09a_speedup(benchmark):
    grid = once(benchmark, fig9_grid)
    rows = []
    per_system: dict[str, list[float]] = {s: [] for s in SYSTEMS}
    for model in selected_models(FIG9_MODELS):
        for batch in fig9_batches(model):
            um = grid[(model, batch, "um")].seconds_per_100_iterations
            row: list[object] = [f"{model} @{batch}"]
            for system in SYSTEMS:
                sec = grid[(model, batch, system)].seconds_per_100_iterations
                if um is None or sec is None:
                    row.append(None)
                    continue
                speedup = um / sec
                row.append(speedup)
                per_system[system].append(speedup)
            rows.append(row)
    rows.append(["GMEAN"] + [geomean(per_system[s]) for s in SYSTEMS])
    print()
    print(format_table(["model/batch", *SYSTEMS], rows,
                       title="Fig. 9(a): speedup over naive UM"))
    print("paper: DeepUM averages 3.06x over UM and 1.11x over LMS")

    deepum_gmean = geomean(per_system["deepum"])
    ideal_gmean = geomean(per_system["ideal"])
    assert deepum_gmean > 1.5, "DeepUM must clearly beat naive UM"
    assert ideal_gmean > deepum_gmean, "Ideal bounds DeepUM from above"
    lms = geomean(per_system["lms"])
    assert deepum_gmean > lms, "DeepUM must beat LMS on average (paper: 1.11x)"
