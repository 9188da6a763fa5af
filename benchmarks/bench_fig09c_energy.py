"""Fig. 9(c): total energy consumption relative to naive UM.

The paper measures full-system wall power (Hioki meter) and finds energy
closely tracks runtime: faster systems use less energy. The simulator
integrates an analytic power model over the same timeline and must show
the same relation.
"""

from __future__ import annotations

from repro.harness.report import format_table, geomean

from common import FIG9_MODELS, fig9_batches, fig9_grid, once, selected_models

SYSTEMS = ("lms", "lms-mod", "deepum")


def _energy(result):
    return result.metrics.energy_joules if result.metrics else None


def bench_fig09c_energy(benchmark):
    grid = once(benchmark, fig9_grid)
    rows = []
    ratios: dict[str, list[float]] = {s: [] for s in SYSTEMS}
    for model in selected_models(FIG9_MODELS):
        for batch in fig9_batches(model):
            um = _energy(grid[(model, batch, "um")])
            row: list[object] = [f"{model} @{batch}"]
            for system in SYSTEMS:
                e = _energy(grid[(model, batch, system)])
                if um is None or e is None:
                    row.append(None)
                    continue
                ratio = e / um
                ratios[system].append(ratio)
                row.append(ratio)
            rows.append(row)
    rows.append(["GMEAN"] + [geomean(ratios[s]) for s in SYSTEMS])
    print()
    print(format_table(["model/batch", *SYSTEMS], rows,
                       title="Fig. 9(c): energy ratio over naive UM (lower is better)"))
    print("paper: LMS uses 68% less and DeepUM 65% less energy than UM on average")

    deepum_ratio = geomean(ratios["deepum"])
    assert deepum_ratio < 0.8, "DeepUM must save substantial energy vs UM"

    # Energy tracks runtime: the faster system per cell uses less energy.
    for model in selected_models(FIG9_MODELS):
        for batch in fig9_batches(model):
            um_r = grid[(model, batch, "um")]
            du_r = grid[(model, batch, "deepum")]
            if um_r.metrics and du_r.metrics and model != "dlrm":
                assert _energy(du_r) < _energy(um_r)
