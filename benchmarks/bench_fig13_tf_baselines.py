"""Fig. 13: comparison with the TensorFlow-based approaches (V100 16 GB).

Workloads: ResNet-200/CIFAR-10, BERT-Large/CoLA, DCGAN/celebA and
MobileNet/CIFAR-100. The paper (using Ren et al.'s measurements) finds
DeepUM faster than vDNN, AutoTM, SwapAdvisor and Capuchin, comparable to
Sentinel — while being the only fully transparent system. vDNN does not
work for BERT at all (CNNs only).
"""

from __future__ import annotations

from repro.harness.report import format_table, geomean

from common import FIG13_MODELS, fig13_grid, once, selected_models

SYSTEMS = ("vdnn", "autotm", "swapadvisor", "capuchin", "sentinel",
           "deepum", "ideal")


def bench_fig13_tf_baselines(benchmark):
    grid = once(benchmark, fig13_grid)
    rows = []
    per_system: dict[str, list[float]] = {s: [] for s in SYSTEMS}
    for model in selected_models(FIG13_MODELS):
        um = grid[(model, "um")].seconds_per_100_iterations
        row: list[object] = [model]
        for system in SYSTEMS:
            result = grid[(model, system)]
            if result.status == "oom" or um is None:
                row.append(None)
                continue
            sp = um / result.seconds_per_100_iterations
            per_system[system].append(sp)
            row.append(sp)
        rows.append(row)
    rows.append(["GMEAN"] + [geomean(per_system[s]) or None for s in SYSTEMS])
    print()
    print(format_table(["model", *SYSTEMS], rows,
                       title="Fig. 13: speedup over naive UM (V100 16 GB class)"))
    print("paper: DeepUM > vDNN/AutoTM/SwapAdvisor/Capuchin, ~ Sentinel; "
          "vDNN does not work for BERT")

    models = selected_models(FIG13_MODELS)
    if "bert-large-cola" in models:
        assert grid[("bert-large-cola", "vdnn")].status == "oom", \
            "vDNN must fail on BERT (CNNs only)"
    deepum = geomean(per_system["deepum"])
    for weaker in ("vdnn", "autotm", "swapadvisor"):
        vals = per_system[weaker]
        if vals:
            assert deepum > geomean(vals), f"DeepUM must beat {weaker}"
    sentinel = geomean(per_system["sentinel"])
    assert deepum > 0.8 * sentinel, "DeepUM is at least comparable to Sentinel"
