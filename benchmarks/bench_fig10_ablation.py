"""Fig. 10: effect of prefetching and the two fault-path optimizations.

The paper's ablation: correlation prefetching alone reduces execution time
by 45.6% on average; adding pre-eviction reaches 63.7%; adding inactive-
block invalidation reaches 66.7%. The bench reproduces the monotone
ordering (each optimization helps or is neutral) and a substantial total.
"""

from __future__ import annotations

from repro.config import DeepUMConfig
from repro.harness.paperdata import FIG10_REDUCTION
from repro.harness.report import format_table, geomean

from common import FAST, cell, fig9_batches, once, run_grid, selected_models

MODELS = ("bert-large", "resnet152") if FAST else \
    ("gpt2-xl", "gpt2-l", "bert-large", "bert-base", "dlrm", "resnet152")

VARIANTS = {
    "Prefetch": DeepUMConfig(enable_preeviction=False,
                             enable_invalidation=False),
    "Prefetch+Preevict": DeepUMConfig(enable_invalidation=False),
    "Prefetch+Preevict+Invalidate": DeepUMConfig(),
}


def _run_grid():
    return run_grid({
        (model, name): cell(model, fig9_batches(model)[0],
                            "um" if cfg is None else "deepum", cfg)
        for model in selected_models(MODELS)
        for name, cfg in {"um": None, **VARIANTS}.items()
    })


def bench_fig10_ablation(benchmark):
    results = once(benchmark, _run_grid)
    rows = []
    # reductions[name][model], present only where both cells ran.
    reductions: dict[str, dict[str, float]] = {name: {} for name in VARIANTS}
    for model in selected_models(MODELS):
        um = results[(model, "um")].seconds_per_100_iterations
        row: list[object] = [model]
        for name in VARIANTS:
            sec = results[(model, name)].seconds_per_100_iterations
            if um is None or sec is None:
                row.append(None)
                continue
            reduction = 1.0 - sec / um
            reductions[name][model] = reduction
            row.append(100.0 * reduction)
        rows.append(row)
    rows.append(["MEAN"] + [
        100.0 * (sum(v.values()) / len(v)) if (v := reductions[name]) else None
        for name in VARIANTS
    ])
    print()
    print(format_table(["model", *VARIANTS], rows,
                       title="Fig. 10: execution-time reduction over UM (%)"))
    print("paper means: prefetch 45.6%, +preevict 63.7%, +invalidate 66.7%"
          f" (reference: {FIG10_REDUCTION})")

    mean = {n: sum(v.values()) / len(v) for n, v in reductions.items() if v}
    # DLRM's random-order access makes *unassisted* prefetching neutral to
    # slightly harmful (the paper also reports ~no DLRM benefit), so the
    # prefetch-only claim is asserted over the regular workloads.
    pf = [r for m, r in reductions["Prefetch"].items() if m != "dlrm"]
    assert sum(pf) / len(pf) > 0.05, "prefetching alone must help (regular)"
    assert mean["Prefetch+Preevict"] >= mean["Prefetch"] - 0.03
    full = mean["Prefetch+Preevict+Invalidate"]
    assert full >= mean["Prefetch"] - 0.03
    assert full > 0.3, "the full system must cut a large share of UM's time"
