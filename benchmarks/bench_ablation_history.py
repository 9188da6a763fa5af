"""Extra ablation (DESIGN.md): execution-ID prediction history depth.

The paper's execution table keys records on the three kernels preceding
the current one. This ablation degrades prediction to shallower histories
(1-deep is classic pair-based correlation) and measures the cost: shallow
history confuses kernels that share execution IDs (e.g. same-shape
activations in different layers), breaking chains more often.
"""

from __future__ import annotations

from repro.config import DeepUMConfig
from repro.harness.report import format_table

from common import SWEEP_MODELS, cell, fig9_batches, once, run_grid, \
    selected_models


def _run_sweep():
    return run_grid({
        (model, depth): cell(model, fig9_batches(model)[0], "deepum",
                             DeepUMConfig(exec_history_depth=depth))
        for model in selected_models(SWEEP_MODELS)
        for depth in (1, 2, 3)
    })


def bench_ablation_history_depth(benchmark):
    results = once(benchmark, _run_sweep)
    rows = []
    for model in selected_models(SWEEP_MODELS):
        rows.append([
            model,
            results[(model, 1)].seconds_per_100_iterations,
            results[(model, 2)].seconds_per_100_iterations,
            results[(model, 3)].seconds_per_100_iterations,
            results[(model, 1)].faults_per_iteration,
            results[(model, 3)].faults_per_iteration,
        ])
    print()
    print(format_table(
        ["model", "s/100it depth=1", "depth=2", "depth=3 (paper)",
         "faults/it depth=1", "faults/it depth=3"],
        rows, title="Ablation: execution-ID history depth"))

    # Finding: at simulation scale the kernel stream is deterministic
    # enough that a 1-deep history (classic pair-based correlation)
    # predicts as well as — sometimes slightly better than — the paper's
    # 3-deep records, whose exact-match requirement is more fragile around
    # perturbations. The paper's rationale (disambiguating same-ID kernels)
    # matters more at testbed scale. Assert both depths work and stay
    # within a modest band of each other.
    total1 = sum(r[1] for r in rows)
    total3 = sum(r[3] for r in rows)
    assert 0.6 < total3 / total1 < 1.4, \
        "history depth is a second-order knob; both must remain functional"
