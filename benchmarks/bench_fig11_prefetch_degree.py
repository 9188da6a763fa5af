"""Fig. 11: sensitivity to the degree of prefetching (N).

The paper sweeps how many kernels ahead chaining is allowed to run and
finds an inverse relation between speedup and energy, with a sweet spot at
moderate N: too little look-ahead leaves migration exposed, while very
aggressive prefetching wastes bandwidth and evicts pages that are needed
soon, hurting both time and energy.
"""

from __future__ import annotations

from repro.config import DeepUMConfig
from repro.harness.report import format_table, geomean

from common import FAST, SWEEP_MODELS, cell, fig9_batches, once, run_grid, \
    selected_models

DEGREES = (1, 8, 32, 512) if FAST else (1, 4, 8, 16, 32, 64, 128, 256, 512)
BASE_N = 8  # normalization point (the paper normalizes to N=8)


def _run_sweep():
    return run_grid({
        (model, degree): cell(model, fig9_batches(model)[0], "deepum",
                              DeepUMConfig(prefetch_degree=degree))
        for model in selected_models(SWEEP_MODELS)
        for degree in DEGREES
    })


def bench_fig11_prefetch_degree(benchmark):
    results = once(benchmark, _run_sweep)
    time_rows, energy_rows = [], []
    speedups: dict[int, list[float]] = {n: [] for n in DEGREES}
    energies: dict[int, list[float]] = {n: [] for n in DEGREES}
    for model in selected_models(SWEEP_MODELS):
        base = results[(model, BASE_N)]
        base_sec = base.seconds_per_100_iterations
        base_energy = base.metrics.energy_joules
        trow: list[object] = [model]
        erow: list[object] = [model]
        for degree in DEGREES:
            r = results[(model, degree)]
            speedup = base_sec / r.seconds_per_100_iterations
            eratio = r.metrics.energy_joules / base_energy
            speedups[degree].append(speedup)
            energies[degree].append(eratio)
            trow.append(speedup)
            erow.append(eratio)
        time_rows.append(trow)
        energy_rows.append(erow)
    headers = ["model"] + [f"N={n}" for n in DEGREES]
    time_rows.append(["GMEAN"] + [geomean(speedups[n]) for n in DEGREES])
    energy_rows.append(["GMEAN"] + [geomean(energies[n]) for n in DEGREES])
    print()
    print(format_table(headers, time_rows,
                       title=f"Fig. 11(a): speedup over N={BASE_N}"))
    print()
    print(format_table(headers, energy_rows,
                       title=f"Fig. 11(b): energy ratio over N={BASE_N} (lower is better)"))
    print("paper: sweet spot at N=32; speedup and energy are inversely related")

    gmeans = {n: geomean(speedups[n]) for n in DEGREES}
    best = max(gmeans, key=gmeans.get)
    # Paper's sweet spot is N=32; the simulator's lands at smaller N (its
    # protected window constrains eviction harder than real hardware —
    # see EXPERIMENTS.md). The robust shape claims:
    assert best <= 256, "the sweet spot is not at extreme look-ahead"
    assert gmeans[512] < gmeans[best], \
        "very aggressive prefetching must not be optimal (wasted bandwidth)"
    # Inverse relation: the best-time degree is also (near) best in energy.
    egmeans = {n: geomean(energies[n]) for n in DEGREES}
    assert egmeans[best] <= min(egmeans.values()) * 1.10
