"""compare.py on synthetic run documents."""

from __future__ import annotations

import json

import compare

BENCH = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "kernels_per_s", "unit": "kernel/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "sim.engine.self_s", "unit": "s", "better": "lower"},
    ],
}


def write_runs(tmp_path, tag, rows):
    """One run document per entry of ``rows`` (metric -> value)."""
    paths = []
    for i, metrics in enumerate(rows):
        path = tmp_path / f"{tag}{i}.json"
        path.write_text(json.dumps({"workloads": {"w": {"metrics": {
            name: {"value": value, "unit": "s"}
            for name, value in metrics.items()}}}}))
        paths.append(str(path))
    return paths


def verdicts(tmp_path, a_rows, b_rows):
    rows = compare.compare(write_runs(tmp_path, "a", a_rows),
                           write_runs(tmp_path, "b", b_rows), BENCH)
    return {r["metric"]: r["verdict"] for r in rows}


def test_steady_runs_within_the_bound_are_ok(tmp_path):
    base = [{"wall_s": v, "kernels_per_s": 1000 / v} for v in (10.0, 10.1,
                                                               9.9)]
    same = [{"wall_s": v, "kernels_per_s": 1000 / v} for v in (10.05, 9.95,
                                                               10.0)]
    assert verdicts(tmp_path, same, base) == {
        "wall_s": "ok", "kernels_per_s": "ok"}


def test_a_steady_slowdown_beyond_the_bound_is_a_regression(tmp_path):
    base = [{"wall_s": v, "kernels_per_s": 1000 / v} for v in (10.0, 10.1,
                                                               9.9)]
    slow = [{"wall_s": v, "kernels_per_s": 1000 / v} for v in (12.0, 12.1,
                                                               11.9)]
    assert verdicts(tmp_path, slow, base) == {
        "wall_s": "regression", "kernels_per_s": "regression"}
    bench = str(write_benchmark_json(tmp_path))
    assert compare.main(write_runs(tmp_path, "a", slow) + ["--vs"]
                        + write_runs(tmp_path, "b", base)
                        + ["--benchmark", bench]) == 1


def test_noisy_runs_are_unresolved_not_regressions(tmp_path):
    base = [{"wall_s": v} for v in (10.0, 10.1, 9.9, 10.0)]
    noisy = [{"wall_s": v} for v in (8.0, 12.0, 14.0, 9.0)]
    assert verdicts(tmp_path, noisy, base) == {"wall_s": "unresolved"}


def test_noisy_but_uniformly_faster_runs_are_better(tmp_path):
    base = [{"wall_s": v} for v in (10.0, 12.0, 14.0, 11.0)]
    fast = [{"wall_s": v} for v in (5.0, 6.0, 7.5, 5.5)]
    assert verdicts(tmp_path, fast, base) == {"wall_s": "better"}


def test_per_layer_metrics_have_no_verdict(tmp_path):
    base = [{"sim.engine.self_s": v} for v in (1.0, 1.1)]
    slow = [{"sim.engine.self_s": v} for v in (3.0, 3.1)]
    assert verdicts(tmp_path, slow, base) == {"sim.engine.self_s": "-"}


def write_benchmark_json(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(BENCH))
    return path
