"""The benchmark's contract: declared metrics, names, tracer, checks.

Runs small mobilenet cells in-process, so the whole file takes seconds.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import compare
import results
import run
import workloads
from repro.api import RunRequest

HERE = Path(run.__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


@pytest.fixture(scope="module")
def mobilenet_reqs():
    return [RunRequest(model="mobilenet", policy=policy, warmup_iterations=1,
                       measure_iterations=1).resolved()
            for policy in ("um", "deepum")]


@pytest.fixture(scope="module")
def run_doc(mobilenet_reqs, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("run"))
    doc = child.measure("run", "train-um", mobilenet_reqs, seconds=0.0,
                        workdir=workdir)
    doc.update(seed=0, calibrate_s=0.4,
               setup={"wall_s": 0.5, "samples": 20, "chunk_s": 1.4e-3})
    return doc


@pytest.fixture(scope="module")
def trace_doc(mobilenet_reqs, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("trace"))
    doc = child.measure("trace", "train-um", mobilenet_reqs, seconds=0.0,
                        workdir=workdir)
    doc.update(seed=0, calibrate_s=0.4,
               setup={"wall_s": 0.5, "samples": 20, "chunk_s": 1.4e-3})
    return doc


def pins_from(doc):
    """Expected outputs recorded from ``doc``'s traced (last) pass."""
    cells = doc["passes"][-1]["cells"]
    return {
        "seed": doc["seed"],
        "cells": {key: {"status": c["status"], "snapshot": c["snapshot"],
                        "kernels": c["counters"]["kernels"],
                        "seed_independent": False}
                  for key, c in cells.items()},
    }


def printed_metrics(capsys, monkeypatch, doc, trace, declared, pins):
    monkeypatch.setattr(run, "load_expected", lambda workload: pins)
    run.report("train-um", doc, [doc["setup"]] * 3, trace, declared)
    lines = capsys.readouterr().out.splitlines()
    names = []
    for line in lines:
        if line.startswith("#"):
            continue
        workload, name, value, unit = line.split(" ")
        assert workload == "train-um"
        assert unit == declared[name]
        float(value)
        names.append(name)
    return names


def test_benchmark_json_follows_the_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/perf"]
    assert bench["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert len(bench["end_to_end"]) <= 16 and len(bench["per_layer"]) <= 128
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in (
            "lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_bounds_come_from_the_reference_spread(bench):
    """Each bound is at least three times the widest spread (interquartile
    range over median, per workload) of the ten committed reference runs,
    and not looser than that by more than five points, except that
    ``setup_s`` must have the largest bound."""
    runs = sorted((HERE / "reference").glob("[ab]/run-*.json"))
    assert len(runs) == 10
    values = compare.collect([str(path) for path in runs])
    for metric in bench["end_to_end"]:
        spread = max(compare.Side(tuple(v)).spread
                     for (_, name), v in values.items()
                     if name == metric["name"])
        assert metric["bound"] >= 3 * spread, (metric, spread)
        if metric["name"] != "setup_s":
            assert metric["bound"] <= 3 * spread + 0.05, (metric, spread)


def test_every_declared_metric_is_printed_and_nothing_else(
        bench, capsys, monkeypatch, run_doc, trace_doc):
    pins = pins_from(trace_doc)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert sorted(printed_metrics(capsys, monkeypatch, run_doc, False, e2e,
                                  pins)) == sorted(e2e)
    assert sorted(printed_metrics(capsys, monkeypatch, trace_doc, True,
                                  layer, pins)) == sorted(layer)


def test_end_to_end_metrics_are_never_zero(run_doc):
    values = results.end_to_end(run_doc, [run_doc["setup"]])
    assert all(v > 0 for v in values.values())
    assert len(run_doc["passes"]) >= child.MIN_PASSES


def test_tracer_is_neutral_and_self_times_sum_to_the_window(trace_doc):
    reference, traced = trace_doc["passes"]
    assert results.sim_digest(reference["cells"]) == results.sim_digest(
        traced["cells"])
    trace = trace_doc["trace"]
    summed = sum(trace["self_s"].values())
    assert summed == pytest.approx(trace["window_s"], rel=1e-9)
    assert trace["chrome_trace_valid"] and not trace["missing_seams"]
    layers = results.per_layer(trace_doc)
    assert layers["other.share"] < 0.10
    assert layers["sim.engine.kernels"] == sum(
        c["counters"]["kernels"] for c in traced["cells"].values())
    assert layers["core.prefetch.calls"] > 0  # the deepum cell
    verdict = results.check(trace_doc, pins_from(trace_doc))
    assert verdict["correct"], verdict["problems"]


def test_a_failed_run_level_check_counts_as_failed(trace_doc):
    pins = pins_from(trace_doc)
    clean = results.check(trace_doc, pins)
    # 2 cells x 2 passes, plus the self-time sum, the Chrome trace's
    # validity and seam coverage.
    assert (clean["attempted"], clean["failed"]) == (2 * 2 + 3, 0)
    broken = copy.deepcopy(trace_doc)
    broken["trace"]["missing_seams"] = ["repro.core.Gone.method"]
    verdict = results.check(broken, pins)
    assert not verdict["correct"]
    assert (verdict["attempted"], verdict["failed"]) == (clean["attempted"], 1)


def test_a_perturbed_snapshot_raises_the_error_rate(run_doc, trace_doc):
    pins = pins_from(trace_doc)
    clean = results.check(run_doc, pins)
    assert clean["correct"] and clean["failed"] == 0
    assert clean["attempted"] == 2 * len(run_doc["passes"])
    bad = copy.deepcopy(run_doc)
    cell = bad["passes"][1]["cells"]["mobilenet@3072/deepum"]
    cell["snapshot"]["elapsed"] *= 1.0 + 1e-12
    verdict = results.check(bad, pins)
    assert not verdict["correct"] and verdict["failed"] == 1
    assert "elapsed" in verdict["problems"][0]
    assert verdict["sim_digest"] == clean["sim_digest"]  # the last pass


def test_pins_from_another_seed_bind_only_seed_independent_cells(
        run_doc, trace_doc):
    pins = pins_from(trace_doc)
    for pin in pins["cells"].values():
        pin["snapshot"] = dict(pin["snapshot"], elapsed=-1.0)
    other_seed = dict(run_doc, seed=7)
    assert results.check(other_seed, pins)["correct"]
    pins["cells"]["mobilenet@3072/um"]["seed_independent"] = True
    assert results.check(other_seed, pins)["failed"] == len(
        run_doc["passes"])
    disagree = copy.deepcopy(other_seed)
    disagree["passes"][-1]["cells"]["mobilenet@3072/deepum"]["snapshot"][
        "page_faults"] += 1
    problems = results.check(disagree, pins)["problems"]
    assert any("differs from the first pass" in p for p in problems)


def test_executor_pass_matches_in_process_cells(mobilenet_reqs, tmp_path):
    reqs = mobilenet_reqs + [RunRequest(
        model="mobilenet", policy="lms", warmup_iterations=1,
        measure_iterations=1).resolved()]
    forked = workloads.run_pass("sweep-cold", reqs, workdir=str(tmp_path))
    local = workloads.run_pass("train-um", reqs, workdir=str(tmp_path))
    assert results.sim_digest(forked["cells"]) == results.sim_digest(
        local["cells"])
    assert forked["executor"]["warm_hit_ratio"] == 1.0
    assert forked["executor"]["warm_agrees"]
    assert list(tmp_path.iterdir()) == []  # journals and caches removed


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "train-um",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{")
                   for line in proc.stdout.splitlines())
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
