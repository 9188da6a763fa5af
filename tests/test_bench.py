"""The repro bench subsystem: schema, comparison, runner, CLI."""

import json

import pytest

from repro.bench import (
    SCENARIOS,
    SCHEMA_VERSION,
    Scenario,
    compare_results,
    load_result,
    run_scenario,
    validate_result,
    write_result,
)
from repro.bench.runner import BenchRunError
from repro.bench.schema import SIM_METRIC_KEYS, BenchSchemaError, make_result
from repro.cli import main

#: A scenario small enough that running it twice in a test is cheap.
TINY = Scenario(
    name="tiny",
    model="mobilenet",
    paper_batch=3072,
    policies=("um",),
    warmup_iterations=1,
    measure_iterations=1,
)


def _result(wall=0.5, elapsed=1.5, faults=42):
    sim = {
        "elapsed": elapsed,
        "page_faults": faults,
        "prefetch_coverage": 0.9,
        "bytes_in": 1048576,
        "bytes_out": 4096,
        "peak_populated_bytes": 123456,
    }
    cells = {
        "mobilenet@3072/um": {
            "wall_seconds": wall,
            "wall_seconds_all": [wall, wall * 1.1],
            "sim": sim,
        }
    }
    return make_result(
        "tiny", TINY.config_dict(), repeats=2, warmup_runs=1,
        cells=cells, peak_rss_bytes=1024,
    )


# ---------------------------------------------------------------- schema

def test_make_result_is_schema_valid():
    doc = _result()
    assert doc["schema_version"] == SCHEMA_VERSION
    assert validate_result(doc) is doc


def test_round_trip_through_disk(tmp_path):
    doc = _result()
    path = str(tmp_path / "BENCH_tiny.json")
    write_result(doc, path)
    assert load_result(path) == doc
    # The file is deterministic JSON: sorted keys, trailing newline.
    text = (tmp_path / "BENCH_tiny.json").read_text()
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_wrong_schema_version_rejected():
    doc = _result()
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(BenchSchemaError, match="schema_version"):
        validate_result(doc)


def test_missing_sim_metric_rejected():
    doc = _result()
    del doc["cells"]["mobilenet@3072/um"]["sim"]["page_faults"]
    with pytest.raises(BenchSchemaError, match="page_faults"):
        validate_result(doc)


def test_empty_cells_rejected():
    doc = _result()
    doc["cells"] = {}
    with pytest.raises(BenchSchemaError, match="cells"):
        validate_result(doc)


def test_extra_keys_tolerated():
    doc = _result()
    doc["future_field"] = {"anything": True}
    doc["cells"]["mobilenet@3072/um"]["sim"]["future_metric"] = 7
    validate_result(doc)


def test_load_rejects_invalid_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99}\n')
    with pytest.raises(BenchSchemaError):
        load_result(str(path))


# --------------------------------------------------------------- compare

def test_compare_identical_is_ok():
    cmp = compare_results(_result(), _result())
    assert cmp.ok
    assert "compare: OK" in cmp.report()


def test_compare_wall_within_threshold_is_ok():
    cmp = compare_results(_result(wall=0.5), _result(wall=0.7), threshold=1.5)
    assert cmp.ok and not cmp.regressions


def test_compare_wall_past_threshold_regresses():
    cmp = compare_results(_result(wall=0.5), _result(wall=1.0), threshold=1.5)
    assert not cmp.ok
    assert len(cmp.regressions) == 1
    assert "REGRESSION" in cmp.report()


def test_compare_wall_improvement_never_fails():
    cmp = compare_results(_result(wall=0.5), _result(wall=0.01), threshold=1.5)
    assert cmp.ok


def test_compare_sim_drift_fails_regardless_of_threshold():
    cmp = compare_results(
        _result(faults=42), _result(faults=43), threshold=1000.0
    )
    assert not cmp.ok
    assert any("page_faults" in m for m in cmp.sim_mismatches)
    assert "SIM MISMATCH" in cmp.report()


def test_compare_config_mismatch_fails():
    base = _result()
    cur = _result()
    cur["config"] = dict(cur["config"], seed=1)
    assert not compare_results(base, cur).ok


def test_compare_missing_cell_fails():
    cur = _result()
    cur["cells"]["mobilenet@3072/deepum"] = cur["cells"]["mobilenet@3072/um"]
    # Baseline has the extra cell, current is missing it.
    assert not compare_results(cur, _result()).ok
    # The other direction is a note, not a failure.
    assert compare_results(_result(), cur).ok


def test_compare_threshold_below_one_rejected():
    with pytest.raises(ValueError):
        compare_results(_result(), _result(), threshold=0.9)


def test_failed_compare_names_deep_dive_commands():
    cmp = compare_results(_result(faults=42), _result(faults=43))
    assert not cmp.ok
    report = cmp.report()
    assert "reproduce locally:" in report
    assert "repro report tiny --out report-tiny.html" in report
    # TINY pins a single policy, so there is no A/B pair to trace-diff.
    assert all("trace diff" not in h for h in cmp.repro_hints)


def test_ok_compare_has_no_repro_hints():
    cmp = compare_results(_result(), _result())
    assert cmp.ok and cmp.repro_hints == []
    assert "reproduce locally:" not in cmp.report()


def test_repro_hints_name_the_scenario_ab_pair():
    from repro.bench.compare import repro_hints

    doc = _result()
    doc["config"] = dict(doc["config"], policies=["um", "deepum"])
    hints = repro_hints(doc)
    assert hints[0] == "repro report tiny --out report-tiny.html"
    assert hints[1] == "repro profile tiny --out profile-tiny.json"
    assert hints[2] == (
        "repro trace diff mobilenet --batch 3072 --seed 0 "
        "--warmup 1 --measure 1 --degree 32 --a um --b deepum"
    )


# ----------------------------------------------------- v1 -> v2 compat

def _v1_result(**kw):
    """A result as schema v1 wrote it: version 1, no policy_health."""
    doc = _result(**kw)
    doc["schema_version"] = 1
    return doc


def _health_section():
    from repro.obs.health import PolicyHealth

    return PolicyHealth().to_dict()


def test_v1_results_still_validate_and_self_compare():
    doc = _v1_result()
    assert validate_result(doc) is doc
    assert compare_results(_v1_result(), _v1_result()).ok


def test_v1_baseline_vs_v2_health_result_notes_not_fails():
    cur = _result()
    cur["cells"]["mobilenet@3072/um"]["policy_health"] = _health_section()
    cmp = compare_results(_v1_result(), cur)
    assert cmp.ok
    assert any("policy_health present only in current" in n
               for n in cmp.notes)
    # And the mirror image: a --health baseline against a plain run.
    base = _result()
    base["cells"]["mobilenet@3072/um"]["policy_health"] = _health_section()
    cmp = compare_results(base, _result())
    assert cmp.ok
    assert any("policy_health present only in baseline" in n
               for n in cmp.notes)


def test_policy_health_drift_fails_compare_exactly():
    base = _result()
    cur = _result()
    base["cells"]["mobilenet@3072/um"]["policy_health"] = _health_section()
    drifted = _health_section()
    drifted["faults"] = 5
    drifted["cause_counts"] = {"cold-start": 5}
    cur["cells"]["mobilenet@3072/um"]["policy_health"] = drifted
    cmp = compare_results(base, cur, threshold=1000.0)
    assert not cmp.ok
    assert any("policy_health changed" in m and "cause_counts" in m
               and "faults" in m for m in cmp.sim_mismatches)


def test_malformed_policy_health_rejected():
    doc = _result()
    doc["cells"]["mobilenet@3072/um"]["policy_health"] = {"faults": 1}
    with pytest.raises(BenchSchemaError, match="policy_health"):
        validate_result(doc)


def test_run_scenario_health_section_is_valid_and_observation_only():
    from repro.obs.health import validate_policy_health

    plain = run_scenario(TINY, repeats=1, warmup_runs=0)
    health = run_scenario(TINY, repeats=1, warmup_runs=0,
                          collect_health=True)
    cell = "mobilenet@3072/um"
    assert "policy_health" not in plain["cells"][cell]
    section = health["cells"][cell]["policy_health"]
    validate_policy_health(section)
    assert section["faults"] > 0
    # The instrumented pass must not perturb the simulation.
    assert health["cells"][cell]["sim"] == plain["cells"][cell]["sim"]
    validate_result(health)


# ---------------------------------------------------------------- runner

def test_registry_has_smoke_and_fig09():
    assert "smoke" in SCENARIOS
    assert any(name.startswith("fig09-") for name in SCENARIOS)
    smoke = SCENARIOS["smoke"]
    assert list(smoke.requests()) == [
        f"{smoke.model}@{smoke.paper_batch}/{p}" for p in smoke.policies
    ]


def test_scenario_requests_apply_overrides_and_gate_the_config():
    from repro.bench.manifest import get_scenario

    scenario = get_scenario("fig09-bert-large")
    assert get_scenario(scenario) is scenario
    with pytest.raises(KeyError, match="unknown scenario 'nope'; known:"):
        get_scenario("nope")
    cells = scenario.requests(batch=8, scale=0.5, seed=7,
                              warmup_iterations=1, measure_iterations=2)
    assert list(cells) == [f"bert-large@8/{p}" for p in scenario.policies]
    for request in cells.values():
        assert (request.batch, request.scale, request.seed) == (8, 0.5, 7)
        assert (request.warmup_iterations,
                request.measure_iterations) == (1, 2)
    # Only the UM prefetch family takes a DeepUMConfig (lms does not).
    assert cells["bert-large@8/deepum"].deepum_config.prefetch_degree \
        == scenario.prefetch_degree
    assert cells["bert-large@8/lms"].deepum_config is None
    pinned = scenario.requests()["bert-large@16/um"]
    assert (pinned.scale, pinned.seed) == (None, scenario.seed)


def test_run_scenario_emits_valid_result():
    doc = run_scenario(TINY, repeats=1, warmup_runs=0)
    validate_result(doc)
    assert doc["scenario"] == "tiny"
    assert set(doc["cells"]) == {"mobilenet@3072/um"}
    sim = doc["cells"]["mobilenet@3072/um"]["sim"]
    assert sim["elapsed"] > 0
    assert all(key in sim for key in SIM_METRIC_KEYS)
    assert doc["peak_rss_bytes"] > 0


def test_run_scenario_is_deterministic():
    a = run_scenario(TINY, repeats=1, warmup_runs=0)
    b = run_scenario(TINY, repeats=1, warmup_runs=0)
    for name in a["cells"]:
        assert a["cells"][name]["sim"] == b["cells"][name]["sim"]
    # Same thing the CI gate checks, via the real comparator.
    assert compare_results(a, b, threshold=1000.0).ok


def test_run_scenario_rejects_bad_repeats():
    with pytest.raises(ValueError):
        run_scenario(TINY, repeats=0)


def test_run_scenario_parallel_is_bit_identical_to_serial(tmp_path):
    two = Scenario(
        name="tiny2", model="mobilenet", paper_batch=3072,
        policies=("um", "deepum"), warmup_iterations=1,
        measure_iterations=1,
    )
    serial = run_scenario(two, repeats=1, warmup_runs=0)
    parallel = run_scenario(two, repeats=1, warmup_runs=0, workers=2,
                            runs_dir=str(tmp_path))
    validate_result(parallel)
    assert set(parallel["cells"]) == set(serial["cells"])
    for name in serial["cells"]:
        assert parallel["cells"][name]["sim"] == serial["cells"][name]["sim"]
    assert compare_results(serial, parallel, threshold=1000.0).ok
    # The run left a resumable journal behind.
    from repro.exec import list_runs

    runs = list_runs(str(tmp_path))
    assert len(runs) == 1 and runs[0]["kind"] == "bench"
    assert runs[0]["counts"] == {"ok": 2}


def test_parallel_bench_failed_cell_raises_with_journal_kept(
        tmp_path, monkeypatch):
    from repro.exec import INJECT_ENV, list_runs

    monkeypatch.setenv(INJECT_ENV, json.dumps(
        {"mobilenet@3072/um": {"mode": "crash"}}))
    with pytest.raises(BenchRunError, match="failed"):
        run_scenario(TINY, repeats=1, warmup_runs=0, workers=2,
                     retries=0, runs_dir=str(tmp_path))
    runs = list_runs(str(tmp_path))
    assert len(runs) == 1
    assert runs[0]["counts"] == {"failed": 1}


def test_oom_cell_raises_bench_error():
    from repro.bench.runner import _sim_metrics
    from repro.harness.experiment import ExperimentResult

    oom = ExperimentResult(
        model="mobilenet", policy="um", paper_batch=3072, sim_batch=96,
        oom=True, window=None, oom_reason="UMCapacityError: host full",
    )
    with pytest.raises(BenchRunError, match="OOMed"):
        _sim_metrics(oom)


# ------------------------------------------------------------------- cli

def test_cli_runs_resume_rebuilds_bench_result(tmp_path, monkeypatch, capsys):
    """Kill a cell of a journaled bench run, resume it from the CLI, and
    get a result file whose simulated metrics equal a serial run's."""
    from repro.exec import INJECT_ENV, list_runs

    out_path = str(tmp_path / "BENCH_smoke.json")
    runs_dir = str(tmp_path / "runs")
    smoke = SCENARIOS["smoke"]
    victim = f"{smoke.model}@{smoke.paper_batch}/{smoke.policies[0]}"
    monkeypatch.setenv(INJECT_ENV, json.dumps({victim: {"mode": "crash"}}))
    with pytest.raises(SystemExit, match="resume"):
        main(["bench", "run", "--scenario", "smoke", "--repeats", "1",
              "--warmup-runs", "0", "--workers", "2", "--retries", "0",
              "--runs-dir", runs_dir, "--out", out_path])
    monkeypatch.delenv(INJECT_ENV)
    (run_summary,) = list_runs(runs_dir)
    assert run_summary["counts"]["failed"] == 1
    assert main(["runs", "resume", run_summary["run_id"],
                 "--runs-dir", runs_dir, "--retry-failed"]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = load_result(out_path)
    serial = run_scenario(smoke, repeats=1, warmup_runs=0)
    assert set(doc["cells"]) == set(serial["cells"])
    for name in serial["cells"]:
        assert doc["cells"][name]["sim"] == serial["cells"][name]["sim"]


def test_runs_resume_refuses_a_pre_request_bench_journal(tmp_path,
                                                          monkeypatch):
    """A bench journal whose cells predate canonical-request payloads
    (``paper_batch``, no ``system``) would resume as a different cell: the
    midpoint batch on a default-calibrated machine. Refuse it outright."""
    from repro.exec import Executor, JournalError, validate_state

    def no_execution(*args, **kwargs):
        raise AssertionError("a stale journal must not execute any cell")

    monkeypatch.setattr(Executor, "run_journal", no_execution)
    old_payload = {
        "model": "mobilenet", "paper_batch": 3072, "policy": "um",
        "warmup_iterations": 4, "measure_iterations": 3, "seed": 0,
        "prefetch_degree": 32, "repeats": 1, "warmup_runs": 0,
        "collect_health": False,
    }
    state = {
        "journal_schema_version": 1, "run_id": "stale",
        "kind": "bench", "created_at": "2026-01-01T00:00:00",
        "meta": {"scenario": "smoke", "repeats": 1, "warmup_runs": 0,
                 "collect_health": False, "out": str(tmp_path / "B.json")},
        "executor": {"workers": 2},
        "tasks": {"mobilenet@3072/um": {
            "kind": "bench-cell", "payload": old_payload,
            "status": "pending", "attempts": 0, "error": "",
            "result_file": None}},
    }
    (tmp_path / "stale").mkdir()
    (tmp_path / "stale" / "state.json").write_text(json.dumps(state))
    with pytest.raises(SystemExit, match="mobilenet@3072/um.*system"):
        main(["runs", "resume", "stale", "--runs-dir", str(tmp_path)])
    assert not (tmp_path / "B.json").exists()
    # A pre-request tournament cell pinned its batch but not its machine.
    tournament = dict(state, kind="tournament")
    tournament["tasks"] = {"c": dict(state["tasks"]["mobilenet@3072/um"],
                                     kind="tournament-cell", payload={
        "model": "mobilenet", "batch": 3072, "policy": "um",
        "pressure": 2.2, "warmup_iterations": 1, "measure_iterations": 1,
        "seed": 0, "prefetch_degree": 32})}
    with pytest.raises(JournalError, match="'c'.*no scale/system"):
        validate_state(tournament)


def test_cli_bench_list(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "smoke" in out and "fig09-bert-large" in out


def test_cli_bench_run_and_compare(tmp_path, capsys):
    out_path = str(tmp_path / "BENCH_smoke.json")
    assert main([
        "bench", "run", "--scenario", "smoke",
        "--repeats", "1", "--warmup-runs", "0", "--out", out_path,
        "--runs-dir", str(tmp_path / "runs"),
    ]) == 0
    doc = load_result(out_path)
    assert doc["scenario"] == "smoke"
    # Self-compare passes and exits zero.
    assert main([
        "bench", "compare", out_path, "--baseline", out_path,
    ]) == 0
    assert "compare: OK" in capsys.readouterr().out


def test_cli_bench_compare_nonzero_on_regression(tmp_path, capsys):
    base = _result(wall=0.1)
    cur = _result(wall=10.0)
    base_path = str(tmp_path / "base.json")
    cur_path = str(tmp_path / "cur.json")
    write_result(base, base_path)
    write_result(cur, cur_path)
    assert main([
        "bench", "compare", cur_path, "--baseline", base_path,
        "--threshold", "1.5",
    ]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_committed_ci_baseline_is_valid():
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    doc = load_result(str(repo / "benchmarks" / "baselines" / "BENCH_smoke.json"))
    assert doc["scenario"] == "smoke"
    assert doc["config"] == SCENARIOS["smoke"].config_dict()


# ------------------------------------------------- schema v3: breakdowns

def test_wall_breakdown_accepted_and_validated():
    doc = _result()
    cell = doc["cells"]["mobilenet@3072/um"]
    cell["wall_breakdown"] = {"warmup": 0.2, "timed": 0.3}
    assert validate_result(doc) is doc
    for bad in ({"timed": -0.1}, {"": 0.1}, {"timed": "fast"}, ["timed"]):
        cell["wall_breakdown"] = bad
        with pytest.raises(BenchSchemaError, match="wall_breakdown"):
            validate_result(doc)


def test_v2_results_without_breakdowns_still_validate():
    doc = _result()
    doc["schema_version"] = 2
    for cell in doc["cells"].values():
        cell.pop("wall_breakdown", None)
    assert validate_result(doc) is doc


def test_run_scenario_embeds_wall_breakdown():
    doc = run_scenario(TINY, repeats=1, warmup_runs=1)
    breakdown = doc["cells"]["mobilenet@3072/um"]["wall_breakdown"]
    # Phase accounting from the in-process telemetry: warmup + timed
    # passes, in wall seconds.
    assert set(breakdown) >= {"warmup", "timed"}
    assert all(seconds >= 0 for seconds in breakdown.values())
