"""``repro doctor``: diagnosis rules, report schema, CLI round-trips."""

import json
from functools import partial

import pytest

from repro.bench import Scenario
from repro.cli import main
from repro.harness import calibrate_system, run_experiment
from repro.obs import (
    ALL_CAUSES,
    PolicyHealth,
    SpanRecorder,
    TableHealth,
    attach,
    diagnose,
    format_doctor,
    run_doctor,
    validate_doctor_report,
)
from repro.obs.decisions import CAUSE_COLD_START, CAUSE_EVICTED, CAUSE_LATE
from repro.obs.doctor import DOCTOR_SCHEMA_VERSION

#: Small enough to diagnose inside a test; includes a tensor-swap policy to
#: exercise the skip path.
TINY_SCENARIO = Scenario(
    name="doctor-tiny",
    model="mobilenet",
    paper_batch=3072,
    policies=("um", "deepum", "lms"),
    warmup_iterations=1,
    measure_iterations=1,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_doctor(TINY_SCENARIO)


# ------------------------------------------------------------- diagnose

def _codes(findings):
    return [f.code for f in findings]


def test_quiet_run_is_healthy():
    findings = diagnose(PolicyHealth())
    assert _codes(findings) == ["healthy"]
    assert findings[0].severity == "info"


def test_attribution_gap_is_an_error_and_ranks_first():
    health = PolicyHealth(
        faults=10, fault_stall=1.0,
        cause_counts={CAUSE_COLD_START: 5}, cause_stall={CAUSE_COLD_START: 0.5},
    )
    findings = diagnose(health)
    assert findings[0].severity == "error"
    assert findings[0].code == "attribution-gap"


def test_dominant_actionable_causes_warn_with_a_hint():
    health = PolicyHealth(
        faults=10, fault_stall=1.0,
        cause_counts={CAUSE_EVICTED: 8, CAUSE_LATE: 2},
        cause_stall={CAUSE_EVICTED: 0.7, CAUSE_LATE: 0.3},
    )
    codes = _codes(diagnose(health))
    assert f"cause-{CAUSE_EVICTED}" in codes
    assert f"cause-{CAUSE_LATE}" in codes
    by_code = {f.code: f for f in diagnose(health)}
    assert by_code[f"cause-{CAUSE_EVICTED}"].severity == "warning"
    assert "thrashing" in by_code[f"cause-{CAUSE_EVICTED}"].message


def test_low_accuracy_and_coverage_warn():
    health = PolicyHealth(
        faults=100, fault_stall=1.0, prefetch_hits=10,
        commands_issued=100, prefetch_used=10,
        cause_counts={CAUSE_COLD_START: 100},
        cause_stall={CAUSE_COLD_START: 1.0},
    )
    codes = _codes(diagnose(health))
    assert "low-accuracy" in codes and "low-coverage" in codes


def test_table_pressure_warnings():
    health = PolicyHealth(tables=TableHealth(
        exec_hits=5, exec_misses=10, exec_updates=15,
        block_entries=99, block_capacity=100,
        block_conflicts=10, block_updates=100, block_succ_drops=10,
    ))
    codes = _codes(diagnose(health))
    assert "exec-table-misses" in codes
    assert "table-pressure" in codes
    assert "table-churn" in codes


def test_findings_sorted_most_severe_first():
    health = PolicyHealth(
        faults=10, fault_stall=1.0,
        cause_counts={CAUSE_COLD_START: 10},
        cause_stall={CAUSE_COLD_START: 0.4},  # gap: error
        tables=TableHealth(exec_hits=0, exec_misses=10, exec_updates=10),
    )
    sevs = [f.severity for f in diagnose(health)]
    assert sevs == sorted(sevs, key=["error", "warning", "info"].index)


# ------------------------------------------------------------ run_doctor

def test_run_doctor_diagnoses_um_cells_and_skips_tensor_swap(tiny_report):
    report = tiny_report
    assert validate_doctor_report(report) is report
    assert report["doctor_schema_version"] == DOCTOR_SCHEMA_VERSION
    assert set(report["cells"]) == {
        "mobilenet@3072/um", "mobilenet@3072/deepum"}
    assert "mobilenet@3072/lms" in report["skipped"]
    assert "tensor-swap" in report["skipped"]["mobilenet@3072/lms"]


def test_run_doctor_fully_attributes_fault_stall(tiny_report):
    for cell, body in tiny_report["cells"].items():
        health = body["policy_health"]
        assert set(health["cause_counts"]) <= set(ALL_CAUSES)
        attributed = health["attributed_stall_fraction"]
        assert attributed is None or attributed >= 0.95, cell
        assert body["findings"], f"{cell}: diagnosis must never be empty"
        assert not any(f["code"] == "attribution-gap" for f in body["findings"])


def test_run_doctor_report_round_trips_through_json(tiny_report):
    validate_doctor_report(json.loads(json.dumps(tiny_report)))


def test_run_doctor_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_doctor("no-such-scenario")


def test_run_doctor_refuses_a_reference_pass_that_drifts(monkeypatch):
    """The overhead ratio compares the instrumented pass with an
    uninstrumented reference: if their simulations differ, the ratio (and
    the diagnosis) compares two different runs, so the doctor refuses."""
    import repro.api as api
    from repro.obs import NeutralityError

    real = api.execute

    def drifting_reference(request, observe=None):
        result = real(request, observe=observe)
        if observe is None and result.snapshot is not None:
            result.snapshot = dict(result.snapshot,
                                   page_faults=result.snapshot["page_faults"] + 1)
        return result

    monkeypatch.setattr(api, "execute", drifting_reference)
    one_cell = Scenario(name="drift", model="mobilenet", paper_batch=3072,
                        policies=("um",), warmup_iterations=1,
                        measure_iterations=1)
    with pytest.raises(NeutralityError, match="mobilenet@3072/um.*page_faults"):
        run_doctor(one_cell)


def test_format_doctor_renders_cells_and_skips(tiny_report):
    text = format_doctor(tiny_report)
    assert "mobilenet@3072/deepum" in text
    assert "skipped" in text
    assert "worst kernels" in text


# ----------------------------------------------------------- validation

def _minimal_report():
    return {
        "doctor_schema_version": DOCTOR_SCHEMA_VERSION,
        "scenario": "tiny", "model": "mobilenet", "paper_batch": 3072,
        "cells": {
            "mobilenet@3072/um": {
                "policy_health": PolicyHealth().to_dict(),
                "findings": [{"severity": "info", "code": "healthy",
                              "message": "fine"}],
            },
        },
        "skipped": {},
    }


def test_validate_accepts_minimal_report():
    validate_doctor_report(_minimal_report())


def test_validate_rejects_wrong_version():
    doc = _minimal_report()
    doc["doctor_schema_version"] = DOCTOR_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="doctor_schema_version"):
        validate_doctor_report(doc)


def test_validate_rejects_bad_severity_and_unknown_cause():
    doc = _minimal_report()
    doc["cells"]["mobilenet@3072/um"]["findings"][0]["severity"] = "fatal"
    with pytest.raises(ValueError, match="severity"):
        validate_doctor_report(doc)
    doc = _minimal_report()
    health = doc["cells"]["mobilenet@3072/um"]["policy_health"]
    health["cause_counts"]["act-of-god"] = 1
    with pytest.raises(ValueError, match="unknown fault cause"):
        validate_doctor_report(doc)


def test_validate_rejects_empty_diagnosis():
    doc = _minimal_report()
    doc["cells"] = {}
    with pytest.raises(ValueError, match="no cells"):
        validate_doctor_report(doc)


# ------------------------------------------------------------------ cli

def test_cli_doctor_json_is_schema_valid(capsys, tmp_path):
    out = str(tmp_path / "DOCTOR_smoke.json")
    assert main(["doctor", "smoke", "--warmup", "1", "--measure", "1",
                 "--json", "--out", out]) == 0
    printed = json.loads(capsys.readouterr().out)
    validate_doctor_report(printed)
    with open(out) as fh:
        assert json.load(fh) == printed


def test_cli_doctor_human_output(capsys):
    assert main(["doctor", "smoke", "--warmup", "1", "--measure", "1"]) == 0
    out = capsys.readouterr().out
    assert "doctor: smoke" in out
    assert "mobilenet@3072/deepum" in out


def test_cli_doctor_unknown_scenario_exits_with_error():
    with pytest.raises(SystemExit, match="unknown scenario"):
        main(["doctor", "banana"])


def test_cli_trace_why_drills_into_one_block(capsys):
    # Pick a block that certainly has decisions: the first classified fault
    # of an identical instrumented run (everything is deterministic).
    rec = SpanRecorder()
    run_experiment("mobilenet", 3072, "deepum",
                   system=calibrate_system("mobilenet"),
                   warmup_iterations=1, measure_iterations=1,
                   observe=partial(attach, recorder=rec))
    block = rec.decisions.fault_causes[0].block
    assert main(["trace", "why", "mobilenet", "--block", str(block),
                 "--warmup", "1", "--measure", "1"]) == 0
    out = capsys.readouterr().out
    assert f"decision(s) for block {block}" in out
    assert "demand fault" in out


def test_cli_trace_why_unknown_block_reports_and_fails(capsys):
    assert main(["trace", "why", "mobilenet", "--block", "999999",
                 "--warmup", "1", "--measure", "1"]) == 1
    assert "no recorded decisions" in capsys.readouterr().out


# ---------------------------------------------------- observability cost

def test_obs_overhead_reported_as_info_within_budget():
    wall = {"instrumented_seconds": 1.05, "reference_seconds": 1.0,
            "overhead_ratio": 1.05}
    by_code = {f.code: f for f in diagnose(PolicyHealth(), wall=wall)}
    assert by_code["obs-overhead"].severity == "info"
    assert "1.05x" in by_code["obs-overhead"].message


def test_obs_overhead_warns_past_the_budget():
    wall = {"instrumented_seconds": 1.2, "reference_seconds": 1.0,
            "overhead_ratio": 1.2}
    by_code = {f.code: f for f in diagnose(PolicyHealth(), wall=wall)}
    assert by_code["obs-overhead"].severity == "warning"
    assert "not trustworthy" in by_code["obs-overhead"].message


def test_obs_overhead_skipped_without_a_reference():
    wall = {"instrumented_seconds": 1.0, "reference_seconds": 0.0,
            "overhead_ratio": None}
    assert "obs-overhead" not in _codes(diagnose(PolicyHealth(), wall=wall))


def test_run_doctor_measures_observability_cost(tiny_report):
    for cell, body in tiny_report["cells"].items():
        wall = body["wall"]
        assert wall["instrumented_seconds"] > 0, cell
        assert wall["reference_seconds"] > 0, cell
        assert wall["overhead_ratio"] is not None
        assert "obs-overhead" in [f["code"] for f in body["findings"]]


def test_validate_rejects_bad_wall_section(tiny_report):
    clone = json.loads(json.dumps(tiny_report))
    cell = next(iter(clone["cells"]))
    clone["cells"][cell]["wall"]["instrumented_seconds"] = -1.0
    with pytest.raises(ValueError, match="wall"):
        validate_doctor_report(clone)


def test_format_doctor_shows_wall_costs(tiny_report):
    assert "observability overhead" in format_doctor(tiny_report)
