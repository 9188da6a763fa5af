"""Policy tournaments: grid construction, judged cells, ranking, CLI."""

import json

import pytest

from repro.api import RunRequest
from repro.cli import main
from repro.config import DeepUMConfig
from repro.exec import KIND_TOURNAMENT_CELL, execute_task, experiment_task
from repro.harness.experiment import calibrate_system, policy_accepts_config
from repro.harness.tournament import (
    DEFAULT_ENTRANTS,
    TOURNAMENTS,
    cell_key,
    format_tournament,
    rank_tournament,
    run_tournament_cell,
    tournament_tasks,
)


def tiny_payload(policy):
    request = RunRequest(
        "mobilenet", policy=policy, batch=3072,
        warmup_iterations=1, measure_iterations=1,
        deepum_config=(DeepUMConfig(prefetch_degree=32)
                       if policy_accepts_config(policy) else None),
        system=calibrate_system("mobilenet", oversubscription=2.2),
    )
    return experiment_task(request, kind=KIND_TOURNAMENT_CELL,
                           pressure=2.2).payload


def cell_doc(policy, key, *, status="ok", elapsed=1.0, used=8, issued=10,
             hits=6, faults=2, findings=0):
    """A synthetic worker result doc, shaped like run_tournament_cell's."""
    return {
        "status": status, "error": "" if status == "ok" else "boom",
        "model": "m", "batch": 64, "policy": policy, "pressure": 2.0,
        "snapshot": {"elapsed": elapsed} if status == "ok" else None,
        "policy_health": {
            "prefetch_used": used, "commands_issued": issued,
            "prefetch_hits": hits, "faults": faults,
            "lateness": {"count": 2, "total": 0.5},
        } if status == "ok" else None,
        "memory": None,
        "findings": [{"id": f"f{i}"} for i in range(findings)],
    }


# ----------------------------------------------------------------- grids

def test_scenarios_are_pinned_and_named():
    assert {"flagship", "pressure-ladder", "smoke"} <= set(TOURNAMENTS)
    for name, scenario in TOURNAMENTS.items():
        assert scenario.name == name
        assert scenario.models and scenario.pressures and scenario.policies
        assert scenario.config_dict()["name"] == name
    # The flagship grid fields ≥3 prefetching entrants plus the UM floor.
    assert set(DEFAULT_ENTRANTS) == {"deepum", "stride", "markov", "um"}


def test_payload_grid_covers_models_x_pressures_x_policies():
    scenario = TOURNAMENTS["flagship"]
    tasks = tournament_tasks(scenario)
    assert len(tasks) == (len(scenario.models) * len(scenario.pressures)
                          * len(scenario.policies))
    for task in tasks:
        assert task.kind == KIND_TOURNAMENT_CELL
        request = RunRequest.from_dict(task.payload)
        pressure = task.payload["pressure"]
        assert task.key == cell_key(request.model, request.batch, pressure,
                                    request.policy)
        assert request.warmup_iterations == scenario.warmup_iterations
        assert request.seed == scenario.seed
        # The pressure is only a label: the request pins its machine.
        assert request.system == calibrate_system(
            request.model, oversubscription=pressure)


def test_payload_policies_override():
    tasks = tournament_tasks(TOURNAMENTS["smoke"], policies=["markov", "um"])
    assert {t.payload["policy"] for t in tasks} == {"markov", "um"}


def test_tournament_cell_task_kind():
    task = experiment_task(RunRequest.from_dict(tiny_payload("deepum")), "k",
                           kind=KIND_TOURNAMENT_CELL, pressure=2.2)
    assert task.kind == KIND_TOURNAMENT_CELL
    assert task.key == "k"
    assert task.payload["policy"] == "deepum"
    assert task.payload["pressure"] == 2.2


# ----------------------------------------------------------- judged cells

@pytest.mark.parametrize("policy", ["stride", "um"])
def test_run_tournament_cell_judges_in_worker(policy):
    doc = run_tournament_cell(tiny_payload(policy))
    assert doc["status"] == "ok", doc["error"]
    assert doc["snapshot"]["elapsed"] > 0
    health = doc["policy_health"]
    assert health is not None
    assert {"accuracy", "coverage", "lateness"} <= set(health)
    assert doc["memory"] is not None
    assert isinstance(doc["findings"], list)
    # A prefetching entrant must actually prefetch under pressure 2.2.
    if policy != "um":
        assert health["commands_issued"] > 0


def test_run_tournament_cell_is_deterministic():
    a = run_tournament_cell(tiny_payload("deepum"))
    b = execute_task(KIND_TOURNAMENT_CELL, tiny_payload("deepum"))
    assert a["snapshot"] == b["snapshot"]
    assert a["policy_health"] == b["policy_health"]


# ---------------------------------------------------------------- ranking

def test_rank_orders_by_geomean_elapsed():
    results = {
        "a/fast": cell_doc("fast", "a/fast", elapsed=1.0),
        "a/slow": cell_doc("slow", "a/slow", elapsed=4.0),
    }
    doc = rank_tournament(results)
    assert [r["policy"] for r in doc["ranking"]] == ["fast", "slow"]
    assert [r["rank"] for r in doc["ranking"]] == [1, 2]
    assert len(doc["cells"]) == 2


def test_incomplete_grid_ranks_last_whatever_its_times():
    results = {
        "c1/quick": cell_doc("quick", "c1/quick", elapsed=0.1),
        "c2/quick": cell_doc("quick", "c2/quick", status="failed"),
        "c1/steady": cell_doc("steady", "c1/steady", elapsed=9.0),
        "c2/steady": cell_doc("steady", "c2/steady", elapsed=9.0),
    }
    ranking = rank_tournament(results)["ranking"]
    assert [r["policy"] for r in ranking] == ["steady", "quick"]
    assert ranking[0]["complete"] and not ranking[1]["complete"]
    assert ranking[1]["cells_ok"] == 1 and ranking[1]["cells"] == 2


def test_health_aggregated_from_summed_counters():
    results = {
        "c1/p": cell_doc("p", "c1/p", used=9, issued=10, hits=0, faults=10),
        "c2/p": cell_doc("p", "c2/p", used=0, issued=90, hits=90, faults=0),
    }
    row = rank_tournament(results)["ranking"][0]
    # Summed counters: 9/100 — not the 0.45 a mean-of-ratios would give.
    assert row["accuracy"] == pytest.approx(0.09)
    assert row["coverage"] == pytest.approx(0.90)
    assert row["lateness_mean"] == pytest.approx(0.25)


def test_format_tournament_renders_both_tables():
    results = {"c1/p": cell_doc("p", "c1/p", findings=3)}
    text = format_tournament(rank_tournament(results), title="t")
    assert "t: ranking" in text and "t: cells" in text
    for column in ("accuracy", "coverage", "lateness", "findings"):
        assert column in text


# -------------------------------------------------------------------- CLI

def test_cli_lists_scenarios(capsys):
    assert main(["tournament", "list"]) == 0
    out = capsys.readouterr().out
    for name in TOURNAMENTS:
        assert name in out


def test_cli_unknown_scenario_exits():
    with pytest.raises(SystemExit, match="unknown tournament scenario"):
        main(["tournament", "grand-prix"])


def test_cli_unknown_policy_override_exits():
    with pytest.raises(SystemExit, match="unknown policies"):
        main(["tournament", "smoke", "--policies", "magic"])


def test_cli_smoke_tournament_runs_and_resumes(tmp_path, capsys):
    out_json = tmp_path / "tournament.json"
    argv = ["tournament", "smoke", "--workers", "2",
            "--runs-dir", str(tmp_path), "--out", str(out_json)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "tournament smoke: ranking" in out
    assert "deepum" in out and "stride" in out
    doc = json.loads(out_json.read_text())
    assert len(doc["ranking"]) == 2
    assert all(cell["status"] == "ok" for cell in doc["cells"])

    run_id = json.loads(
        (sorted(tmp_path.glob("*/state.json"))[0]).read_text())["run_id"]
    # Resume of a finished tournament rebuilds the ranking from the journal.
    assert main(["runs", "resume", run_id, "--runs-dir", str(tmp_path)]) == 0
    resumed = capsys.readouterr().out
    assert "all cells already finished" in resumed
    assert "tournament smoke: ranking" in resumed
