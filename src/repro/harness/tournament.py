"""Policy tournaments: every prefetch policy, judged on the same cells.

A tournament sweeps a grid of entrants (prefetch policies, plus the naive
UM baseline) x models x memory pressures (oversubscription ratios fed to
:func:`~repro.harness.experiment.calibrate_system`) through the parallel
executor, one instrumented cell per grid point. Each cell is judged the
way ``repro doctor`` judges a run — elapsed simulated time for the rank,
:class:`~repro.obs.health.PolicyHealth` accuracy/coverage/lateness for the
*why*, and doctor findings for the red flags — so a policy that wins on
time but only by spraying the link with wasted prefetches is visible at a
glance.

Each cell is a ``tournament-cell`` executor task: the cell's canonical
:class:`~repro.api.RunRequest` payload, its simulated machine already
calibrated to the cell's pressure, plus ``pressure`` as a label. Workers
run it through :func:`run_tournament_cell`, and a killed tournament
resumes via ``repro runs resume`` with bit-identical simulated metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from ..exec.tasks import Task

#: Default entrants: every registered prefetch policy plus the naive UM
#: floor, so every ranking shows what any prefetching buys at all.
DEFAULT_ENTRANTS = ("deepum", "stride", "markov", "um")


@dataclass(frozen=True)
class TournamentScenario:
    """A pinned tournament grid: models x pressures x entrant policies."""

    name: str
    description: str
    models: tuple[str, ...]
    #: Footprint / GPU-capacity ratios the simulated machine is sized to.
    pressures: tuple[float, ...]
    policies: tuple[str, ...] = DEFAULT_ENTRANTS
    warmup_iterations: int = 3
    measure_iterations: int = 3
    seed: int = 0
    prefetch_degree: int = 32

    def config_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "models": list(self.models),
            "pressures": list(self.pressures),
            "policies": list(self.policies),
            "warmup_iterations": self.warmup_iterations,
            "measure_iterations": self.measure_iterations,
            "seed": self.seed,
            "prefetch_degree": self.prefetch_degree,
        }


TOURNAMENTS: dict[str, TournamentScenario] = {
    "flagship": TournamentScenario(
        name="flagship",
        description="all prefetch policies + naive UM on the two small "
                    "models, moderate and heavy oversubscription",
        models=("mobilenet", "dcgan"),
        pressures=(1.5, 2.5),
    ),
    "pressure-ladder": TournamentScenario(
        name="pressure-ladder",
        description="one model, rising memory pressure: where does each "
                    "policy's win evaporate?",
        models=("mobilenet",),
        pressures=(1.2, 2.2, 3.5),
    ),
    "smoke": TournamentScenario(
        name="smoke",
        description="CI smoke: two policies, one model, one pressure",
        models=("mobilenet",),
        pressures=(2.2,),
        policies=("deepum", "stride"),
        warmup_iterations=2,
        measure_iterations=2,
    ),
}


def cell_key(model: str, batch: int, pressure: float, policy: str) -> str:
    return f"{model}@{batch}/x{pressure:g}/{policy}"


def tournament_tasks(
    scenario: TournamentScenario,
    policies: Optional[list[str]] = None,
) -> list[Task]:
    """One task per grid cell, batch pinned per model and the simulated
    machine calibrated per (model, pressure)."""
    from ..api import RunRequest
    from ..config import DeepUMConfig
    from ..exec.tasks import KIND_TOURNAMENT_CELL, experiment_task
    from ..models.registry import get_model_config
    from .experiment import calibrate_system, policy_accepts_config

    entrants = list(policies) if policies is not None \
        else list(scenario.policies)
    tasks: list[Task] = []
    for model in scenario.models:
        cfg = get_model_config(model)
        batch = cfg.fig9_batches[len(cfg.fig9_batches) // 2]
        for pressure in scenario.pressures:
            system = calibrate_system(model, oversubscription=pressure)
            for policy in entrants:
                request = RunRequest(
                    model=model, policy=policy, batch=batch,
                    warmup_iterations=scenario.warmup_iterations,
                    measure_iterations=scenario.measure_iterations,
                    seed=scenario.seed,
                    deepum_config=(
                        DeepUMConfig(prefetch_degree=scenario.prefetch_degree)
                        if policy_accepts_config(policy) else None
                    ),
                    system=system,
                )
                tasks.append(experiment_task(
                    request, cell_key(model, batch, pressure, policy),
                    kind=KIND_TOURNAMENT_CELL, pressure=pressure))
    return tasks


def run_tournament_cell(payload: dict[str, Any]) -> dict[str, Any]:
    """Run and judge one ``tournament-cell`` task payload.

    The judging (:func:`~repro.obs.doctor.judge` plus doctor findings)
    happens here, inside the worker, because the recorder that feeds it
    is in-process state that cannot cross the executor's process
    boundary.
    """
    from ..api import RunRequest, execute
    from ..obs.doctor import diagnose, judge

    request = RunRequest.from_dict(payload)
    judged = judge(request)
    # Tensor-swap facades cannot carry a recorder; run those unjudged.
    result = judged.result if judged is not None else execute(request)
    doc: dict[str, Any] = {
        "status": result.status,
        "error": result.error,
        "model": request.model,
        "batch": request.batch,
        "policy": request.policy,
        "pressure": float(payload["pressure"]),
        "snapshot": result.snapshot,
        "policy_health": None,
        "memory": None,
        "findings": [],
    }
    if judged is not None and judged.health is not None:
        assert judged.memory is not None
        mem = judged.memory.summary()
        doc["policy_health"] = judged.health.to_dict()
        doc["memory"] = mem
        doc["findings"] = [
            f.to_dict() for f in diagnose(judged.health, memory=mem)]
    return doc


# --------------------------------------------------------------------- #
# ranking
# --------------------------------------------------------------------- #


def rank_tournament(results: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Aggregate per-cell result docs into the ranked tournament document.

    Entrants are ranked by the geometric mean of elapsed simulated time
    over their finished cells — but an entrant that failed or OOMed any
    cell ranks after every entrant that finished the whole grid, whatever
    its times: a policy that cannot run the grid did not win it.
    Accuracy/coverage/lateness are aggregated from summed counters (not
    averaged ratios), so big cells weigh as much as they should.
    """
    from .report import geomean

    entrants: dict[str, dict[str, Any]] = {}
    cells: list[dict[str, Any]] = []
    for key in sorted(results):
        doc = results[key]
        cells.append({"cell": key, **{
            k: doc.get(k) for k in
            ("status", "model", "batch", "policy", "pressure",
             "snapshot", "policy_health", "findings", "error")
        }})
        policy = doc.get("policy") or key.rsplit("/", 1)[-1]
        ent = entrants.setdefault(policy, {
            "policy": policy, "cells": 0, "cells_ok": 0, "elapsed": [],
            "prefetch_used": 0, "commands_issued": 0,
            "prefetch_hits": 0, "faults": 0,
            "lateness_total": 0.0, "lateness_count": 0,
            "findings": 0,
        })
        ent["cells"] += 1
        if doc.get("status") != "ok":
            continue
        ent["cells_ok"] += 1
        snapshot = doc.get("snapshot") or {}
        if "elapsed" in snapshot:
            ent["elapsed"].append(float(snapshot["elapsed"]))
        health = doc.get("policy_health")
        if health:
            ent["prefetch_used"] += int(health.get("prefetch_used", 0))
            ent["commands_issued"] += int(health.get("commands_issued", 0))
            ent["prefetch_hits"] += int(health.get("prefetch_hits", 0))
            ent["faults"] += int(health.get("faults", 0))
            lateness = health.get("lateness") or {}
            ent["lateness_total"] += float(lateness.get("total", 0.0))
            ent["lateness_count"] += int(lateness.get("count", 0))
        ent["findings"] += len(doc.get("findings") or [])

    ranking: list[dict[str, Any]] = []
    for ent in entrants.values():
        elapsed = ent.pop("elapsed")
        complete = ent["cells_ok"] == ent["cells"] and bool(elapsed)
        commands = ent["commands_issued"]
        demand = ent["prefetch_hits"] + ent["faults"]
        ranking.append({
            "policy": ent["policy"],
            "cells_ok": ent["cells_ok"],
            "cells": ent["cells"],
            "complete": complete,
            "geomean_elapsed": geomean(elapsed) if elapsed else None,
            "accuracy": (ent["prefetch_used"] / commands) if commands
            else None,
            "coverage": (ent["prefetch_hits"] / demand) if demand else None,
            "lateness_mean": (ent["lateness_total"] / ent["lateness_count"])
            if ent["lateness_count"] else None,
            "findings": ent["findings"],
        })
    ranking.sort(key=lambda row: (
        not row["complete"],
        row["geomean_elapsed"] if row["geomean_elapsed"] is not None
        else float("inf"),
        row["policy"],
    ))
    for pos, row in enumerate(ranking, start=1):
        row["rank"] = pos
    return {"ranking": ranking, "cells": cells}


def format_tournament(doc: dict[str, Any], title: str = "tournament") -> str:
    """Render the ranked document as the CLI's pair of tables."""
    from .report import format_table

    rank_rows = []
    for row in doc["ranking"]:
        rank_rows.append([
            row["rank"], row["policy"],
            f"{row['cells_ok']}/{row['cells']}",
            row["geomean_elapsed"],
            row["accuracy"],
            row["coverage"],
            row["lateness_mean"],
            row["findings"],
            "" if row["complete"] else "incomplete grid",
        ])
    out = [format_table(
        ["rank", "policy", "cells", "geomean elapsed (s)", "accuracy",
         "coverage", "lateness (s)", "findings", "note"],
        rank_rows, title=f"{title}: ranking")]
    cell_rows = []
    for cell in doc["cells"]:
        snapshot = cell.get("snapshot") or {}
        health = cell.get("policy_health") or {}
        lateness = (health.get("lateness") or {})
        cell_rows.append([
            cell["cell"], cell.get("status"),
            snapshot.get("elapsed"),
            health.get("accuracy"),
            health.get("coverage"),
            lateness.get("mean"),
            len(cell.get("findings") or []),
        ])
    out.append(format_table(
        ["cell", "status", "elapsed (s)", "accuracy", "coverage",
         "lateness (s)", "findings"],
        cell_rows, title=f"{title}: cells"))
    return "\n\n".join(out)
