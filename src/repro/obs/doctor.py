"""``repro doctor``: ranked diagnosis of a scenario's prefetch behaviour.

Runs every UM-family cell of a pinned bench scenario with decision
attribution on, builds each cell's :class:`~repro.obs.health.PolicyHealth`,
and turns it into findings — top fault causes by lost simulated time, worst
kernels, table-pressure warnings — ordered most severe first. The JSON
report (``--json``) is schema-validated in CI so the diagnosis pipeline
can't silently rot.

Thresholds are deliberately coarse: the doctor flags *where to look*, the
timeline (``repro trace timeline``) and the per-fault drill-down
(``repro trace why``) answer *what happened*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from .decisions import ALL_CAUSES, CAUSE_CHAIN_BREAK, CAUSE_EVICTED, CAUSE_LATE
from .health import PolicyHealth, policy_health, validate_policy_health
from .memory import MemoryTimeline, memory_timeline
from .prof import check_neutral
from .recorder import SpanRecorder

if TYPE_CHECKING:
    from ..api import RunRequest, RunResult

DOCTOR_SCHEMA_VERSION = 1

SEVERITIES = ("error", "warning", "info")

#: Finding thresholds (fractions unless noted).
OCCUPANCY_WARN = 0.90
CHURN_WARN = 0.05
EXEC_HIT_RATE_WARN = 0.90
ACCURACY_WARN = 0.50
COVERAGE_WARN = 0.50
CAUSE_STALL_WARN = 0.25
ATTRIBUTION_MIN = 0.95
#: Oversubscription-pressure thresholds (from the memory timeline): a
#: working set past capacity is worth a note; add a meaningful thrash
#: score (re-fetched admissions) and it becomes a warning.
THRASH_WARN = 0.10
#: Observability-overhead threshold: instrumentation (recorder spans) may
#: slow the wall clock by at most this fraction over an uninstrumented
#: reference run before the doctor flags its own cost.
OBS_OVERHEAD_WARN = 0.10

#: Numeric keys every doctor ``memory`` section must carry (a subset of
#: :meth:`repro.obs.memory.MemoryTimeline.summary`).
MEMORY_SUMMARY_KEYS = (
    "capacity_bytes", "peak_used_bytes", "peak_occupancy",
    "working_set_bytes", "oversubscription", "admits", "evicts",
    "thrash_score",
)


@dataclass(frozen=True)
class Finding:
    """One diagnosis line: a severity, a stable code, and the message."""

    severity: str  # one of SEVERITIES
    code: str
    message: str

    def to_dict(self) -> dict:
        return {"severity": self.severity, "code": self.code,
                "message": self.message}


def _pct(x: Optional[float]) -> str:
    return "n/a" if x is None else f"{100.0 * x:.1f}%"


def diagnose(health: PolicyHealth,
             memory: Optional[dict] = None,
             wall: Optional[dict] = None) -> list[Finding]:
    """Rank what is wrong (or fine) with one cell's prefetch behaviour.

    ``memory`` is an optional memory-timeline summary
    (:meth:`repro.obs.memory.MemoryTimeline.summary`); when given, the
    diagnosis includes oversubscription pressure (peak working set vs GPU
    capacity, eviction thrash). ``wall`` is an optional observability-cost
    measurement (``instrumented_seconds``/``reference_seconds``/
    ``overhead_ratio``); when given, the diagnosis reports what the
    instrumentation itself cost in wall-clock time.
    """
    findings: list[Finding] = []
    out = findings.append

    if wall is not None and wall.get("overhead_ratio") is not None:
        ratio = float(wall["overhead_ratio"])
        msg = (
            f"instrumented run took {wall['instrumented_seconds']:.3f}s vs "
            f"{wall['reference_seconds']:.3f}s uninstrumented "
            f"({ratio:.2f}x)"
        )
        if ratio > 1.0 + OBS_OVERHEAD_WARN:
            out(Finding(
                "warning", "obs-overhead",
                f"{msg} — observability overhead exceeds "
                f"{_pct(OBS_OVERHEAD_WARN)}; wall numbers from "
                "instrumented runs are not trustworthy for benching",
            ))
        else:
            out(Finding("info", "obs-overhead", msg))

    if memory is not None and memory.get("capacity_bytes", 0) > 0:
        oversub = float(memory.get("oversubscription", 0.0))
        thrash = float(memory.get("thrash_score", 0.0))
        if oversub > 1.0:
            trig = memory.get("evicts_by_trigger") or {}
            split = ", ".join(
                f"{k}={v}" for k, v in sorted(trig.items())) or "none"
            msg = (
                f"working set {memory['working_set_bytes'] / 2**20:.1f} MiB "
                f"is {oversub:.2f}x GPU capacity "
                f"({memory['capacity_bytes'] / 2**20:.1f} MiB); peak "
                f"occupancy {_pct(memory.get('peak_occupancy'))}, "
                f"{memory.get('evicts', 0)} evictions ({split}), thrash "
                f"score {thrash:.3f}"
            )
            if thrash >= THRASH_WARN:
                out(Finding(
                    "warning", "oversubscription-pressure",
                    f"{msg} — evicted blocks are re-fetched: raise "
                    "pre-eviction headroom or check victim choice",
                ))
            else:
                out(Finding("info", "oversubscription-pressure", msg))

    attributed = health.attributed_stall_fraction
    if attributed is not None and attributed < ATTRIBUTION_MIN:
        out(Finding(
            "error", "attribution-gap",
            f"only {_pct(attributed)} of demand-fault stall time carries a "
            f"cause (expected >= {_pct(ATTRIBUTION_MIN)}): instrumentation "
            "is missing fault sites",
        ))

    # Top fault causes by lost simulated time, most expensive first.
    if health.fault_stall > 0.0:
        ranked = sorted(health.cause_stall.items(), key=lambda kv: -kv[1])
        for cause, stall in ranked:
            frac = stall / health.fault_stall
            if frac <= 0.0:
                continue
            count = health.cause_counts.get(cause, 0)
            msg = (f"{_pct(frac)} of fault stall ({stall * 1e3:.3f} ms, "
                   f"{count} faults) is {cause}")
            if frac >= CAUSE_STALL_WARN and cause in (
                    CAUSE_LATE, CAUSE_EVICTED, CAUSE_CHAIN_BREAK):
                hint = {
                    CAUSE_LATE: "predictions are right but the link falls "
                                "behind: raise the prefetch degree or check "
                                "link contention on the timeline",
                    CAUSE_EVICTED: "the working set is thrashing: blocks "
                                   "come back after eviction — check the "
                                   "pre-eviction watermark and victim choice",
                    CAUSE_CHAIN_BREAK: "next-kernel predictions fail while "
                                       "kernels are known: execution "
                                       "history is unstable",
                }[cause]
                out(Finding("warning", f"cause-{cause}", f"{msg} — {hint}"))
            else:
                out(Finding("info", f"cause-{cause}", msg))

    acc = health.accuracy
    if acc is not None and acc < ACCURACY_WARN:
        out(Finding(
            "warning", "low-accuracy",
            f"prefetch accuracy {_pct(acc)} (useful {health.prefetch_used} / "
            f"issued {health.commands_issued}): the chain emits blocks the "
            "GPU never touches in time",
        ))
    cov = health.coverage
    if cov is not None and cov < COVERAGE_WARN:
        out(Finding(
            "warning", "low-coverage",
            f"prefetch coverage {_pct(cov)} ({health.prefetch_hits} hits vs "
            f"{health.faults} demand faults): most of the working set is "
            "not being predicted",
        ))
    if health.mispredicted_evictions:
        out(Finding(
            "warning", "mispredicted-evictions",
            f"{health.mispredicted_evictions} pre-evicted victims were "
            "re-faulted within a few kernels: the victim filter is evicting "
            "live data",
        ))

    hint_cmds = health.commands_by_source.get("hint", 0)
    if hint_cmds:
        # Hint-driven wins/losses: every hint-seeded command carries the
        # "hint" provenance, so late-arriving hinted prefetches show up as
        # predicted-but-late faults with that provenance in the decision
        # journal, and useful ones fold into prefetch accuracy above.
        out(Finding(
            "info", "hint-prefetch",
            f"{hint_cmds} prefetch commands were hint-seeded (madvise "
            "sticky advice); their per-block outcomes carry 'hint' "
            "provenance in `repro trace why`",
        ))

    tables = health.tables
    if tables is not None:
        hit_rate = tables.exec_hit_rate
        if hit_rate is not None and hit_rate < EXEC_HIT_RATE_WARN:
            out(Finding(
                "warning", "exec-table-misses",
                f"execution-table hit rate {_pct(hit_rate)} "
                f"({tables.exec_hits} hits, {tables.exec_misses} misses): "
                "kernel launch order is not settling",
            ))
        occ = tables.occupancy
        if occ is not None and occ > OCCUPANCY_WARN:
            out(Finding(
                "warning", "table-pressure",
                f"block tables {_pct(occ)} full "
                f"({tables.block_entries}/{tables.block_capacity} entries): "
                "capacity conflicts are imminent — grow rows/assoc",
            ))
        churn = tables.churn
        if churn is not None and churn > CHURN_WARN:
            out(Finding(
                "warning", "table-churn",
                f"{_pct(churn)} of block-table updates lose learned pattern "
                f"({tables.block_conflicts} set conflicts, "
                f"{tables.block_succ_drops} successor drops): the geometry "
                "is too small for this access pattern",
            ))

    if not findings:
        out(Finding("info", "healthy",
                    "no fault stall recorded and no table pressure"))
    order = {sev: i for i, sev in enumerate(SEVERITIES)}
    findings.sort(key=lambda f: order[f.severity])
    return findings


class Judgement(NamedTuple):
    """One cell run with decision attribution on (see :func:`judge`)."""

    result: "RunResult"
    recorder: SpanRecorder
    #: Both ``None`` unless the cell finished ``ok``.
    health: Optional[PolicyHealth]
    memory: Optional[MemoryTimeline]


def judge(request: "RunRequest") -> Optional[Judgement]:
    """Run ``request`` recorded and judge it: the one instrumented pass.

    Every judge of a cell — doctor, report, tournament, ``bench --health``
    — runs it through here, so they all see the same recipe: a fresh
    :class:`SpanRecorder`, then :func:`policy_health` and the
    :func:`memory_timeline` at the request's GPU capacity. Returns
    ``None`` for tensor-swap facades (no UM engine to record);
    ``result.wall_seconds`` is the instrumented execution's wall time.
    """
    from ..api import execute

    recorder = SpanRecorder()
    t0 = time.perf_counter()
    try:
        result = execute(replace(request, recorder=recorder))
    except TypeError:
        return None
    result.wall_seconds = time.perf_counter() - t0
    if not result.ok:
        return Judgement(result, recorder, None, None)
    assert result.experiment is not None and result.request.system is not None
    driver = getattr(result.experiment.facade, "driver", None)
    capacity = int(result.request.system.gpu.memory_bytes)
    return Judgement(result, recorder, policy_health(recorder, driver),
                     memory_timeline(recorder, capacity))


def run_doctor(scenario: Any, *, warmup_iterations: Optional[int] = None,
               measure_iterations: Optional[int] = None,
               batch: Optional[int] = None,
               scale: Optional[float] = None,
               seed: Optional[int] = None,
               progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run every cell of ``scenario`` instrumented and diagnose each.

    ``scenario`` is a bench :class:`~repro.bench.manifest.Scenario` or a
    registered scenario name; ``batch``/``scale``/``seed`` and the
    iteration counts override the scenario's pins when given. Tensor-swap
    policies (no UM engine) are skipped and listed in the report; OOM and
    failed cells are reported as such. Raises
    :class:`~repro.obs.prof.NeutralityError` if the uninstrumented
    reference pass disagrees with the instrumented one.
    """
    # Imported lazily: repro.obs must stay importable without dragging the
    # harness/bench layers (and their model registry) into every trace use.
    from ..api import execute
    from ..bench.manifest import get_scenario

    scenario = get_scenario(scenario)
    report: dict = {
        "doctor_schema_version": DOCTOR_SCHEMA_VERSION,
        "scenario": scenario.name,
        "model": scenario.model,
        "paper_batch": scenario.paper_batch if batch is None else batch,
        "cells": {},
        "skipped": {},
    }
    requests = scenario.requests(
        batch=batch, scale=scale, seed=seed,
        warmup_iterations=warmup_iterations,
        measure_iterations=measure_iterations)
    for cell, request in requests.items():
        if progress:
            progress(f"doctor: running {cell} ...")
        judged = judge(request)
        if judged is None:
            report["skipped"][cell] = "no UM engine (tensor-swap policy)"
            continue
        result = judged.result
        if result.status == "oom":
            report["skipped"][cell] = f"OOM: {result.error}"
            continue
        if not result.ok:
            report["skipped"][cell] = f"{result.status}: {result.error}"
            continue
        # The same cell uninstrumented, timed: what did observing it cost?
        # Its snapshot must match, or the ratio compares two simulations.
        t0 = time.perf_counter()
        reference = execute(request)
        reference_seconds = time.perf_counter() - t0
        check_neutral(cell, reference.snapshot or {}, result.snapshot or {},
                      "decision attribution")
        assert result.wall_seconds is not None
        wall = {
            "instrumented_seconds": result.wall_seconds,
            "reference_seconds": reference_seconds,
            "overhead_ratio": (
                result.wall_seconds / reference_seconds
                if reference_seconds > 0 else None
            ),
        }
        assert judged.health is not None and judged.memory is not None
        mem = judged.memory.summary()
        report["cells"][cell] = {
            "policy_health": judged.health.to_dict(),
            "memory": mem,
            "wall": wall,
            "findings": [
                f.to_dict()
                for f in diagnose(judged.health, memory=mem, wall=wall)
            ],
        }
    return report


def validate_doctor_report(doc: object) -> dict:
    """Structural validation of a doctor report; raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"doctor report must be an object, got {type(doc).__name__}")
    if doc.get("doctor_schema_version") != DOCTOR_SCHEMA_VERSION:
        raise ValueError(
            f"doctor_schema_version must be {DOCTOR_SCHEMA_VERSION}, "
            f"got {doc.get('doctor_schema_version')!r}"
        )
    for key in ("scenario", "cells", "skipped"):
        if key not in doc:
            raise ValueError(f"doctor report missing key {key!r}")
    if not isinstance(doc["cells"], dict):
        raise ValueError("doctor report 'cells' must be an object")
    if not doc["cells"] and not doc["skipped"]:
        raise ValueError("doctor report diagnosed no cells")
    for cell, body in doc["cells"].items():
        if not isinstance(body, dict) or "policy_health" not in body \
                or "findings" not in body:
            raise ValueError(
                f"cell {cell!r} must carry policy_health and findings")
        validate_policy_health(body["policy_health"])
        memory = body.get("memory")
        if memory is not None:
            # Optional (older reports predate it) but validated when present.
            if not isinstance(memory, dict):
                raise ValueError(f"cell {cell!r}: memory must be an object")
            for key in MEMORY_SUMMARY_KEYS:
                if not isinstance(memory.get(key), (int, float)):
                    raise ValueError(
                        f"cell {cell!r}: memory section missing numeric "
                        f"key {key!r}")
        wall = body.get("wall")
        if wall is not None:
            # Optional (older reports predate it) but validated when present.
            if not isinstance(wall, dict):
                raise ValueError(f"cell {cell!r}: wall must be an object")
            for key in ("instrumented_seconds", "reference_seconds"):
                if not isinstance(wall.get(key), (int, float)) \
                        or wall[key] < 0:
                    raise ValueError(
                        f"cell {cell!r}: wall section needs non-negative "
                        f"numeric key {key!r}")
            ratio = wall.get("overhead_ratio")
            if ratio is not None and not isinstance(ratio, (int, float)):
                raise ValueError(
                    f"cell {cell!r}: wall.overhead_ratio must be a number "
                    "or null")
        for finding in body["findings"]:
            if not isinstance(finding, dict):
                raise ValueError(f"cell {cell!r}: findings must be objects")
            if finding.get("severity") not in SEVERITIES:
                raise ValueError(
                    f"cell {cell!r}: bad severity {finding.get('severity')!r}")
            if not finding.get("code") or "message" not in finding:
                raise ValueError(f"cell {cell!r}: finding missing code/message")
        for cause in body["policy_health"]["cause_counts"]:
            if cause not in ALL_CAUSES:
                raise ValueError(
                    f"cell {cell!r}: unknown fault cause {cause!r}")
    return doc


def format_doctor(report: dict) -> str:
    """Human rendering of a doctor report."""
    from ..harness.report import format_table

    lines: list[str] = []
    lines.append(f"doctor: {report['scenario']} "
                 f"({report['model']} @ paper batch {report['paper_batch']})")
    for cell, body in report["cells"].items():
        health = body["policy_health"]
        lines.append("")
        lines.append(f"== {cell} ==")
        lines.append(
            f"  kernels {health['kernels']}, faults {health['faults']} "
            f"({health['fault_stall'] * 1e3:.3f} ms stall), "
            f"prefetch accuracy {_pct(health['accuracy'])}, "
            f"coverage {_pct(health['coverage'])}"
        )
        memory = body.get("memory")
        if memory:
            lines.append(
                f"  memory: peak {memory['peak_used_bytes'] / 2**20:.1f} MiB "
                f"({_pct(memory['peak_occupancy'])} of capacity), working "
                f"set {memory['working_set_bytes'] / 2**20:.1f} MiB "
                f"({memory['oversubscription']:.2f}x), thrash "
                f"{memory['thrash_score']:.3f}"
            )
        wall = body.get("wall")
        if wall and wall.get("overhead_ratio") is not None:
            lines.append(
                f"  wall: {wall['instrumented_seconds']:.3f}s instrumented "
                f"vs {wall['reference_seconds']:.3f}s reference "
                f"({wall['overhead_ratio']:.2f}x observability overhead)"
            )
        for finding in body["findings"]:
            lines.append(f"  [{finding['severity']:>7}] {finding['code']}: "
                         f"{finding['message']}")
        worst = health["worst_kernels"]
        if worst:
            rows = [[w["name"], w["launches"], f"{w['stall'] * 1e3:.3f}",
                     w["faults"], _pct(w.get("coverage"))] for w in worst]
            lines.append("")
            lines.append(format_table(
                ["kernel", "launches", "stall (ms)", "faults", "coverage"],
                rows, title="  worst kernels by stall"))
    for cell, why in report.get("skipped", {}).items():
        lines.append("")
        lines.append(f"-- {cell}: skipped ({why})")
    return "\n".join(lines)
