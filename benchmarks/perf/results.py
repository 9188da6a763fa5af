"""Turn a measuring child's document into checked metrics.

Pure functions over plain JSON documents (no simulator import), shared by
``run.py`` and the tests:

* :func:`check` counts the cell executions whose simulated output is wrong:
  a status or snapshot that differs from the pin in ``expected/``, a pass
  that disagrees with the first pass, or a traced pass that disagrees with
  the untraced one; and the run-level checks that fail (a warm result
  cache that misses, a tracer whose self times miss its window).
* :func:`end_to_end` and :func:`per_layer` compute the metrics
  ``BENCHMARK.json`` declares, from an untraced and a traced run.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Optional

#: Layers whose exclusive host time the tracer reports (``<layer>.self_s``).
SELF_TIME_LAYERS = (
    "sim.engine", "sim.fault_handler", "sim.migration", "sim.interconnect",
    "core.um_manager", "core.prefetch", "core.tables", "core.preevict",
    "core.replay", "torchsim", "torchsim.allocator", "baselines", "serve",
)
#: Layers whose seam entries are also counted (``<layer>.calls``).
CALL_COUNT_LAYERS = (
    "sim.fault_handler", "sim.migration", "sim.interconnect",
    "core.um_manager", "core.prefetch", "core.tables", "core.preevict",
    "torchsim", "torchsim.allocator", "baselines",
)
#: (scenario, policy) pairs of ``serve-open-loop`` whose measured requests
#: report a median host time.
SERVE_CELLS = (("dlrm", "um"), ("dlrm", "deepum"),
               ("gpt2-decode", "um"), ("gpt2-decode", "deepum"))

#: Exclusive self times must add up to the traced window within this share.
SELF_SUM_TOLERANCE = 0.01

#: Duration of one ``child.reference_chunk`` at the nominal host speed: its
#: typical value on the 2-vCPU x86 VM the bounds were set on, in a quiet
#: period. End-to-end host times are reported in seconds at this speed,
#: which cancels most of a shared host's drift from run to run.
NOMINAL_CHUNK_S = 1.4e-3
#: How closely the simulator's host time follows the chunk's when the host
#: slows down: the slope of log(pass wall time) on log(chunk duration)
#: over passes of every workload on that VM was 0.75-0.88. The chunk, a
#: tight interpreter loop, slows more than the simulator, so rescaling by
#: the full ratio over-corrects. At a fixed host speed the exponent does
#: not matter: a 10% faster simulator still reads 10% faster.
SPEED_EXPONENT = 0.85


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def sim_digest(cells: dict[str, dict[str, Any]]) -> str:
    """sha256 of every cell's status and simulated snapshot, canonically."""
    view = {key: {"status": cell["status"], "snapshot": cell["snapshot"]}
            for key, cell in cells.items()}
    return hashlib.sha256(canonical(view).encode()).hexdigest()


def _diff_keys(a: Optional[dict], b: Optional[dict]) -> list[str]:
    if a is None or b is None:
        return ["<snapshot missing>"] if a is not b else []
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def cell_problem(cell: dict[str, Any], first: Optional[dict[str, Any]],
                 pin: Optional[dict[str, Any]], pin_applies: bool) -> str:
    """Why one cell execution is wrong, or ``""`` if it is right."""
    if cell["status"] not in ("ok", "oom"):
        return f"status {cell['status']}: {cell.get('error', '')}"
    if pin is None:
        return "no pinned output for this cell"
    if cell["status"] != pin["status"]:
        return f"status {cell['status']}, pinned {pin['status']}"
    if pin_applies:
        keys = _diff_keys(cell["snapshot"], pin["snapshot"])
        if keys:
            return f"snapshot differs from the pin in {', '.join(keys)}"
        kernels = (cell.get("counters") or {}).get("kernels")
        if kernels is not None and kernels != pin["kernels"]:
            return f"{kernels} kernels, pinned {pin['kernels']}"
    if first is not None and first is not cell:
        if (first["status"], first["snapshot"]) != (cell["status"],
                                                    cell["snapshot"]):
            return "differs from the first pass"
    return ""


def check(doc: dict[str, Any], expected: Optional[dict[str, Any]]
          ) -> dict[str, Any]:
    """Count wrong cell executions over every pass of a child document,
    and failed run-level checks.

    Pins are recorded at ``expected["seed"]``; at any other seed they
    still apply to the cells marked ``seed_independent``, and every other
    cell must at least agree across passes.
    """
    pins = (expected or {}).get("cells", {})
    same_seed = expected is not None and doc["seed"] == expected["seed"]
    problems: list[str] = []
    attempted = failed = 0
    first = doc["passes"][0]["cells"]
    for index, run in enumerate(doc["passes"]):
        cells = run["cells"]
        for key in sorted(set(cells) | set(pins)):
            attempted += 1
            cell = cells.get(key)
            pin = pins.get(key)
            if cell is None:
                why = "cell missing from the pass"
            else:
                applies = pin is not None and (
                    same_seed or bool(pin.get("seed_independent")))
                why = cell_problem(cell, first.get(key), pin, applies)
            if why:
                failed += 1
                problems.append(f"pass {index} {key}: {why}")
    # Run-level checks count like cell executions, so that the run is
    # correct exactly when ``failed`` is 0.
    run_checks: list[tuple[bool, str]] = []
    for index, run in enumerate(doc["passes"]):
        executor = run.get("executor")
        if executor:
            run_checks.append((
                executor["warm_hit_ratio"] == 1.0 and executor["warm_agrees"],
                f"pass {index}: a warm result cache did not return every "
                "stored cell"))
    trace = doc.get("trace")
    if trace is not None:
        summed = sum(trace["self_s"].values())
        run_checks += [
            (abs(summed - trace["window_s"])
             <= SELF_SUM_TOLERANCE * trace["window_s"],
             f"self times sum to {summed:.6f} s, not the traced window "
             f"{trace['window_s']:.6f} s"),
            (trace["chrome_trace_valid"], "the Chrome trace failed validation"),
            (not trace["missing_seams"],
             "seams not found: " + ", ".join(trace["missing_seams"])),
        ]
    for ok, why in run_checks:
        attempted += 1
        if not ok:
            failed += 1
            problems.append(why)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems,
        "sim_digest": sim_digest(doc["passes"][-1]["cells"]),
    }


def nominal_s(timed: dict[str, Any]) -> float:
    """A measured ``wall_s`` rescaled to the nominal host speed, using the
    reference chunks timed alongside it (see ``child.SpeedSampler``)."""
    return timed["wall_s"] * (NOMINAL_CHUNK_S
                              / timed["chunk_s"]) ** SPEED_EXPONENT


def end_to_end(doc: dict[str, Any],
               setups: list[dict[str, Any]]) -> dict[str, float]:
    """The untraced run's end-to-end metrics (host time and memory)."""
    return {
        "setup_s": statistics.median(nominal_s(s) for s in setups),
        "pass_s": statistics.median(nominal_s(p) for p in doc["passes"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def median_ms(seconds: list[float]) -> float:
    """Median in milliseconds; 0.0 when the seam never ran."""
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def per_layer(doc: dict[str, Any]) -> dict[str, float]:
    """The traced run's per-layer metrics.

    ``doc["passes"]`` is ``[untraced reference, traced]``. Self times, call
    counts and work counters come from the traced pass; per-request and
    executor timings come from the reference pass, whose seams are only
    per-request and per-cell timers. A layer a workload never reaches
    reads 0.
    """
    trace = doc["trace"]
    reference, traced = doc["passes"]
    self_s, calls = trace["self_s"], trace["calls"]
    cells = traced["cells"].values()
    counters: dict[str, int] = {}
    for cell in cells:
        for name, value in (cell.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
    snapshots = [cell["snapshot"] for cell in cells if cell["snapshot"]]
    prefetched = sum(s.get("prefetched", 0) for s in snapshots)
    faults = sum(s.get("page_faults", 0) for s in snapshots)
    kernels = counters.get("kernels", 0)
    iterations = doc["iterations_per_pass"]
    out: dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer in CALL_COUNT_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["sim.fault_handler.blocks_per_batch"] = (
        counters.get("faulted_blocks", 0) / counters["fault_batches"]
        if counters.get("fault_batches") else 0.0)
    out["sim.engine.kernels"] = kernels
    out["sim.engine.us_per_kernel"] = (
        1e6 * self_s.get("sim.engine", 0.0) / kernels if kernels else 0.0)
    out["core.prefetch.coverage"] = (
        prefetched / (prefetched + faults) if prefetched + faults else 0.0)
    out["core.replay.iterations"] = counters.get("replayed_iterations", 0)
    out["core.replay.engaged_ratio"] = (
        counters.get("replayed_iterations", 0) / iterations
        if iterations else 0.0)
    durations = trace["reference_durations"]
    for scenario, policy in SERVE_CELLS:
        measured: list[float] = []
        for key, values in durations.items():
            seam, _, cell = key.partition("|")
            if seam == f"serve.{scenario}" and cell.endswith(f"/{policy}"):
                measured = values[doc["warmup_requests"][cell]:]
        out[f"serve.{scenario}.{policy}.request_ms.p50"] = median_ms(
            measured)
    out["harness.calibrate_s"] = doc["calibrate_s"]
    executor = reference.get("executor")
    out["exec.overhead_s"] = (reference["wall_s"] - executor["worker_s"]
                              if executor else 0.0)
    for seam in ("cache.get", "cache.put", "journal"):
        out[f"exec.{seam}_ms.p50"] = median_ms(
            durations.get(f"exec.{seam}", []))
    out["exec.warm_hit_ratio"] = (executor["warm_hit_ratio"] if executor
                                  else 0.0)
    window = trace["window_s"]
    out["other.share"] = self_s.get("other", 0.0) / window
    out["trace.window_s"] = window
    out["trace.overhead_ratio"] = window / reference["wall_s"]
    return out
