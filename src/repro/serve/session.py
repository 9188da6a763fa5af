"""The open-loop serving loop: arrivals in, latency percentiles out.

Latency accounting runs entirely in *simulated* time. The engine is a
single server: requests execute back-to-back on the simulated GPU, and
each request's **service time** is the engine-clock delta its kernels (and
their fault handling) consumed. Queueing is then pure arithmetic over the
fixed arrival trace::

    start_i      = max(arrival_i, completion_{i-1})
    completion_i = start_i + service_i
    latency_i    = completion_i - arrival_i

i.e. an open-loop M/G/1-style queue whose service process is the UM
simulation itself. This is deliberately conservative (no intra-request
concurrency), but it is exactly the regime where memory pressure shows up
in the tail: one request that faults its working set back in stalls every
request queued behind it.

The engine is *not* drained between requests — prefetches issued near the
end of one request complete during the next, as they would on a real
server — and the migration queue is only flushed once, after the last
measured request.

Reported percentiles are nearest-rank over the measured window. The
warm-up window (``warmup_iterations`` requests) populates weights and
lets correlation tables learn; when the spec leaves ``rate``/``slo_ms``
unset they are derived from the median warm-up service time (70% offered
utilization; SLO = 5x median service).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional

from .arrivals import generate_arrivals
from .scenarios import get_scenario

if TYPE_CHECKING:  # pragma: no cover
    from ..api import RunRequest
    from ..harness.experiment import Observer

#: Offered utilization when the spec does not pin a rate.
AUTO_RATE_UTILIZATION = 0.7

#: SLO multiple of the median warm-up service time when not pinned.
AUTO_SLO_SERVICE_MULTIPLE = 5.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty window")
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n - 1e-9))
    return sorted_values[min(n, rank) - 1]


def serve_facade(policy: str, system: Any, *, deepum_config: Any = None,
                 seed: int = 0,
                 observe: Optional["Observer"] = None) -> Any:
    """Build ``policy``'s facade; ``TypeError`` unless it is UM-family.

    Serving runs on unified memory, so only facades with a UM engine
    qualify. Cheap enough for the CLI to vet every policy before a cell
    runs. ``observe`` sees the facade as it does for every other cell
    (:func:`repro.harness.experiment.build_cell_facade`).
    """
    from ..harness.experiment import build_cell_facade

    facade = build_cell_facade(policy, system, deepum_config=deepum_config,
                               seed=seed, observe=observe)
    if not hasattr(facade, "engine"):
        raise TypeError(
            f"policy {policy!r} is not a UM-family policy; serving "
            "runs on unified memory (um + the prefetch-policy registry)")
    return facade


def run_serve_cell(req: "RunRequest", *,
                   observe: Optional["Observer"] = None,
                   ) -> dict[str, Any]:
    """Execute one serve cell; returns the deterministic serve snapshot.

    ``req`` must be resolved (batch/scale/system pinned) with
    ``kind="serve"`` and a :class:`ServeSpec` payload. Raises on caller
    errors (unknown scenario/policy, non-UM policy family); workload
    failures and OOM propagate to :func:`repro.api.execute`'s handler.
    ``observe`` is :func:`repro.api.execute`'s observer hook.
    """
    from ..models.registry import get_model_config

    spec = req.serve
    assert spec is not None and req.batch is not None \
        and req.scale is not None and req.system is not None
    scenario = get_scenario(spec.scenario)
    facade = serve_facade(req.policy, req.system,
                          deepum_config=req.deepum_config, seed=req.seed,
                          observe=observe)
    cfg = get_model_config(scenario.model)
    sim_batch = cfg.sim_batch(req.batch)
    session = scenario.build(facade.device, sim_batch, req.scale, spec)

    hinted_blocks = 0
    if spec.hints:
        advised: set[int] = set()
        for tensor, advice in session.hint_plan():
            for blk in facade.manager.advise(tensor.addr, tensor.nbytes,
                                             advice):
                advised.add(blk.index)
        hinted_blocks = len(advised)

    engine = facade.engine
    warmup = max(0, req.warmup_iterations)
    if warmup < 1 and (spec.rate is None or spec.slo_ms is None):
        raise ValueError(
            "auto rate/SLO derivation needs warmup_iterations >= 1 "
            "(or pin rate and slo_ms in the serve spec)")
    warm_services: list[float] = []
    index = 0
    for _ in range(warmup):
        t0 = engine.now
        session.serve_request(index)
        warm_services.append(engine.now - t0)
        index += 1

    if spec.rate is not None:
        rate = spec.rate
    else:
        median_service = sorted(warm_services)[len(warm_services) // 2]
        rate = AUTO_RATE_UTILIZATION / max(median_service, 1e-12)
    if spec.slo_ms is not None:
        slo_s = spec.slo_ms / 1e3
    else:
        median_service = sorted(warm_services)[len(warm_services) // 2]
        slo_s = AUTO_SLO_SERVICE_MULTIPLE * median_service

    n = spec.requests
    arrivals = generate_arrivals(spec.arrivals, n, rate, spec.arrival_seed,
                                 burst_factor=spec.burst_factor)
    faults_before = engine.stats.page_faults
    latencies: list[float] = []
    services: list[float] = []
    ready = 0.0
    violations = 0
    for arrival in arrivals:
        t0 = engine.now
        session.serve_request(index)
        index += 1
        service = engine.now - t0
        start = arrival if arrival > ready else ready
        completion = start + service
        latency = completion - arrival
        services.append(service)
        latencies.append(latency)
        if latency > slo_s:
            violations += 1
        ready = completion
    elapsed = facade.elapsed()  # drains the migration queue (engine.finish)

    window = sorted(latencies)
    makespan = ready - arrivals[0] if n else 0.0
    snapshot: dict[str, Any] = {
        "kind": "serve",
        "scenario": spec.scenario,
        "arrivals": spec.arrivals,
        "requests": n,
        "warmup_requests": warmup,
        "rate_rps": rate,
        "slo_ms": slo_s * 1e3,
        "latency_ms": {
            "p50": percentile(window, 0.50) * 1e3,
            "p95": percentile(window, 0.95) * 1e3,
            "p99": percentile(window, 0.99) * 1e3,
            "mean": (sum(window) / n) * 1e3,
            "max": window[-1] * 1e3,
        },
        "service_ms_mean": (sum(services) / n) * 1e3,
        "slo_violations": violations,
        "violation_rate": violations / n,
        "throughput_rps": (n / makespan) if makespan > 0 else 0.0,
        "elapsed": elapsed,
        "page_faults": engine.stats.page_faults - faults_before,
        "bytes_in": engine.link.bytes_to_gpu,
        "bytes_out": engine.link.bytes_to_cpu,
        "prefetched": engine.metrics.prefetched_blocks,
        "peak_populated_bytes": facade.peak_populated_bytes,
        "gpu_memory_bytes": req.system.gpu.memory_bytes,
        "hints": spec.hints,
        "hinted_blocks": hinted_blocks,
    }
    snapshot.update(session.extra_stats())
    return snapshot
