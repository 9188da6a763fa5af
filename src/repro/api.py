"""The unified experiment API: ``RunRequest`` in, ``RunResult`` out.

Every way of running one experiment cell — the CLI subcommands, the bench
runner, the max-batch probes, the doctor — constructs a :class:`RunRequest`
and hands it to :func:`execute`. The request is a frozen value object that
pins everything determining the cell's simulated output (model, policy,
batch, scale, iteration windows, seed, DeepUM tunables, simulated machine),
so two executions of equal requests — in this process, in a pool worker, or
in a resumed run — must produce bit-identical simulated metrics.

``RunRequest``/``RunResult`` round-trip through plain dicts
(:meth:`RunRequest.to_dict` / :meth:`RunRequest.from_dict`), which is how
the process-pool executor (:mod:`repro.exec`) ships cells to workers and
journals their outcomes to disk. Observers (a recorder, the wall-clock
profiler) are not part of the request: they ride on
``execute(request, observe=...)``, in-process only.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Optional

from .config import (
    DeepUMConfig,
    FaultCosts,
    GPUSpec,
    HostSpec,
    LinkSpec,
    PowerSpec,
    SystemConfig,
)
from .harness.experiment import ExperimentResult, Observer, run_experiment
from .harness.metrics import WindowMetrics
from .serve.spec import ServeSpec

STATUS_OK = "ok"
STATUS_OOM = "oom"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"

#: Every terminal state a cell can end in. ``timeout`` is only ever
#: assigned by the executor (a cell cannot observe its own wall clock).
RUN_STATUSES = (STATUS_OK, STATUS_OOM, STATUS_FAILED, STATUS_TIMEOUT)

#: Request kinds. ``experiment`` is the original (and default) training
#: cell; ``serve`` runs an open-loop inference trace (:mod:`repro.serve`).
#: The discriminator only serializes when off-default, so every pre-serve
#: payload, journal entry and cache key is byte-identical to before the
#: field existed.
KIND_EXPERIMENT = "experiment"
KIND_SERVE = "serve"
REQUEST_KINDS = (KIND_EXPERIMENT, KIND_SERVE)

#: Default iteration windows, shared by every entry point. The warm-up
#: length is what the correlation tables need to converge (the same
#: constant the figure benchmarks and the bench manifest use).
DEFAULT_WARMUP_ITERATIONS = 4
DEFAULT_MEASURE_ITERATIONS = 3


def _system_to_dict(system: SystemConfig) -> dict[str, Any]:
    return {
        "gpu": asdict(system.gpu),
        "host": asdict(system.host),
        "link": asdict(system.link),
        "fault": asdict(system.fault),
        "power": asdict(system.power),
    }


def _system_from_dict(doc: dict[str, Any]) -> SystemConfig:
    return SystemConfig(
        gpu=GPUSpec(**doc["gpu"]),
        host=HostSpec(**doc["host"]),
        link=LinkSpec(**doc["link"]),
        fault=FaultCosts(**doc["fault"]),
        power=PowerSpec(**doc["power"]),
    )


@dataclass(frozen=True)
class RunRequest:
    """Everything that determines one experiment cell's simulated output.

    ``batch``, ``scale`` and ``system`` default to ``None`` meaning "the
    model's standard value" (grid-midpoint batch, preset simulation scale,
    self-calibrated machine); :meth:`resolved` pins them to concrete
    values. ``measure_iterations=0`` turns the request into a *probe*: the
    cell runs its warm-up iterations only and reports whether it fit
    (``ok``/``oom``) without a measurement window — the primitive the
    max-batch search is built on.
    """

    model: str
    policy: str = "deepum"
    batch: Optional[int] = None
    scale: Optional[float] = None
    warmup_iterations: int = DEFAULT_WARMUP_ITERATIONS
    measure_iterations: int = DEFAULT_MEASURE_ITERATIONS
    seed: int = 0
    deepum_config: Optional[DeepUMConfig] = None
    system: Optional[SystemConfig] = None
    #: Request kind discriminator; see :data:`REQUEST_KINDS`. ``serve``
    #: requests carry their trace spec in :attr:`serve` and ignore
    #: ``measure_iterations`` (the measured window is the spec's request
    #: count); ``warmup_iterations`` doubles as the warm-up request count.
    kind: str = KIND_EXPERIMENT
    #: The serve payload (arrival trace, SLO target, hint switch); must be
    #: present exactly when ``kind == "serve"``.
    serve: Optional[ServeSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {self.kind!r}; known: {REQUEST_KINDS}")
        if (self.serve is not None) != (self.kind == KIND_SERVE):
            raise ValueError(
                "a ServeSpec must be attached exactly when kind='serve' "
                f"(kind={self.kind!r}, serve={'set' if self.serve else 'None'})")

    def resolved(self) -> "RunRequest":
        """Pin defaulted fields so the request fully determines the cell."""
        from .harness.experiment import calibrate_system
        from .models.registry import get_model_config

        cfg = get_model_config(self.model)
        batch = self.batch
        if batch is None:
            batch = cfg.fig9_batches[len(cfg.fig9_batches) // 2]
        scale = self.scale if self.scale is not None else cfg.sim_scale
        system = self.system
        if system is None:
            if self.kind == KIND_SERVE:
                from .serve.scenarios import calibrate_serve_system

                assert self.serve is not None
                system = calibrate_serve_system(
                    self.serve, paper_batch=batch, scale=scale)
            else:
                system = calibrate_system(self.model, scale=scale)
        if (batch, scale, system) == (self.batch, self.scale, self.system):
            return self
        return replace(self, batch=batch, scale=scale, system=system)

    @property
    def cell_key(self) -> str:
        """Human-readable cell name (``model@batch/policy``)."""
        batch = "auto" if self.batch is None else str(self.batch)
        if self.kind == KIND_SERVE and self.serve is not None:
            return f"serve-{self.serve.scenario}@{batch}/{self.policy}"
        return f"{self.model}@{batch}/{self.policy}"

    def canonical_payload(self) -> dict[str, Any]:
        """The resolved request as the one canonical dict for this cell.

        This is the form the executor journals, ships to workers, *and*
        feeds the content-addressed result cache
        (:mod:`repro.exec.cache`): defaults are pinned first, so a
        request and any dict round-trip of it canonicalize identically
        and therefore derive the same cache key.
        """
        return self.resolved().to_dict()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        doc: dict[str, Any] = {
            "model": self.model,
            "policy": self.policy,
            "batch": self.batch,
            "scale": self.scale,
            "warmup_iterations": self.warmup_iterations,
            "measure_iterations": self.measure_iterations,
            "seed": self.seed,
            "deepum_config": (
                asdict(self.deepum_config)
                if self.deepum_config is not None else None
            ),
            "system": (
                _system_to_dict(self.system)
                if self.system is not None else None
            ),
        }
        # Kind discrimination is additive: experiment requests keep the
        # original nine-key payload byte-for-byte, so pre-existing cache
        # keys and journal entries are untouched by the serve extension.
        if self.kind != KIND_EXPERIMENT:
            doc["kind"] = self.kind
            doc["serve"] = (
                self.serve.to_dict() if self.serve is not None else None)
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "RunRequest":
        deepum_doc = doc.get("deepum_config")
        system_doc = doc.get("system")
        serve_doc = doc.get("serve")
        return cls(
            model=doc["model"],
            policy=doc["policy"],
            batch=doc.get("batch"),
            scale=doc.get("scale"),
            warmup_iterations=doc.get(
                "warmup_iterations", DEFAULT_WARMUP_ITERATIONS),
            measure_iterations=doc.get(
                "measure_iterations", DEFAULT_MEASURE_ITERATIONS),
            seed=doc.get("seed", 0),
            deepum_config=(
                DeepUMConfig(**deepum_doc) if deepum_doc is not None else None
            ),
            system=(
                _system_from_dict(system_doc) if system_doc is not None
                else None
            ),
            kind=doc.get("kind", KIND_EXPERIMENT),
            serve=(
                ServeSpec.from_dict(serve_doc) if serve_doc is not None
                else None
            ),
        )


@dataclass
class RunResult:
    """Outcome of one cell: a status, the deterministic snapshot, an error.

    ``snapshot`` is the cell's deterministic simulated metrics as a plain
    dict — the thing parallel/resumed runs must reproduce bit-for-bit.
    ``metrics`` is the richer in-process :class:`WindowMetrics` view of the
    same window; ``experiment`` keeps the live
    :class:`~repro.harness.experiment.ExperimentResult` (facade included)
    for in-process callers and never crosses a process or disk boundary.
    """

    request: RunRequest
    status: str
    snapshot: Optional[dict[str, Any]] = None
    metrics: Optional[WindowMetrics] = None
    error: str = ""
    attempts: int = 1
    wall_seconds: Optional[float] = None
    experiment: Optional[ExperimentResult] = field(
        default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def seconds_per_100_iterations(self) -> Optional[float]:
        if self.metrics is not None:
            return self.metrics.seconds_per_100_iterations()
        if self.snapshot is None:
            return None
        iters = self.snapshot.get("iterations")
        if not iters:
            return None
        return 100.0 * float(self.snapshot["elapsed"]) / float(iters)

    @property
    def faults_per_iteration(self) -> Optional[float]:
        if self.metrics is not None:
            return self.metrics.faults_per_iteration
        if self.snapshot is None:
            return None
        iters = self.snapshot.get("iterations")
        if not iters:
            return None
        return float(self.snapshot["page_faults"]) / float(iters)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (drops the live ``experiment``)."""
        return {
            "request": self.request.to_dict(),
            "status": self.status,
            "snapshot": self.snapshot,
            "metrics": asdict(self.metrics) if self.metrics is not None
            else None,
            "error": self.error,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "RunResult":
        metrics_doc = doc.get("metrics")
        return cls(
            request=RunRequest.from_dict(doc["request"]),
            status=doc["status"],
            snapshot=doc.get("snapshot"),
            metrics=(
                WindowMetrics(**metrics_doc) if metrics_doc is not None
                else None
            ),
            error=doc.get("error", ""),
            attempts=doc.get("attempts", 1),
            wall_seconds=doc.get("wall_seconds"),
        )


def sim_snapshot(result: ExperimentResult) -> dict[str, Any]:
    """The deterministic simulated metrics of a finished measurement window.

    Pure simulation output — no wall-clock, no process state — so equal
    requests must yield equal snapshots whatever process or machine ran
    them. This is the dict the executor's parallel-equals-serial invariant
    (and its tests) compare exactly.
    """
    window = result.window
    if window is None:
        raise ValueError("cell has no measurement window (OOM or probe run)")
    return {
        "iterations": window.iterations,
        "elapsed": window.elapsed,
        "page_faults": window.page_faults,
        "gpu_busy": window.gpu_busy,
        "link_busy": window.link_busy,
        "bytes_in": window.bytes_in,
        "bytes_out": window.bytes_out,
        "prefetched": window.prefetched,
        "prefetch_coverage": window.prefetch_coverage,
        "energy_joules": window.energy_joules,
        "peak_populated_bytes": result.peak_populated_bytes,
        "correlation_table_bytes": result.correlation_table_bytes,
    }


def _execute_serve(req: RunRequest,
                   observe: Optional[Observer]) -> RunResult:
    """Run one serve cell through the open-loop session loop."""
    from .baselines import TensorSwapOOM
    from .core.um_manager import UMCapacityError
    from .serve.session import run_serve_cell
    from .torchsim.allocator import TorchSimOOM

    try:
        snapshot = run_serve_cell(req, observe=observe)
    except (UMCapacityError, TorchSimOOM, TensorSwapOOM) as exc:
        return RunResult(request=req, status=STATUS_OOM,
                         error=f"{type(exc).__name__}: {exc}")
    except (KeyError, TypeError, ValueError):
        raise  # unknown scenario/policy or a malformed spec: caller errors
    except Exception:
        return RunResult(request=req, status=STATUS_FAILED,
                         error=traceback.format_exc())
    return RunResult(request=req, status=STATUS_OK, snapshot=snapshot)


def execute(request: RunRequest, *,
            observe: Optional[Observer] = None) -> RunResult:
    """Run one cell; every outcome is a :class:`RunResult`, never a raise.

    ``observe`` is the cell's one observer hook: a one-argument callable
    handed the freshly built facade before the workload is built, for
    training, probe and serve cells alike (see
    :func:`repro.harness.experiment.build_cell_facade`). Record a cell
    with ``observe=functools.partial(repro.obs.attach, recorder=rec)``.

    The two exceptions to "never a raise": unknown model/policy names
    (``KeyError``) and an observer refusing the facade (``TypeError``,
    e.g. a recorder on a tensor-swap facade) are caller errors surfaced
    before the cell runs. Everything that happens *inside* the cell —
    OOM, a simulator bug, a workload crash — is captured as
    ``oom``/``failed`` with the cause (a full traceback for unexpected
    failures), which is what lets the executor degrade one cell instead
    of aborting a sweep.
    """
    req = request.resolved()
    if req.kind == KIND_SERVE:
        return _execute_serve(req, observe)
    assert req.batch is not None
    try:
        exp = run_experiment(
            req.model,
            req.batch,
            req.policy,
            scale=req.scale,
            system=req.system,
            warmup_iterations=req.warmup_iterations,
            measure_iterations=req.measure_iterations,
            deepum_config=req.deepum_config,
            seed=req.seed,
            observe=observe,
        )
    except (KeyError, TypeError):
        raise  # unknown name / observer-facade mismatch: a caller error
    except Exception:
        return RunResult(request=req, status=STATUS_FAILED,
                         error=traceback.format_exc())
    if exp.oom:
        return RunResult(request=req, status=STATUS_OOM,
                         error=exp.oom_reason, experiment=exp)
    if req.measure_iterations <= 0:  # a probe: the warm-up fit
        return RunResult(
            request=req, status=STATUS_OK,
            snapshot={"peak_populated_bytes": exp.peak_populated_bytes},
            experiment=exp)
    return RunResult(request=req, status=STATUS_OK,
                     snapshot=sim_snapshot(exp), metrics=exp.window,
                     experiment=exp)
