"""Parameter sweeps: maximum-batch search (Tables 3 and 7).

Probes are warm-up-only cells (``RunRequest(measure_iterations=0)``) run
as executor tasks (:mod:`repro.exec`), so a probe reports *why* it failed,
not just that it did, and honours the executor's timeout, retries and
result cache. :func:`max_batch_outcome` returns the full structured
result — including the smallest probed batch and its failure cause when
nothing fits — and :func:`max_batch_search` stays as the integer-returning
compatibility wrapper.

The doubling phase probes as many upcoming batch sizes at once as the
executor has workers; because a probe's outcome is a deterministic
function of its request, every pool size lands on the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..config import DeepUMConfig, SystemConfig
from ..models.registry import get_model_config


@dataclass(frozen=True)
class MaxBatchOutcome:
    """Structured result of a maximum-batch search.

    ``max_batch`` is 0 when no probed batch fits; ``smallest_probed`` and
    ``failure`` then say which batch the search bottomed out at and why it
    failed, so "does not run" is always accompanied by a cause.
    """

    model: str
    policy: str
    max_batch: int
    #: Every probed (batch, status) pair, smallest batch first.
    probes: tuple[tuple[int, str], ...]
    smallest_probed: int
    failure: str = ""

    @property
    def fits(self) -> bool:
        return self.max_batch > 0

    @property
    def status(self) -> str:
        from ..api import STATUS_OK, STATUS_OOM

        return STATUS_OK if self.fits else STATUS_OOM


class _Prober:
    """Runs fit probes, recording every outcome for the final report."""

    def __init__(self, model: str, policy: str, system: SystemConfig, *,
                 scale: float, iterations: int,
                 deepum_config: Optional[DeepUMConfig], seed: int,
                 executor: Any):
        self.model = model
        self.policy = policy
        self.system = system
        self.scale = scale
        self.iterations = iterations
        self.deepum_config = deepum_config
        self.seed = seed
        self.executor = executor
        #: batch -> (status, error) for every probe ever run.
        self.outcomes: dict[int, tuple[str, str]] = {}

    def request(self, batch: int):
        from ..api import RunRequest

        return RunRequest(
            model=self.model, policy=self.policy, batch=batch,
            scale=self.scale, warmup_iterations=self.iterations,
            measure_iterations=0, seed=self.seed,
            deepum_config=self.deepum_config, system=self.system,
        )

    def __call__(self, batch: int) -> bool:
        """True if ``batch`` completes the probe iterations without OOM."""
        from ..api import STATUS_OK

        self.probe_many([batch])
        return self.outcomes[batch][0] == STATUS_OK

    def probe_many(self, batches: list[int]) -> None:
        """Probe every not-yet-probed batch through the executor."""
        from ..exec import experiment_task

        todo = [b for b in batches if b not in self.outcomes]
        if not todo:
            return
        results = self.executor.run_tasks(
            [experiment_task(self.request(b), key=f"probe-{b}")
             for b in todo])
        for b in todo:
            doc = results[f"probe-{b}"]
            self.outcomes[b] = (doc["status"], doc.get("error", ""))

    def outcome(self, model_step: int, best: int) -> MaxBatchOutcome:
        probes = tuple(sorted(
            (batch, status) for batch, (status, _) in self.outcomes.items()
        ))
        smallest = min(self.outcomes) if self.outcomes else model_step
        failure = ""
        if best == 0 and self.outcomes:
            failure = self.outcomes[smallest][1]
        return MaxBatchOutcome(
            model=self.model, policy=self.policy, max_batch=best,
            probes=probes, smallest_probed=smallest, failure=failure,
        )


def max_batch_outcome(
    model: str,
    policy: str,
    system: SystemConfig,
    *,
    scale: float,
    start_batch: Optional[int] = None,
    iterations: int = 2,
    deepum_config: Optional[DeepUMConfig] = None,
    seed: int = 0,
    executor=None,
) -> MaxBatchOutcome:
    """Largest paper-scale batch that trains without OOM, with provenance.

    Doubles from a known-good starting point, then binary-searches the
    boundary; batch granularity is the model's ``batch_divisor``. Probes
    run on ``executor`` (a :class:`repro.exec.Executor`; default: one
    worker, no cache). With N workers the doubling phase speculatively
    probes the next N doublings at once; the boundary (and thus the
    answer) is the same at every N.
    """
    if executor is None:
        from ..exec import Executor, ExecutorConfig

        executor = Executor(ExecutorConfig(workers=1))
    cfg = get_model_config(model)
    step = cfg.batch_divisor
    prober = _Prober(model, policy, system, scale=scale,
                     iterations=iterations, deepum_config=deepum_config,
                     seed=seed, executor=executor)
    lo = start_batch if start_batch is not None else cfg.fig9_batches[0]
    lo = max(step, (lo // step) * step)
    if not prober(lo):
        # Shrink until something runs (or give up at one simulated sample).
        while lo > step:
            lo //= 2
            lo = max(step, (lo // step) * step)
            if prober(lo):
                break
        else:
            return prober.outcome(step, 0)
        if lo == step and not prober(lo):
            return prober.outcome(step, 0)
    hi = lo * 2
    while True:
        # Speculative wave: probe the next doublings concurrently. Wasted
        # probes cost worker time, never correctness — the boundary below
        # is read off the same per-batch outcomes a one-worker search
        # computes one by one.
        prober.probe_many(
            [hi * (2 ** i) for i in range(executor.config.workers)])
        if not prober(hi):
            break
        lo = hi
        hi *= 2
        if hi > lo * 64:  # paranoia bound; never hit in practice
            break
    # Binary search in (lo, hi): lo runs, hi fails.
    while hi - lo > step:
        mid = ((lo + hi) // 2 // step) * step
        if mid in (lo, hi):
            break
        if prober(mid):
            lo = mid
        else:
            hi = mid
    return prober.outcome(step, lo)


def max_batch_search(
    model: str,
    policy: str,
    system: SystemConfig,
    *,
    scale: float,
    start_batch: Optional[int] = None,
    iterations: int = 2,
    deepum_config: Optional[DeepUMConfig] = None,
) -> int:
    """Integer-only view of :func:`max_batch_outcome` (0 = nothing fits)."""
    return max_batch_outcome(
        model, policy, system, scale=scale, start_batch=start_batch,
        iterations=iterations, deepum_config=deepum_config,
    ).max_batch
