"""Pinned benchmark scenarios: the what, never the how.

A :class:`Scenario` fixes everything that determines a run's simulated
output — model, paper batch, policy list, iteration counts, seed and
prefetch degree — so two runs of the same scenario on any machine produce
identical simulated metrics and comparable wall-clock times.  The figure
and table benchmarks under ``benchmarks/`` build their request grids with
these warm-up/measure constants, so a scenario times what they run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..api import RunRequest
from ..config import DeepUMConfig
from ..harness.experiment import policy_accepts_config

#: Iterations before the measurement window: correlation tables need ~3
#: iterations to converge (same constant the figure benchmarks use).
DEFAULT_WARMUP = 4
#: Iterations inside the measurement window.
DEFAULT_MEASURE = 3
#: Seed for the device RNG (only irregular workloads draw from it).
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Scenario:
    """One pinned benchmark: a model under a set of policies."""

    name: str
    model: str
    paper_batch: int
    policies: tuple[str, ...]
    warmup_iterations: int = DEFAULT_WARMUP
    measure_iterations: int = DEFAULT_MEASURE
    seed: int = DEFAULT_SEED
    prefetch_degree: int = 32
    description: str = ""

    def requests(
        self,
        *,
        batch: Optional[int] = None,
        scale: Optional[float] = None,
        seed: Optional[int] = None,
        warmup_iterations: Optional[int] = None,
        measure_iterations: Optional[int] = None,
    ) -> dict[str, RunRequest]:
        """Cell key -> request for every policy, overrides applied.

        The one place a scenario becomes cells: the bench, doctor, report
        and profile all run exactly these requests, so they judge the
        same cells. ``None`` keeps the scenario's pin (``scale=None``
        keeps the model's preset simulation scale).
        """
        cells: dict[str, RunRequest] = {}
        for policy in self.policies:
            request = RunRequest(
                model=self.model,
                policy=policy,
                batch=self.paper_batch if batch is None else batch,
                scale=scale,
                warmup_iterations=(
                    self.warmup_iterations if warmup_iterations is None else warmup_iterations
                ),
                measure_iterations=(
                    self.measure_iterations if measure_iterations is None else measure_iterations
                ),
                seed=self.seed if seed is None else seed,
                deepum_config=(
                    DeepUMConfig(prefetch_degree=self.prefetch_degree)
                    if policy_accepts_config(policy)
                    else None
                ),
            )
            cells[request.cell_key] = request
        return cells

    def config_dict(self) -> dict:
        """The scenario pin, embedded verbatim in every result file."""
        return {
            "model": self.model,
            "paper_batch": self.paper_batch,
            "policies": list(self.policies),
            "warmup_iterations": self.warmup_iterations,
            "measure_iterations": self.measure_iterations,
            "seed": self.seed,
            "prefetch_degree": self.prefetch_degree,
        }


def _registry(*scenarios: Scenario) -> dict[str, Scenario]:
    return {s.name: s for s in scenarios}


#: All named scenarios. ``smoke`` is what CI gates on: small enough to run
#: in seconds, but it exercises both the naive-UM and the full DeepUM
#: paths. The ``fig09-*`` scenarios are the speedup-measurement workloads.
SCENARIOS: dict[str, Scenario] = _registry(
    Scenario(
        name="smoke",
        model="mobilenet",
        paper_batch=3072,
        policies=("um", "deepum"),
        description="CI gate: one small model through naive UM and DeepUM",
    ),
    Scenario(
        name="fig09-bert-large",
        model="bert-large",
        paper_batch=16,
        policies=("um", "deepum", "lms"),
        description="Fig. 9 cell: BERT-large at the paper's mid batch",
    ),
    Scenario(
        name="fig09-gpt2-l",
        model="gpt2-l",
        paper_batch=5,
        policies=("um", "deepum"),
        description="Fig. 9 cell: GPT-2 Large",
    ),
    Scenario(
        name="fig09-resnet152",
        model="resnet152",
        paper_batch=1536,
        policies=("um", "deepum"),
        description="Fig. 9 cell: ResNet-152 at an oversubscribed batch",
    ),
    Scenario(
        name="fig09-dlrm",
        model="dlrm",
        paper_batch=160000,
        policies=("um", "deepum"),
        description="Fig. 9 cell: DLRM (irregular embedding access)",
    ),
)


def get_scenario(scenario: Union[str, Scenario]) -> Scenario:
    """``scenario`` itself, or the registered scenario of that name.

    Raises ``KeyError`` naming the known scenarios for an unknown name.
    """
    if isinstance(scenario, Scenario):
        return scenario
    found = SCENARIOS.get(scenario)
    if found is None:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {scenario!r}; known: {known}")
    return found
