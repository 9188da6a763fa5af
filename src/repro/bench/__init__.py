"""Pinned, reproducible benchmark scenarios with a regression gate.

``repro bench run`` executes a named scenario (a pinned model x batch x
policy grid with fixed seeds and iteration counts) several times, records
the best wall-clock time per cell alongside the simulated metrics, and
writes a versioned ``BENCH_<scenario>.json``.  ``repro bench compare``
diffs two such files: simulated metrics must match exactly (the
simulator's output is deterministic — any drift is a behaviour change, not
noise), while wall-clock times may regress up to a configurable threshold
before the comparison fails.
"""

from .compare import CompareResult, compare_results
from .manifest import DEFAULT_MEASURE, DEFAULT_WARMUP, SCENARIOS, Scenario
from .runner import run_scenario
from .schema import SCHEMA_VERSION, load_result, validate_result, write_result

__all__ = [
    "CompareResult",
    "DEFAULT_MEASURE",
    "DEFAULT_WARMUP",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "Scenario",
    "compare_results",
    "load_result",
    "run_scenario",
    "validate_result",
    "write_result",
]
