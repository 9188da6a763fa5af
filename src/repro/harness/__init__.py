"""Experiment harness: runs workloads under policies and reports tables."""

from .experiment import (
    POLICIES,
    ExperimentResult,
    build_policy,
    calibrate_system,
    policy_accepts_config,
    run_experiment,
)
from .metrics import WindowMetrics, phase_breakdown_rows
from .report import (format_table, geomean, phase_breakdown_table,
                     speedup_table)
from .sweep import MaxBatchOutcome, max_batch_outcome

__all__ = [
    "POLICIES",
    "ExperimentResult",
    "MaxBatchOutcome",
    "build_policy",
    "calibrate_system",
    "policy_accepts_config",
    "run_experiment",
    "WindowMetrics",
    "format_table",
    "phase_breakdown_rows",
    "phase_breakdown_table",
    "geomean",
    "speedup_table",
    "max_batch_outcome",
]


def __getattr__(name: str):
    if name == "make_policy":
        raise AttributeError(
            "make_policy was removed: construct cells via "
            "repro.api.RunRequest / repro.api.execute, or use "
            "repro.harness.build_policy for a bare facade")
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
