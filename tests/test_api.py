"""The unified experiment API: RunRequest/RunResult and execute()."""

from functools import partial

import pytest

from repro.api import (
    DEFAULT_MEASURE_ITERATIONS,
    DEFAULT_WARMUP_ITERATIONS,
    RUN_STATUSES,
    RunRequest,
    RunResult,
    execute,
    sim_snapshot,
)
from repro.config import DeepUMConfig, SystemConfig
from repro.obs import SpanRecorder, attach
from repro.serve import ServeSpec

#: Small enough that an executed request costs ~0.1s.
TINY = dict(model="mobilenet", batch=64, warmup_iterations=1,
            measure_iterations=1)


# -------------------------------------------------------------- requests

def test_resolved_pins_batch_scale_system():
    req = RunRequest(model="mobilenet", policy="um")
    assert req.batch is None and req.scale is None and req.system is None
    resolved = req.resolved()
    assert resolved.batch is not None
    assert resolved.scale is not None
    assert isinstance(resolved.system, SystemConfig)
    # Resolving is idempotent (and cheap the second time).
    assert resolved.resolved() is resolved


def test_resolved_default_batch_is_grid_midpoint():
    from repro.models.registry import get_model_config

    cfg = get_model_config("bert-base")
    resolved = RunRequest(model="bert-base").resolved()
    assert resolved.batch == cfg.fig9_batches[len(cfg.fig9_batches) // 2]
    assert resolved.scale == cfg.sim_scale


def test_request_round_trips_through_dict():
    req = RunRequest(model="mobilenet", policy="deepum", batch=128,
                     seed=3, deepum_config=DeepUMConfig(prefetch_degree=8))
    assert RunRequest.from_dict(req.to_dict()) == req
    # A resolved request (system pinned) survives the trip too.
    resolved = req.resolved()
    again = RunRequest.from_dict(resolved.to_dict())
    assert again == resolved
    assert again.system == resolved.system


def test_cell_key_names_the_cell():
    assert RunRequest(model="mobilenet", policy="um",
                      batch=64).cell_key == "mobilenet@64/um"
    assert RunRequest(model="mobilenet").cell_key == "mobilenet@auto/deepum"


# --------------------------------------------------------------- execute

def test_execute_ok_snapshot_and_metrics():
    result = execute(RunRequest(policy="um", **TINY))
    assert result.ok and result.status == "ok"
    assert result.status in RUN_STATUSES
    assert result.metrics is not None
    assert result.experiment is not None
    assert result.snapshot == sim_snapshot(result.experiment)
    assert result.snapshot["iterations"] == 1
    assert result.snapshot["elapsed"] > 0
    assert result.seconds_per_100_iterations is not None


def test_execute_is_deterministic_bit_for_bit():
    req = RunRequest(policy="deepum", **TINY).resolved()
    assert execute(req).snapshot == execute(req).snapshot


def test_result_props_computed_from_snapshot_alone():
    # What a journaled result looks like after a disk round-trip: no
    # metrics object, only the snapshot dict.
    result = execute(RunRequest(policy="um", **TINY))
    thin = RunResult.from_dict(
        dict(result.to_dict(), metrics=None))
    assert thin.metrics is None
    assert thin.seconds_per_100_iterations == pytest.approx(
        result.seconds_per_100_iterations)
    assert thin.faults_per_iteration == pytest.approx(
        result.faults_per_iteration)


def test_probe_mode_runs_warmup_only():
    probe = execute(RunRequest(model="mobilenet", policy="deepum", batch=64,
                               warmup_iterations=1, measure_iterations=0))
    assert probe.ok
    assert probe.metrics is None
    assert "peak_populated_bytes" in probe.snapshot


def test_probe_mode_reports_oom_with_cause():
    probe = execute(RunRequest(model="mobilenet", policy="um",
                               batch=50_000, warmup_iterations=1,
                               measure_iterations=0))
    assert probe.status in ("oom", "failed")
    assert probe.error


# --------------------------------------------------------------- observe

#: One cheap cell of each kind: training, probe and serve.
OBSERVED_CELLS = {
    "training": RunRequest(policy="deepum", **TINY),
    "probe": RunRequest(model="mobilenet", policy="deepum", batch=64,
                        warmup_iterations=1, measure_iterations=0),
    "serve": RunRequest(
        model="dlrm", policy="deepum", warmup_iterations=1, kind="serve",
        serve=ServeSpec(scenario="dlrm", requests=4, rate=50.0,
                        slo_ms=20.0)),
}


@pytest.mark.parametrize("kind", sorted(OBSERVED_CELLS))
def test_observe_sees_one_fresh_facade_per_cell(kind):
    seen = []

    def observe(facade):
        seen.append((facade, facade.engine.metrics.kernels))

    result = execute(OBSERVED_CELLS[kind], observe=observe)
    assert result.ok
    assert len(seen) == 1
    facade, kernels_before = seen[0]
    assert kernels_before == 0  # called before the first kernel ran
    assert facade.engine.metrics.kernels > 0


def test_probe_cell_records_through_observe():
    rec = SpanRecorder()
    probe = execute(OBSERVED_CELLS["probe"],
                    observe=partial(attach, recorder=rec))
    assert probe.ok
    assert len(rec.kernels) > 0


@pytest.mark.parametrize("measure", [1, 0])
def test_recording_a_tensor_swap_cell_is_a_caller_error(measure):
    request = RunRequest(model="mobilenet", policy="lms", batch=64,
                         warmup_iterations=1, measure_iterations=measure)
    with pytest.raises(TypeError, match="no UM engine"):
        execute(request, observe=partial(attach, recorder=SpanRecorder()))


def test_execute_captures_cell_failures(monkeypatch):
    import repro.api as api

    def boom(*args, **kwargs):
        raise RuntimeError("injected simulator bug")

    monkeypatch.setattr(api, "run_experiment", boom)
    result = execute(RunRequest(policy="um", **TINY))
    assert result.status == "failed"
    assert "injected simulator bug" in result.error


def test_unknown_model_is_a_caller_error():
    with pytest.raises(KeyError):
        execute(RunRequest(model="alexnet"))


def test_result_round_trips_through_dict():
    result = execute(RunRequest(policy="um", **TINY))
    doc = result.to_dict()
    again = RunResult.from_dict(doc)
    assert again.status == result.status
    assert again.snapshot == result.snapshot
    assert again.metrics == result.metrics
    assert again.request == result.request
    assert again.experiment is None  # never crosses the boundary


# ------------------------------------------------- make_policy removal

def test_make_policy_is_removed_with_a_pointer():
    import repro.harness as harness
    import repro.harness.experiment as experiment

    for module in (experiment, harness):
        with pytest.raises(AttributeError, match="build_policy"):
            module.make_policy
    with pytest.raises(ImportError, match="make_policy"):
        from repro.harness import make_policy  # noqa: F401
    assert "make_policy" not in harness.__all__


def test_defaults_are_shared_constants():
    req = RunRequest(model="mobilenet")
    assert req.warmup_iterations == DEFAULT_WARMUP_ITERATIONS
    assert req.measure_iterations == DEFAULT_MEASURE_ITERATIONS
