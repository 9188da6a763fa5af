"""Steady-state iteration replay must be invisible in simulated output."""

from dataclasses import asdict

import pytest

from repro.api import sim_snapshot
from repro.constants import PT_LARGE_SEGMENT_ROUND
from repro.core.replay import STABLE_PAIRS, IterationReplayer, ReplayDivergence
from repro.harness import calibrate_system
from repro.harness.experiment import _snapshot, build_policy, run_experiment
from repro.models.registry import get_model_config
from repro.sim.address import align_up

MODEL = "mobilenet"
BATCH = 3072
ITERS = 8

#: (model, paper batch): a depthwise-conv CNN and a small-batch transformer.
EQUIVALENCE_CELLS = ((MODEL, BATCH), ("bert-base", 29))


def _build(policy, *, replay=True):
    facade = build_policy(policy, calibrate_system(MODEL))
    if not replay:
        facade.device.replayer = None
    cfg = get_model_config(MODEL)
    workload = cfg.build(facade.device, cfg.sim_batch(BATCH), scale=cfg.sim_scale)
    return facade, workload


def _run(policy, *, replay):
    facade, workload = _build(policy, replay=replay)
    workload.run(ITERS)
    return facade, workload


def _counters(facade):
    """Every counter replay could skip: allocator, driver threads, tables."""
    device = facade.device
    out = {
        "allocator": asdict(device.allocator.stats),
        "kernels": device.kernel_count,
    }
    driver = getattr(facade, "driver", None)
    if driver is not None:
        table = driver.correlator.exec_table
        out.update(
            invalidation=asdict(driver.invalidation.stats),
            preevict=asdict(driver.preevictor.stats),
            prefetcher=(driver.prefetcher.commands_emitted,
                        driver.prefetcher.chain_breaks),
            exec_table=(table.hits, table.misses),
        )
    return out


@pytest.mark.parametrize("policy", ["um", "deepum", "ideal"])
def test_replay_matches_direct_execution(policy):
    def direct(facade):
        facade.device.replayer = None

    for model, batch in EQUIVALENCE_CELLS:
        window = dict(warmup_iterations=3, measure_iterations=5)
        direct_run = run_experiment(model, batch, policy, observe=direct,
                                    **window)
        replayed = run_experiment(model, batch, policy, **window)
        replayer = replayed.facade.device.replayer
        # The compiled path (no allocator calls) actually ran.
        assert 0 < replayer.iterations_compiled < replayer.iterations_replayed
        assert sim_snapshot(replayed) == sim_snapshot(direct_run)
        assert _counters(replayed.facade) == _counters(direct_run.facade)
        if policy == "deepum":
            assert _counters(replayed.facade)["invalidation"][
                "inactive_events"] > 0


def test_replay_engages_after_stable_pairs():
    facade, _ = _run("um", replay=True)
    replayer = facade.device.replayer
    # Stream freezes after STABLE_PAIRS consecutive identical iterations;
    # the first iteration (initial allocations) may differ from steady
    # state, so recording lasts at most 2 + STABLE_PAIRS iterations.
    assert ITERS - (2 + STABLE_PAIRS) <= replayer.iterations_replayed
    assert replayer.iterations_replayed <= ITERS - (1 + STABLE_PAIRS)
    # One verified iteration proves the fixed point; the rest compile.
    assert replayer.iterations_compiled == replayer.iterations_replayed - 1


def test_replay_extends_across_separate_run_calls():
    facade, workload = _build("um")
    workload.run(4)
    before = facade.device.replayer.iterations_replayed
    workload.run(3)
    assert facade.device.replayer.iterations_replayed == before + 3
    assert workload.iterations_run == 7


def test_replayer_is_wired_by_um_facades():
    for policy in ("um", "deepum", "ideal"):
        facade = build_policy(policy, calibrate_system(MODEL))
        assert isinstance(facade.device.replayer, IterationReplayer)


def test_divergence_is_a_hard_error():
    facade, workload = _build("um")
    # Recording lasts at most 2 + STABLE_PAIRS iterations (see above).
    workload.run(2 + STABLE_PAIRS)
    assert facade.device.replayer.iterations_replayed == 0
    # Before verification, take every cached free block: the allocations
    # the recording served from the cache now land elsewhere.
    allocator = facade.device.allocator
    sizes = [blk.size for pool in (allocator.small_pool, allocator.large_pool)
             for blk in pool]
    held = [allocator.allocate(size) for size in sizes]
    assert held
    with pytest.raises(ReplayDivergence, match="recorded"):
        workload.run(1)


@pytest.mark.parametrize("policy", ["um", "deepum"])
def test_foreign_allocator_use_forces_a_verified_iteration(policy):
    def run(replay):
        facade, workload = _build(policy, replay=replay)
        workload.run(ITERS)
        replayer = facade.device.replayer
        if replay:
            compiled = replayer.iterations_compiled
            assert compiled > 0
        # A foreign allocate/free pair between two run() calls.
        allocator = facade.device.allocator
        allocator.free(allocator.allocate(512))
        workload.run(1)
        if replay:
            # The guard tripped: this iteration drove the allocator.
            assert replayer.iterations_compiled == compiled
        workload.run(2)
        if replay:
            # ...and proved the fixed point again.
            assert replayer.iterations_compiled == compiled + 2
        return facade

    direct, replayed = run(replay=False), run(replay=True)
    assert _snapshot(replayed) == _snapshot(direct)
    assert _counters(replayed) == _counters(direct)


def test_iteration_that_moves_the_allocator_is_not_compiled():
    def run(replay):
        facade, workload = _build("um", replay=replay)
        workload.run(2 + STABLE_PAIRS)
        # Larger than every cached block and a whole segment, so it takes
        # a new segment and leaves no split-off block the recording could
        # land in. Held, it lifts every later allocation peak: the first
        # replayed iteration raises ``peak_allocated`` and is no fixed
        # point; the second one is.
        allocator = facade.device.allocator
        largest = max(blk.size for blk in allocator.large_pool)
        allocator.allocate(align_up(largest + 1, PT_LARGE_SEGMENT_ROUND))
        compiled = []
        for _ in range(3):
            workload.run(1)
            if replay:
                compiled.append(facade.device.replayer.iterations_compiled)
        return facade, compiled

    direct, _ = run(replay=False)
    replayed, compiled = run(replay=True)
    assert compiled == [0, 0, 1]
    assert _snapshot(replayed) == _snapshot(direct)
    assert _counters(replayed) == _counters(direct)
