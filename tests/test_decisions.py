"""Decision attribution: provenance, the fault-cause taxonomy, guard cost.

Covers the DecisionLog state machine in isolation (units + a hypothesis
property test), the taxonomy's totality/exclusivity on real runs across
models and policies, replay-invariance of the PolicyHealth report, the
mid-run attach guard, and the zero-cost-when-disabled contract (a tripwire
recorder that explodes on any unguarded hook, plus a wall-clock check).
"""

import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DeepUMConfig, GPUSpec, HostSpec, SystemConfig
from repro.constants import GiB, MiB
from repro.core.deepum import DeepUM
from repro.baselines import NaiveUM
from repro.harness import calibrate_system, build_policy, run_experiment
from repro.models.registry import get_model_config
from repro.obs import (
    ALL_CAUSES,
    COMMAND_SOURCES,
    DecisionLog,
    NullRecorder,
    Provenance,
    SpanRecorder,
    attach,
    describe_event,
    policy_health,
)
from repro.obs.decisions import (
    CAUSE_CHAIN_BREAK,
    CAUSE_COLD_START,
    CAUSE_EVICTED,
    CAUSE_INVALIDATED,
    CAUSE_LATE,
    CAUSE_NEVER_PREDICTED,
    VICTIM_REFAULT_WINDOW,
)
from workloads import make_mlp_workload

TINY = 0.0625


def _tiny_system():
    return SystemConfig(gpu=GPUSpec(memory_bytes=64 * MiB),
                        host=HostSpec(memory_bytes=4 * GiB))


# --------------------------------------------------------------------- #
# DecisionLog units: one test per classification rule
# --------------------------------------------------------------------- #

def test_no_prefetcher_faults_are_cold_starts():
    log = DecisionLog()
    assert log.classify(7, 0.0, 0.5, 0) == CAUSE_COLD_START


def test_unlearned_kernel_faults_are_cold_starts():
    log = DecisionLog()
    log.note_kernel_known(False)
    assert log.classify(7, 0.0, 0.5, 0) == CAUSE_COLD_START


def test_outstanding_command_means_predicted_but_late():
    log = DecisionLog()
    log.note_kernel_known(True)
    log.note_command(7, "chain", exec_id=3, depth=2, kernel_seq=0)
    assert log.classify(7, 0.0, 0.5, 0) == CAUSE_LATE
    cause = log.fault_causes[-1]
    assert cause.provenance == Provenance("chain", 3, 2)


def test_completed_prefetch_clears_the_late_claim():
    log = DecisionLog()
    log.note_kernel_known(True)
    log.note_command(7, "seed", exec_id=1, depth=0, kernel_seq=0)
    log.note_done(7, kernel_seq=0)
    # The command completed, so a later fault is a table loss, not lateness.
    assert log.classify(7, 0.0, 0.5, 1) == CAUSE_NEVER_PREDICTED


def test_eviction_history_classifies_refetches():
    log = DecisionLog()
    log.note_evict(7, invalidated=False, kernel_seq=0)
    assert log.classify(7, 0.0, 0.5, 1) == CAUSE_EVICTED
    log.note_evict(8, invalidated=True, kernel_seq=0)
    assert log.classify(8, 0.0, 0.5, 1) == CAUSE_INVALIDATED


def test_command_after_eviction_outranks_the_eviction():
    log = DecisionLog()
    log.note_kernel_known(True)
    log.note_evict(7, invalidated=False, kernel_seq=0)
    log.note_command(7, "restart", exec_id=2, depth=1, kernel_seq=1)
    assert log.classify(7, 0.0, 0.5, 1) == CAUSE_LATE


def test_dead_chain_classifies_chain_breaks():
    log = DecisionLog()
    log.note_kernel_known(True)
    log.note_command(1, "seed", exec_id=0, depth=0, kernel_seq=0)
    log.note_chain_break("no-entry", exec_id=0, kernel_seq=0)
    assert log.classify(7, 0.0, 0.5, 0) == CAUSE_CHAIN_BREAK
    assert log.chain_breaks == {"no-entry": 1}
    # A restart revives the chain: subsequent unpredicted faults are table
    # losses again.
    log.note_chain_restart(7, exec_id=0, kernel_seq=0)
    assert log.classify(8, 0.0, 0.5, 0) == CAUSE_NEVER_PREDICTED
    assert log.chain_restarts == 1


def test_victim_refault_inside_window_counts_as_mispredicted_eviction():
    log = DecisionLog()
    log.note_victim(7, "lru-cold", kernel_seq=10)
    log.note_evict(7, invalidated=False, kernel_seq=10)
    log.classify(7, 0.0, 0.5, 10 + VICTIM_REFAULT_WINDOW)
    assert log.mispredicted_evictions == 1
    assert log.fault_causes[-1].refault_after == VICTIM_REFAULT_WINDOW
    assert log.victim_evictions == {"lru-cold": 1}


def test_victim_refault_outside_window_is_not_a_misprediction():
    log = DecisionLog()
    log.note_victim(7, "lru-cold", kernel_seq=10)
    log.note_evict(7, invalidated=False, kernel_seq=10)
    log.classify(7, 0.0, 0.5, 11 + VICTIM_REFAULT_WINDOW)
    assert log.mispredicted_evictions == 0
    assert log.fault_causes[-1].refault_after == -1


def test_events_for_block_filters_journal():
    log = DecisionLog()
    log.note_command(7, "chain", exec_id=0, depth=1, kernel_seq=0)
    log.note_command(8, "chain", exec_id=0, depth=1, kernel_seq=0)
    log.note_done(7, kernel_seq=1)
    assert [ev[0] for ev in log.events_for_block(7)] == \
        ["command", "prefetch-done"]
    assert [ev[0] for ev in log.events_for_block(7, kernel_seq=0)] == \
        ["command"]


def test_describe_event_renders_every_kind():
    log = DecisionLog()
    log.note_command(7, "hop", exec_id=4, depth=3, kernel_seq=0)
    log.note_done(7, kernel_seq=0)
    log.note_evict(7, invalidated=True, kernel_seq=0)
    log.note_victim(7, "lru-cold", kernel_seq=0)
    log.note_chain_break("history-miss", exec_id=4, kernel_seq=0)
    log.note_chain_restart(7, exec_id=4, kernel_seq=0)
    log.note_invalidated(7, active=False, kernel_seq=0)
    log.note_invalidated(7, active=True, kernel_seq=0)
    log.classify(7, 1.0, 0.5, 0)
    lines = [describe_event(ev) for ev in log.events]
    assert any("hop, exec 4, depth 3" in line for line in lines)
    assert any("invalidated drop" in line for line in lines)
    assert any("history-miss" in line for line in lines)
    assert any("demand fault" in line for line in lines)


# --------------------------------------------------------------------- #
# property test: the taxonomy is total and exclusive for ANY event order
# --------------------------------------------------------------------- #

_BLOCKS = st.integers(min_value=0, max_value=7)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("command"), _BLOCKS,
                  st.sampled_from(COMMAND_SOURCES)),
        st.tuples(st.just("done"), _BLOCKS),
        st.tuples(st.just("evict"), _BLOCKS, st.booleans()),
        st.tuples(st.just("victim"), _BLOCKS),
        st.tuples(st.just("known"), st.booleans()),
        st.tuples(st.just("break")),
        st.tuples(st.just("restart"), _BLOCKS),
        st.tuples(st.just("fault"), _BLOCKS),
    ),
    max_size=80,
)


def _apply(log, ops):
    """Drive a DecisionLog with an arbitrary op sequence; returns causes."""
    causes = []
    for seq, op in enumerate(ops):
        kind = op[0]
        if kind == "command":
            log.note_command(op[1], op[2], exec_id=0, depth=1, kernel_seq=seq)
        elif kind == "done":
            log.note_done(op[1], kernel_seq=seq)
        elif kind == "evict":
            log.note_evict(op[1], invalidated=op[2], kernel_seq=seq)
        elif kind == "victim":
            log.note_victim(op[1], "lru-cold", kernel_seq=seq)
        elif kind == "known":
            log.note_kernel_known(op[1])
        elif kind == "break":
            log.note_chain_break("no-entry", exec_id=0, kernel_seq=seq)
        elif kind == "restart":
            log.note_chain_restart(op[1], exec_id=0, kernel_seq=seq)
        else:
            causes.append(log.classify(op[1], float(seq), 0.25, seq))
    return causes


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_taxonomy_is_total_and_exclusive_for_any_event_order(ops):
    log = DecisionLog()
    causes = _apply(log, ops)
    n_faults = sum(1 for op in ops if op[0] == "fault")
    # Total: every fault got exactly one cause, from the fixed taxonomy.
    assert len(causes) == n_faults == len(log.fault_causes)
    assert all(c in ALL_CAUSES for c in causes)
    # Exclusive: the per-cause tallies partition the faults and their stall.
    assert sum(log.cause_counts.values()) == n_faults
    assert sum(log.cause_stall.values()) == 0.25 * n_faults


@settings(max_examples=50, deadline=None)
@given(ops=_OPS)
def test_decision_log_is_deterministic_in_its_inputs(ops):
    a, b = DecisionLog(), DecisionLog()
    assert _apply(a, ops) == _apply(b, ops)
    assert a.cause_counts == b.cause_counts
    assert a.events == b.events


# --------------------------------------------------------------------- #
# integration: real runs across models x policies
# --------------------------------------------------------------------- #

CASES = [
    ("mobilenet", None),
    ("bert-base", TINY),
    ("dcgan", TINY),
]


@pytest.mark.parametrize("policy", ["deepum", "um"])
@pytest.mark.parametrize("model,scale", CASES)
def test_every_fault_is_attributed_end_to_end(model, scale, policy):
    cfg = get_model_config(model)
    batch = cfg.fig9_batches[len(cfg.fig9_batches) // 2]
    system = calibrate_system(model, scale=scale) if scale else \
        calibrate_system(model)
    rec = SpanRecorder()
    result = run_experiment(model, batch, policy, system=system, scale=scale,
                            warmup_iterations=1, measure_iterations=2,
                            observe=partial(attach, recorder=rec))
    assert not result.oom
    dec = rec.decisions
    faults = sum(k.faults for k in rec.kernels)
    assert faults > 0, "an oversubscribed run must demand-fault"
    # Total and exclusive on a real run: every engine fault classified once.
    assert len(dec.fault_causes) == faults
    assert sum(dec.cause_counts.values()) == faults
    assert set(dec.cause_counts) <= set(ALL_CAUSES)
    health = policy_health(rec, getattr(result.facade, "driver", None))
    assert health.fault_stall > 0
    assert health.attributed_stall_fraction == pytest.approx(1.0)
    if policy == "um":
        # No prefetcher: a fault can only be a cold start or a re-fetch.
        assert set(dec.cause_counts) <= {
            CAUSE_COLD_START, CAUSE_EVICTED, CAUSE_INVALIDATED}
        assert dec.commands_issued == 0
        assert health.tables is None
    else:
        assert dec.commands_issued > 0
        assert set(dec.commands_by_source) <= set(COMMAND_SOURCES)
        assert health.tables is not None
        assert health.tables.exec_updates > 0


def test_attribution_survives_steady_state_replay():
    def instrumented(replay):
        facade = build_policy("deepum", calibrate_system("mobilenet"))
        rec = attach(facade)
        if not replay:
            facade.device.replayer = None
        cfg = get_model_config("mobilenet")
        workload = cfg.build(facade.device, cfg.sim_batch(3072),
                             scale=cfg.sim_scale)
        workload.run(7)
        return facade, rec

    direct_facade, direct = instrumented(replay=False)
    replay_facade, replayed = instrumented(replay=True)
    assert replay_facade.device.replayer.iterations_replayed > 0
    a = policy_health(direct, direct_facade.driver).to_dict()
    b = policy_health(replayed, replay_facade.driver).to_dict()
    assert a == b


# --------------------------------------------------------------------- #
# attach guard
# --------------------------------------------------------------------- #

def test_attach_mid_run_raises_instead_of_recording_halfheartedly():
    deepum = DeepUM(_tiny_system(), DeepUMConfig(prefetch_degree=8))
    step, _, _ = make_mlp_workload(deepum.device, layers_n=4, dim=256,
                                   batch=64)
    step()
    with pytest.raises(RuntimeError, match="mid-run"):
        attach(deepum)


def test_attach_before_first_kernel_still_works():
    deepum = DeepUM(_tiny_system(), DeepUMConfig(prefetch_degree=8))
    rec = attach(deepum)
    step, _, _ = make_mlp_workload(deepum.device, layers_n=4, dim=256,
                                   batch=64)
    step()
    assert rec.kernels


# --------------------------------------------------------------------- #
# disabled-recorder guards: correctness and cost
# --------------------------------------------------------------------- #

def _tripwire():
    """A disabled recorder whose every hook raises: proves guard coverage."""

    class Tripwire(NullRecorder):
        pass

    def boom_factory(name):
        def boom(self, *args, **kwargs):
            raise AssertionError(
                f"recorder hook {name!r} called with recording disabled: "
                "the call site is missing its cached `enabled` guard")
        return boom

    for name in dir(NullRecorder):
        if not name.startswith("_") and callable(getattr(NullRecorder, name)):
            setattr(Tripwire, name, boom_factory(name))
    assert Tripwire.enabled is False
    return Tripwire()


@pytest.mark.parametrize("facade_cls", [DeepUM, NaiveUM])
def test_every_hook_site_is_guarded_when_disabled(facade_cls):
    facade = facade_cls(_tiny_system())
    attach(facade, _tripwire())
    step, _, _ = make_mlp_workload(facade.device, layers_n=6, dim=512,
                                   batch=128)
    for _ in range(3):
        step()  # faults, prefetches, evictions — nothing may trip


def test_disabled_run_matches_instrumented_run_bit_for_bit():
    system = calibrate_system("mobilenet")

    def run(observe):
        return run_experiment("mobilenet", 3072, "deepum", system=system,
                              warmup_iterations=1, measure_iterations=2,
                              observe=observe)

    plain = run(None)
    instrumented = run(attach)
    assert plain.window.elapsed == instrumented.window.elapsed
    assert plain.window.page_faults == instrumented.window.page_faults
    assert plain.window.bytes_in == instrumented.window.bytes_in
    assert plain.window.bytes_out == instrumented.window.bytes_out
    assert plain.peak_populated_bytes == instrumented.peak_populated_bytes


def bench_disabled_guards_cost_less_than_recording():
    """Micro-benchmark: a disabled run must not pay for attribution.

    Recording allocates spans, journal entries and per-block maps; the
    disabled path is one cached attribute test per site. min-of-3 wall
    times with a generous margin keeps this sound on noisy CI machines.
    """
    system = calibrate_system("mobilenet")

    def run(observe):
        t0 = time.perf_counter()
        run_experiment("mobilenet", 3072, "deepum", system=system,
                       warmup_iterations=1, measure_iterations=2,
                       observe=observe)
        return time.perf_counter() - t0

    disabled = min(run(None) for _ in range(3))
    recording = min(run(attach) for _ in range(3))
    assert disabled <= recording * 1.25, (
        f"disabled run ({disabled:.3f}s) should not cost more than an "
        f"instrumented run ({recording:.3f}s): guards are not short-"
        f"circuiting")
