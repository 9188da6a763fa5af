"""Serving mode: ServeSpec payloads, arrival traces, hints, the loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import KIND_EXPERIMENT, KIND_SERVE, RunRequest, execute
from repro.config import SystemConfig
from repro.serve import ARRIVAL_KINDS, ServeSpec
from repro.serve.arrivals import generate_arrivals
from repro.serve.session import percentile
from repro.sim.um_space import ADVISE_STICKY, MemAdvise, advice_labels

#: One cheap serve cell (~1s): small trace, auto rate/SLO.
TINY_SERVE = dict(scenario="dlrm", requests=4)


def serve_request(policy="deepum", *, spec=None, **req_kw) -> RunRequest:
    spec = spec if spec is not None else ServeSpec(**TINY_SERVE)
    req_kw.setdefault("warmup_iterations", 1)
    req_kw.setdefault("model", "dlrm")
    return RunRequest(policy=policy, kind=KIND_SERVE, serve=spec, **req_kw)


# ------------------------------------------------------------- payloads

serve_specs = st.builds(
    ServeSpec,
    scenario=st.sampled_from(("dlrm", "gpt2-decode")),
    arrivals=st.sampled_from(ARRIVAL_KINDS),
    requests=st.integers(1, 500),
    rate=st.one_of(st.none(), st.floats(0.01, 1e4)),
    slo_ms=st.one_of(st.none(), st.floats(0.01, 1e6)),
    hints=st.booleans(),
    arrival_seed=st.integers(0, 2 ** 31),
    burst_factor=st.floats(1.0, 64.0),
    decode_tokens=st.integers(1, 64),
)

LEGACY_PAYLOAD_KEYS = sorted([
    "model", "policy", "batch", "scale", "warmup_iterations",
    "measure_iterations", "seed", "deepum_config", "system",
])


@settings(max_examples=60, deadline=None)
@given(serve_specs)
def test_serve_spec_round_trips(spec):
    assert ServeSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(("mobilenet", "dlrm", "gpt2-l")),
    policy=st.sampled_from(("um", "deepum", "lms")),
    batch=st.one_of(st.none(), st.integers(1, 1 << 16)),
    seed=st.integers(0, 1 << 16),
    warmup=st.integers(0, 50),
    measure=st.integers(0, 50),
)
def test_experiment_payload_unchanged_by_serve_extension(
        model, policy, batch, seed, warmup, measure):
    """Old cache keys and journals depend on this staying byte-stable."""
    req = RunRequest(model=model, policy=policy, batch=batch, seed=seed,
                     warmup_iterations=warmup, measure_iterations=measure)
    doc = req.to_dict()
    assert sorted(doc) == LEGACY_PAYLOAD_KEYS
    assert "kind" not in doc and "serve" not in doc
    again = RunRequest.from_dict(doc)
    assert again == req
    assert again.kind == KIND_EXPERIMENT and again.serve is None


@settings(max_examples=60, deadline=None)
@given(serve_specs, st.integers(0, 7))
def test_serve_request_round_trips(spec, seed):
    req = RunRequest(model="dlrm", kind=KIND_SERVE, serve=spec, seed=seed)
    doc = req.to_dict()
    assert doc["kind"] == KIND_SERVE
    again = RunRequest.from_dict(doc)
    assert again == req and again.serve == spec


def test_request_kind_is_validated():
    with pytest.raises(ValueError, match="unknown request kind"):
        RunRequest(model="dlrm", kind="training")
    with pytest.raises(ValueError, match="exactly when"):
        RunRequest(model="dlrm", kind=KIND_SERVE)  # spec missing
    with pytest.raises(ValueError, match="exactly when"):
        RunRequest(model="dlrm", serve=ServeSpec(**TINY_SERVE))


def test_serve_spec_is_validated():
    with pytest.raises(ValueError):
        ServeSpec(scenario="dlrm", arrivals="uniform")
    with pytest.raises(ValueError):
        ServeSpec(scenario="dlrm", requests=0)
    with pytest.raises(ValueError):
        ServeSpec(scenario="dlrm", rate=-1.0)
    with pytest.raises(ValueError):
        ServeSpec(scenario="dlrm", burst_factor=0.5)


def test_serve_cell_key_names_the_scenario():
    req = serve_request(spec=ServeSpec(scenario="gpt2-decode"), batch=7)
    assert req.cell_key == "serve-gpt2-decode@7/deepum"


# ------------------------------------------------------------- arrivals

@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(ARRIVAL_KINDS),
    n=st.integers(1, 200),
    rate=st.floats(0.1, 1e3),
    seed=st.integers(0, 1 << 31),
)
def test_arrival_traces_are_deterministic_and_ordered(kind, n, rate, seed):
    a = generate_arrivals(kind, n, rate, seed)
    b = generate_arrivals(kind, n, rate, seed)
    assert a == b
    assert len(a) == n
    assert a[0] >= 0.0
    assert all(later >= earlier for earlier, later in zip(a, a[1:]))


def test_arrival_kinds_differ_and_unknown_raises():
    traces = {kind: generate_arrivals(kind, 32, 10.0, 0)
              for kind in ARRIVAL_KINDS}
    assert len({tuple(t) for t in traces.values()}) == len(ARRIVAL_KINDS)
    with pytest.raises(ValueError):
        generate_arrivals("uniform", 8, 1.0, 0)


def test_percentile_is_nearest_rank():
    window = [float(v) for v in range(1, 101)]
    assert percentile(window, 0.50) == 50.0
    assert percentile(window, 0.95) == 95.0
    assert percentile(window, 0.99) == 99.0
    assert percentile(window, 1.00) == 100.0
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


# ------------------------------------------------------- hint semantics

def test_advise_sets_block_bits_and_rejects_unknown():
    from repro.sim.um_space import UnifiedMemorySpace

    um = UnifiedMemorySpace()
    alloc = um.allocate(1 << 21)
    blocks = um.advise(alloc.addr, alloc.nbytes, int(MemAdvise.READ_MOSTLY))
    assert blocks and all(b.advice & MemAdvise.READ_MOSTLY for b in blocks)
    um.advise(alloc.addr, alloc.nbytes, int(MemAdvise.ACCESSED_BY))
    assert all(b.advice & MemAdvise.READ_MOSTLY for b in blocks)  # advice ORs
    with pytest.raises(ValueError):
        um.advise(alloc.addr, alloc.nbytes, 1 << 9)


def test_advice_labels_are_stable():
    assert advice_labels(0) == "none"
    assert advice_labels(int(MemAdvise.READ_MOSTLY)) == "READ_MOSTLY"
    both = int(MemAdvise.PREFERRED_LOCATION_CPU | MemAdvise.ACCESSED_BY)
    assert advice_labels(both) == "PREFERRED_LOCATION_CPU|ACCESSED_BY"


def test_advice_masks_are_plain_ints():
    """Block advice is an int, so an IntFlag mask would make every
    ``blk.advice & mask`` in the victim scans build an enum object."""
    from repro.policies import chaining, eviction, windowed
    from repro.sim import um_space

    masks = {
        "um_space.ADVISE_STICKY": um_space.ADVISE_STICKY,
        "um_space.ADVISE_CPU": um_space.ADVISE_CPU,
        "um_space.ADVISE_ALL": um_space.ADVISE_ALL,
        "eviction.ADVISE_STICKY": eviction.ADVISE_STICKY,
        "eviction.ADVISE_CPU": eviction.ADVISE_CPU,
        "eviction._NOT_COLD": eviction._NOT_COLD,
        "windowed.ADVISE_STICKY": windowed.ADVISE_STICKY,
        "chaining.ADVISE_STICKY": chaining.ADVISE_STICKY,
    }
    for name, mask in masks.items():
        assert type(mask) is int, name
    assert um_space.ADVISE_ALL == sum(int(flag) for flag in MemAdvise)


def _eviction_stack(capacity_blocks=4):
    from repro.constants import UM_BLOCK_SIZE
    from repro.sim.gpu import GPUMemory
    from repro.sim.um_space import BlockLocation, UnifiedMemorySpace

    um = UnifiedMemorySpace()
    gpu = GPUMemory(capacity_bytes=capacity_blocks * UM_BLOCK_SIZE)

    def admit(idx, now):
        blk = um.block(idx)
        blk.populate(512)
        blk.location = BlockLocation.CPU
        gpu.admit(blk, now)
        return blk

    return um, gpu, admit


class _NoProtection:
    def protected_blocks(self):
        return set()


def test_read_mostly_blocks_are_evicted_last():
    from repro.policies.eviction import ProtectedLRUEvictionPolicy

    um, gpu, admit = _eviction_stack()
    blocks = [admit(i, now=float(i)) for i in range(4)]
    blocks[0].advice |= int(MemAdvise.READ_MOSTLY)  # oldest, but sticky
    policy = ProtectedLRUEvictionPolicy(
        _NoProtection(), prefer_invalidated=True, protect_predicted=True)
    need_all = sum(b.populated_bytes for b in blocks)
    victims = policy.select_victims(gpu, needed_bytes=need_all, now=10.0)
    # Every unadvised block goes before the sticky one, despite LRU order.
    assert [v.index for v in victims] == [1, 2, 3, 0]


def test_cpu_preferred_blocks_are_preferred_demand_victims():
    from repro.policies.eviction import ProtectedLRUEvictionPolicy

    um, gpu, admit = _eviction_stack()
    blocks = [admit(i, now=float(i)) for i in range(4)]
    blocks[3].advice |= int(MemAdvise.PREFERRED_LOCATION_CPU)  # newest
    policy = ProtectedLRUEvictionPolicy(
        _NoProtection(), prefer_invalidated=True, protect_predicted=True)
    victims = policy.select_victims(gpu, needed_bytes=512, now=10.0)
    assert [v.index for v in victims] == [3]


def test_no_hints_keeps_the_pre_hint_victim_order():
    from repro.policies.eviction import ProtectedLRUEvictionPolicy

    um, gpu, admit = _eviction_stack()
    blocks = [admit(i, now=float(i)) for i in range(4)]
    policy = ProtectedLRUEvictionPolicy(
        _NoProtection(), prefer_invalidated=True, protect_predicted=True)
    victims = policy.select_victims(
        gpu, needed_bytes=blocks[0].populated_bytes + 1, now=10.0)
    assert [v.index for v in victims] == [0, 1]


def _preevict_stack(capacity_blocks=4):
    from repro.config import FaultCosts, LinkSpec
    from repro.constants import UM_BLOCK_SIZE
    from repro.core.block_table import BlockTableConfig
    from repro.core.correlator import Correlator
    from repro.core.preevict import PreEvictor
    from repro.core.prefetcher import ChainingPrefetcher
    from repro.sim.fault_handler import DriverFaultHandler
    from repro.sim.gpu import GPUMemory
    from repro.sim.interconnect import PCIeLink
    from repro.sim.um_space import BlockLocation, UnifiedMemorySpace

    um = UnifiedMemorySpace()
    gpu = GPUMemory(capacity_bytes=capacity_blocks * UM_BLOCK_SIZE)
    link = PCIeLink(bandwidth=LinkSpec().bandwidth,
                    latency=LinkSpec().latency)
    handler = DriverFaultHandler(um=um, gpu=gpu, link=link,
                                 costs=FaultCosts())
    cor = Correlator(BlockTableConfig(num_rows=16, assoc=2, num_succs=4))
    pf = ChainingPrefetcher(cor, degree=2)
    pe = PreEvictor(gpu, handler, pf, low_watermark=0.3, batch_blocks=2)

    def admit(idx, now):
        blk = um.block(idx)
        blk.populate(512)
        blk.location = BlockLocation.CPU
        gpu.admit(blk, now)
        return blk

    return um, gpu, pe, admit


def test_preevictor_skips_sticky_and_cpu_preferred_blocks():
    um, gpu, pe, admit = _preevict_stack()
    blocks = [admit(i, now=float(i)) for i in range(4)]
    blocks[0].advice |= int(MemAdvise.READ_MOSTLY)
    blocks[1].advice |= int(MemAdvise.PREFERRED_LOCATION_CPU)
    assert pe.tick(1.0)
    # Skips both advised blocks (one sticky, one host-preferred): the
    # batch comes from the unadvised tail instead.
    assert gpu.is_resident(blocks[0]) and gpu.is_resident(blocks[1])
    assert not gpu.is_resident(blocks[2])
    assert not gpu.is_resident(blocks[3])
    assert pe.stats.hint_skips >= 1


def test_preevictor_still_drops_invalidated_advised_blocks():
    um, gpu, pe, admit = _preevict_stack()
    blocks = [admit(i, now=float(i)) for i in range(4)]
    blocks[0].advice |= int(MemAdvise.READ_MOSTLY)
    gpu.set_invalidated(blocks[0])
    assert pe.tick(1.0)
    assert not gpu.is_resident(blocks[0])  # dead data outranks any hint


def test_manager_advise_reaches_policy_and_recorder():
    from repro.harness.experiment import build_policy
    from repro.obs import SpanRecorder, attach

    facade = build_policy("deepum", SystemConfig())
    recorder = SpanRecorder()
    attach(facade, recorder)
    tensor = facade.device.empty((256, 1024))
    prefetcher = facade.manager.runtime.driver.policy.prefetcher
    before = prefetcher.commands_emitted
    blocks = facade.advise(tensor, int(ADVISE_STICKY))
    assert blocks
    assert all(b.advice & ADVISE_STICKY for b in blocks)
    assert prefetcher.commands_emitted == before + len(blocks)
    labels = recorder.decisions.advised_blocks
    assert labels.get(advice_labels(int(ADVISE_STICKY))) == len(blocks)
    assert recorder.decisions.commands_by_source.get("hint") == len(blocks)


def test_cpu_advice_does_not_seed_the_prefetcher():
    from repro.harness.experiment import build_policy

    facade = build_policy("deepum", SystemConfig())
    tensor = facade.device.empty((256, 1024))
    prefetcher = facade.manager.runtime.driver.policy.prefetcher
    before = prefetcher.commands_emitted
    facade.advise(tensor, int(MemAdvise.PREFERRED_LOCATION_CPU))
    assert prefetcher.commands_emitted == before


# ------------------------------------------------------- the serve loop

def test_serve_dlrm_is_deterministic():
    first = execute(serve_request())
    second = execute(serve_request())
    assert first.ok and second.ok
    assert first.snapshot == second.snapshot
    lat = first.snapshot["latency_ms"]
    assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
    assert first.snapshot["requests"] == TINY_SERVE["requests"]
    assert first.snapshot["hinted_blocks"] > 0


def test_serve_without_hints_advises_nothing():
    spec = ServeSpec(scenario="dlrm", requests=2, hints=False)
    result = execute(serve_request(spec=spec))
    assert result.ok
    assert result.snapshot["hints"] is False
    assert result.snapshot["hinted_blocks"] == 0


def test_gpt2_decode_kv_cache_overflows_the_gpu():
    spec = ServeSpec(scenario="gpt2-decode", requests=4, decode_tokens=4)
    result = execute(serve_request(spec=spec, model="gpt2-l"))
    assert result.ok
    snap = result.snapshot
    assert snap["peak_populated_bytes"] > snap["gpu_memory_bytes"]
    assert snap["kv_bytes"] > 0 and snap["kv_chunks"] > 0
    # warmup (1) + measured (4) requests, each decoding 4 tokens
    assert snap["tokens_decoded"] == 5 * 4
    assert snap["page_faults"] > 0


def test_auto_rate_requires_a_warmup_window():
    with pytest.raises(ValueError, match="warmup_iterations"):
        execute(serve_request(warmup_iterations=0))


def test_serving_rejects_non_um_policies():
    with pytest.raises(TypeError, match="UM-family"):
        execute(serve_request(policy="vdnn"))


def test_serve_task_round_trips_through_the_executor():
    from repro.exec import execute_task, experiment_task

    task = experiment_task(serve_request())
    assert task.kind == KIND_SERVE
    assert task.key == "serve-dlrm@160000/deepum"
    assert task.payload["kind"] == "serve"
    doc = execute_task(task.kind, task.payload)
    assert doc["status"] == "ok"
    assert doc["snapshot"]["latency_ms"]["p99"] > 0
    # The worker-side result must equal the in-process one bit-for-bit.
    assert doc["snapshot"] == execute(serve_request()).snapshot


def test_task_kind_follows_the_request_kind():
    from repro.exec import experiment_task

    task = experiment_task(RunRequest(model="mobilenet"))
    assert task.kind == KIND_EXPERIMENT and "kind" not in task.payload
    assert experiment_task(serve_request()).kind == KIND_SERVE


def test_serve_payload_canonicalizes_stably():
    a = serve_request().canonical_payload()
    b = serve_request().canonical_payload()
    assert a == b
    assert a["system"] is not None  # calibration pinned the machine
