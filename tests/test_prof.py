"""The subsystem wall profiler: attribution, seams, and neutrality.

Two load-bearing invariants. First, the exclusive accounting: enter/exit
charges time to the subsystem on top of the stack, so nested seams never
double-count and the per-subsystem exclusive times sum *exactly* to the
profiled window (checked here with a fake clock, and by
``validate_profile`` on real runs). Second, neutrality: installing the
profiler must not change any simulated metric bit-for-bit —
``profile_request`` runs every cell twice and raises otherwise.
"""

import json

import pytest

from repro.api import RunRequest, execute
from repro.bench.manifest import Scenario
from repro.core.block_table import BlockCorrelationTable
from repro.harness.experiment import build_policy, calibrate_system
from repro.obs.prof import (
    PROFILE_SCHEMA_VERSION,
    SUB_OTHER,
    ProfileError,
    WallProfiler,
    format_profile,
    profile_request,
    profile_scenario,
    speedscope_document,
    validate_profile,
    validate_speedscope,
)
from repro.serve import ServeSpec

SYSTEM = calibrate_system("mobilenet")

#: One tiny scenario profiled once per module: two UM cells plus one
#: tensor-swap policy that must land in ``skipped``, not ``cells``.
TINY_SCENARIO = Scenario(
    name="prof-tiny",
    model="mobilenet",
    paper_batch=3072,
    policies=("um", "deepum", "lms"),
    warmup_iterations=1,
    measure_iterations=1,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ------------------------------------------------------- attribution core

def test_exclusive_attribution_with_nesting():
    clock = FakeClock()
    prof = WallProfiler(clock=clock)
    prof.start()
    clock.advance(1.0)          # unattributed -> other
    prof.enter("fault-handler")
    clock.advance(2.0)          # fault-handler exclusive
    prof.enter("interconnect")  # nested seam
    clock.advance(3.0)          # interconnect exclusive, NOT fault-handler
    prof.exit()
    clock.advance(1.5)          # back in fault-handler
    prof.exit()
    clock.advance(0.5)          # tail -> other
    prof.stop()

    assert prof.exclusive == {
        "other": 1.5,
        "fault-handler": 3.5,
        "interconnect": 3.0,
    }
    assert prof.calls == {"fault-handler": 1, "interconnect": 1}
    assert sum(prof.exclusive.values()) == prof.window_seconds == 8.0


def test_enter_exit_are_noops_outside_the_window():
    clock = FakeClock()
    prof = WallProfiler(clock=clock)
    prof.enter("tables")  # before start: ignored
    prof.exit()
    prof.start()
    clock.advance(1.0)
    prof.stop()
    prof.enter("tables")  # after stop: ignored
    clock.advance(5.0)
    assert prof.exclusive == {SUB_OTHER: 1.0}
    assert prof.calls == {}
    assert prof.window_seconds == 1.0


def test_stop_clears_an_unwound_stack():
    # An exception that unwinds past wrapped frames can leave entries on
    # the stack; stop() must still close the window and charge the top.
    clock = FakeClock()
    prof = WallProfiler(clock=clock)
    prof.start()
    prof.enter("migration")
    clock.advance(2.0)
    prof.stop()
    assert prof.exclusive["migration"] == 2.0
    assert sum(prof.exclusive.values()) == prof.window_seconds


def test_window_lifecycle_errors():
    prof = WallProfiler(clock=FakeClock())
    with pytest.raises(ProfileError):
        prof.window_seconds
    with pytest.raises(ProfileError):
        prof.stop()
    prof.start()
    with pytest.raises(ProfileError):
        prof.start()


def test_breakdown_reports_exclusive_seconds_and_calls():
    clock = FakeClock()
    prof = WallProfiler(clock=clock)
    prof.start()
    prof.enter("allocator")
    clock.advance(1.0)
    prof.exit()
    prof.enter("allocator")
    clock.advance(2.0)
    prof.exit()
    prof.stop()
    assert prof.breakdown()["allocator"] == {
        "exclusive_seconds": 3.0, "calls": 2}


# ------------------------------------------------------ seam installation

def test_install_wraps_and_uninstall_restores_exactly():
    facade = build_policy("deepum", SYSTEM)
    engine = facade.engine
    link = engine.link
    original_execute = engine.execute_kernel
    original_occupy = type(link).__dict__["occupy"]
    original_record = BlockCorrelationTable.__dict__["record_successor"]

    prof = WallProfiler()
    count = prof.install(facade)
    assert count > 0
    # Instance seam: shadowed through the instance dict, class untouched.
    assert "execute_kernel" in vars(engine)
    assert engine.execute_kernel.__wrapped__ == original_execute
    # Slotted object (PCIe link dataclass): wrapped at class level.
    assert type(link).__dict__["occupy"].__wrapped__ is original_occupy
    # Lazily-created correlation tables: wrapped at class level too.
    wrapped_record = BlockCorrelationTable.__dict__["record_successor"]
    assert wrapped_record.__wrapped__ is original_record

    with pytest.raises(ProfileError):
        prof.install(facade)  # double install would lose originals

    prof.uninstall()
    assert "execute_kernel" not in vars(engine)
    assert engine.execute_kernel == original_execute
    assert type(link).__dict__["occupy"] is original_occupy
    assert BlockCorrelationTable.__dict__["record_successor"] \
        is original_record
    prof.uninstall()  # idempotent: safe inside finally blocks


def test_install_rejects_tensor_swap_facades():
    facade = build_policy("lms", SYSTEM)
    with pytest.raises(TypeError):
        WallProfiler().install(facade)


# ------------------------------------------------- profiled runs (shared)

@pytest.fixture(scope="module")
def tiny_profile():
    return profile_scenario(TINY_SCENARIO)


def test_profile_scenario_shape_and_validation(tiny_profile):
    assert tiny_profile["profile_schema_version"] == PROFILE_SCHEMA_VERSION
    assert tiny_profile["scenario"] == "prof-tiny"
    assert set(tiny_profile["cells"]) == {
        "mobilenet@3072/um", "mobilenet@3072/deepum"}
    assert validate_profile(tiny_profile) is tiny_profile


def test_profile_cells_are_neutral_and_sum_to_total(tiny_profile):
    for name, cell in tiny_profile["cells"].items():
        assert cell["neutral"] is True, name
        summed = sum(sub["exclusive_seconds"]
                     for sub in cell["subsystems"].values())
        assert summed == pytest.approx(cell["total_seconds"], abs=1e-6)
        # The profiled pass actually exercised the seams.
        assert any(sub["calls"] > 0 for sub in cell["subsystems"].values())


def test_tensor_swap_policies_are_skipped_not_failed(tiny_profile):
    skipped = tiny_profile["skipped"]
    assert "mobilenet@3072/lms" in skipped
    assert "tensor-swap" in skipped["mobilenet@3072/lms"]


def test_speedscope_export_is_valid(tiny_profile):
    flame = speedscope_document(tiny_profile)
    assert validate_speedscope(flame) is flame
    assert len(flame["profiles"]) == len(tiny_profile["cells"])
    # Round-trips through JSON (what `repro profile --speedscope` writes).
    assert validate_speedscope(json.loads(json.dumps(flame)))


def test_format_profile_ranks_subsystems(tiny_profile):
    text = format_profile(tiny_profile)
    assert "mobilenet@3072/deepum" in text
    assert "subsystem" in text
    assert "skipped" in text


def test_profile_request_neutrality_contract():
    request = RunRequest(
        model="mobilenet", policy="deepum", batch=64, scale=0.5,
        warmup_iterations=1, measure_iterations=1, seed=0, system=SYSTEM)
    doc = profile_request(request)
    assert doc["neutral"] is True
    assert doc["cell"] == "mobilenet@64/deepum"
    assert doc["total_seconds"] > 0
    assert doc["reference_seconds"] > 0
    assert set(doc["sim"])  # the snapshot rides along for the record


def test_profile_request_profiles_the_serve_cell_it_is_given():
    request = RunRequest(
        model="dlrm", policy="deepum", warmup_iterations=1, kind="serve",
        serve=ServeSpec(scenario="dlrm", requests=4, rate=50.0, slo_ms=20.0))
    doc = profile_request(request)
    assert doc["sim"] == execute(request).snapshot
    assert doc["sim"]["kind"] == "serve"
    assert doc["subsystems"]["engine-loop"]["calls"] > 0


def test_profile_request_refuses_an_oom_cell():
    request = RunRequest(model="mobilenet", policy="um", batch=50_000,
                         warmup_iterations=1, measure_iterations=1)
    with pytest.raises(ProfileError, match="nothing to profile"):
        profile_request(request)


def test_profile_request_sampling_captures_repro_stacks():
    request = RunRequest(
        model="mobilenet", policy="um", batch=64, scale=0.5,
        warmup_iterations=1, measure_iterations=1, seed=0, system=SYSTEM)
    doc = profile_request(request, sample=True, sample_interval=0.001)
    samples = doc["samples"]
    assert samples["interval_seconds"] == 0.001
    if samples["samples"]:  # tiny cells may finish between ticks
        top = samples["stacks"][0]
        assert top["count"] >= 1
        assert all(frame.startswith("repro") for frame in top["frames"])


def test_profile_scenario_rejects_unknown_names():
    with pytest.raises(KeyError):
        profile_scenario("no-such-scenario")


# ------------------------------------------------------ validators reject

def _corrupt(doc, mutate):
    clone = json.loads(json.dumps(doc))
    mutate(clone)
    return clone


def test_validate_profile_rejects_bad_documents(tiny_profile):
    cell = next(iter(tiny_profile["cells"]))

    def break_total(doc):
        doc["cells"][cell]["total_seconds"] += 1.0  # sums no longer match

    def break_neutral(doc):
        doc["cells"][cell]["neutral"] = False

    def break_version(doc):
        doc["profile_schema_version"] = 99

    for mutate in (break_total, break_neutral, break_version):
        with pytest.raises(ValueError):
            validate_profile(_corrupt(tiny_profile, mutate))
    with pytest.raises(ValueError):
        validate_profile("not a dict")


def test_validate_speedscope_rejects_bad_documents(tiny_profile):
    flame = speedscope_document(tiny_profile)

    def break_weights(doc):
        doc["profiles"][0]["weights"].append(1.0)  # samples/weights differ

    def break_frame_index(doc):
        doc["profiles"][0]["samples"][0] = [len(doc["shared"]["frames"])]

    for mutate in (break_weights, break_frame_index):
        with pytest.raises(ValueError):
            validate_speedscope(_corrupt(flame, mutate))
