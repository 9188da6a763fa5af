"""The content-addressed result cache: keys, store, verify, CLI."""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunRequest
from repro.cli import main
from repro.exec import (
    CACHEABLE_STATUSES,
    KIND_BENCH_CELL,
    KIND_EXPERIMENT,
    KIND_SERVE,
    CacheKey,
    Executor,
    ExecutorConfig,
    ResultCache,
    RunJournal,
    cache_key,
    experiment_task,
)
from repro.exec.cache import (
    VOLATILE_RESULT_KEYS,
    deterministic_view,
    disk_stats,
    gc,
    verify,
)


def _shuffle_dict(doc, rng):
    """The same mapping with every dict's insertion order permuted."""
    if isinstance(doc, dict):
        items = [(k, _shuffle_dict(v, rng)) for k, v in doc.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(doc, list):
        return [_shuffle_dict(v, rng) for v in doc]
    return doc


# --------------------------------------------------------------------- #
# key derivation
# --------------------------------------------------------------------- #

def test_experiment_and_serve_cache_keys_are_pinned():
    """Exact digests, not just equalities: an experiment or serve cell's
    key payload must not move when task plumbing changes (recorded before
    every executor task carried a canonical request)."""
    from repro.config import DeepUMConfig, GPUSpec, HostSpec, SystemConfig
    from repro.constants import GiB, MiB
    from repro.serve import ServeSpec

    system = SystemConfig(gpu=GPUSpec(memory_bytes=256 * MiB),
                          host=HostSpec(memory_bytes=8 * GiB))
    experiment = RunRequest(
        "mobilenet", policy="deepum", batch=64, scale=0.5,
        warmup_iterations=2, measure_iterations=1, seed=3,
        deepum_config=DeepUMConfig(prefetch_degree=8), system=system)
    serve = RunRequest(
        "dlrm", policy="deepum", batch=160000, scale=0.25,
        warmup_iterations=2, seed=1, system=system, kind="serve",
        serve=ServeSpec(scenario="dlrm", requests=8, rate=50.0, slo_ms=20.0))
    assert experiment_task(experiment).payload \
        == experiment.canonical_payload()
    assert cache_key(KIND_EXPERIMENT, experiment.canonical_payload(),
                     fingerprint="f").digest == (
        "5683fea1237afaae11df5cd5c076cf6497b6368ae1dd9d65394d6e5ce85a5433")
    assert experiment_task(serve).payload == serve.canonical_payload()
    assert cache_key(KIND_SERVE, serve.canonical_payload(),
                     fingerprint="f").digest == (
        "5eb5eccc2b851f4fa7389a51cdf231a81b32460c29f23fe972c81da1c532b1f9")


PAYLOAD = RunRequest(
    "mobilenet", policy="deepum", batch=64,
    warmup_iterations=1, measure_iterations=1,
).canonical_payload()


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_key_invariant_under_dict_ordering(rng):
    base = cache_key(KIND_EXPERIMENT, PAYLOAD, fingerprint="f")
    shuffled = cache_key(KIND_EXPERIMENT, _shuffle_dict(dict(PAYLOAD), rng),
                         fingerprint="f")
    assert shuffled.digest == base.digest


def test_key_invariant_under_request_round_trip():
    request = RunRequest("mobilenet", policy="deepum", batch=64,
                         warmup_iterations=1, measure_iterations=1)
    round_tripped = RunRequest.from_dict(
        json.loads(json.dumps(request.canonical_payload())))
    assert (cache_key(KIND_EXPERIMENT,
                      round_tripped.canonical_payload()).digest
            == cache_key(KIND_EXPERIMENT,
                         request.canonical_payload()).digest)


@pytest.mark.parametrize("mutate", [
    {"policy": "um"},
    {"batch": 65},
    {"seed": 1},
    {"warmup_iterations": 2},
    {"measure_iterations": 2},
], ids=lambda m: next(iter(m)))
def test_key_changes_when_sim_relevant_field_changes(mutate):
    changed = dict(PAYLOAD, **mutate)
    assert (cache_key(KIND_EXPERIMENT, changed).digest
            != cache_key(KIND_EXPERIMENT, PAYLOAD).digest)


def test_key_changes_with_kind_fingerprint_and_deepum_params():
    base = cache_key(KIND_EXPERIMENT, PAYLOAD, fingerprint="f")
    assert cache_key(KIND_BENCH_CELL, PAYLOAD,
                     fingerprint="f").digest != base.digest
    assert cache_key(KIND_EXPERIMENT, PAYLOAD,
                     fingerprint="g").digest != base.digest
    degree = RunRequest(
        "mobilenet", policy="deepum", batch=64, warmup_iterations=1,
        measure_iterations=1,
    )
    from repro.config import DeepUMConfig

    with_cfg = RunRequest(
        "mobilenet", policy="deepum", batch=64, warmup_iterations=1,
        measure_iterations=1, deepum_config=DeepUMConfig(prefetch_degree=32),
    )
    assert (cache_key(KIND_EXPERIMENT, degree.canonical_payload()).digest
            != cache_key(KIND_EXPERIMENT, with_cfg.canonical_payload()).digest)


def test_deterministic_view_strips_volatile_keys_recursively():
    doc = {"status": "ok",
           "cell": {"wall_seconds": 1.0, "wall_seconds_all": [1.0],
                    "sim": {"elapsed": 2.0}},
           "attempts": 3, "cached": True,
           "list": [{"peak_rss_bytes": 9, "keep": 1}]}
    view = deterministic_view(doc)
    assert view == {"status": "ok", "cell": {"sim": {"elapsed": 2.0}},
                    "list": [{"keep": 1}]}
    flat = json.dumps(view)
    assert not any(key in flat for key in VOLATILE_RESULT_KEYS)


# --------------------------------------------------------------------- #
# store semantics
# --------------------------------------------------------------------- #

def _tiny_key(tag: str = "x") -> CacheKey:
    return cache_key(KIND_EXPERIMENT, {"cell": tag}, fingerprint="f")


def test_put_get_round_trip_and_counters(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    key = _tiny_key()
    assert cache.get(key) is None
    assert cache.put(key, {"status": "ok", "value": 7, "cached": True})
    hit = cache.get(key)
    # The transient "cached" marker is never persisted.
    assert hit == {"status": "ok", "value": 7}
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
    assert cache.hit_rate == 0.5
    assert "hits=1 misses=1 stores=1" in cache.summary_line()


@pytest.mark.parametrize("status", ["failed", "timeout", None])
def test_only_deterministic_statuses_are_stored(tmp_path, status):
    cache = ResultCache(str(tmp_path / "c"))
    doc = {"status": status} if status else {}
    assert not cache.put(_tiny_key(), doc)
    assert cache.stores == 0
    assert status not in CACHEABLE_STATUSES


def test_tampered_key_section_reads_as_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "c"))
    key = _tiny_key()
    cache.put(key, {"status": "ok"})
    (path,) = list((tmp_path / "c" / "objects").rglob("*.json"))
    entry = json.loads(path.read_text())
    entry["key"]["payload"]["cell"] = "other"  # simulated digest collision
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None
    path.write_text("not json at all")
    assert cache.get(key) is None


def test_unwritable_cache_degrades_to_noop(tmp_path):
    """A cache that cannot be written to must never abort the sweep."""
    root = tmp_path / "c"
    cache = ResultCache(str(root))
    key = _tiny_key()
    # Block the shard directory with a plain file: makedirs/open raise
    # OSError, which put() must swallow (chmod is no barrier under root).
    (root / "objects").mkdir(parents=True)
    (root / "objects" / key.digest[:2]).write_text("in the way")
    assert cache.put(key, {"status": "ok"}) is False
    assert cache.stores == 0


# --------------------------------------------------------------------- #
# verify: integrity scan and poisoned-cache detection
# --------------------------------------------------------------------- #

def _warm_bench_cache(tmp_path):
    """One real smoke-bench population; returns (cache_dir, entry paths)."""
    cache_dir = str(tmp_path / "cache")
    assert main(["bench", "run", "--scenario", "smoke", "--repeats", "1",
                 "--warmup-runs", "0", "--cache-dir", cache_dir,
                 "--runs-dir", str(tmp_path / "serial-runs"),
                 "--out", str(tmp_path / "BENCH.json")]) == 0
    paths = sorted((tmp_path / "cache" / "objects").rglob("*.json"))
    assert paths
    return cache_dir, paths


def test_verify_detects_integrity_corruption(tmp_path, capsys):
    cache_dir, paths = _warm_bench_cache(tmp_path)
    entry = json.loads(paths[0].read_text())
    entry["result"]["cell"]["sim"]["elapsed"] += 1.0  # flip a byte, keep sha
    paths[0].write_text(json.dumps(entry))
    report = verify(cache_dir, sample=0)
    assert not report["ok"]
    assert any("integrity hash" in bad["problem"]
               for bad in report["corrupt"])
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", cache_dir,
                 "--sample", "0"]) == 1
    assert "corrupt" in capsys.readouterr().out


def test_verify_detects_sha_consistent_poisoning(tmp_path, capsys):
    """A poisoned entry whose integrity hash was *recomputed* is only
    caught by the sampled re-execution — the point of ``cache verify``."""
    cache_dir, paths = _warm_bench_cache(tmp_path)
    for path in paths:  # poison all entries so any sample catches one
        entry = json.loads(path.read_text())
        entry["result"]["cell"]["sim"]["elapsed"] += 1.0
        canon = json.dumps(entry["result"], sort_keys=True,
                           separators=(",", ":"))
        entry["result_sha256"] = hashlib.sha256(canon.encode()).hexdigest()
        path.write_text(json.dumps(entry))
    scan_only = verify(cache_dir, sample=0)
    assert scan_only["ok"], "sha-consistent poison must pass the pure scan"
    report = verify(cache_dir, sample=1, seed=0)
    assert not report["ok"]
    assert report["mismatches"] and not report["corrupt"]
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", cache_dir,
                 "--sample", "1"]) == 1
    out = capsys.readouterr().out
    assert "POISONED" in out and "cache gc --all" in out


def test_verify_passes_on_honest_cache(tmp_path, capsys):
    cache_dir, _ = _warm_bench_cache(tmp_path)
    capsys.readouterr()
    assert main(["cache", "verify", "--cache-dir", cache_dir,
                 "--sample", "1"]) == 0
    assert "1 bit-for-bit identical" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# stats / gc
# --------------------------------------------------------------------- #

def test_stats_and_gc_classify_current_stale_corrupt(tmp_path, capsys):
    root = str(tmp_path / "c")
    cache = ResultCache(root)
    cache.put(cache.key(KIND_EXPERIMENT, {"cell": "a"}), {"status": "ok"})
    stale_key = cache_key(KIND_EXPERIMENT, {"cell": "b"},
                          fingerprint="0" * 16)
    cache.put(stale_key, {"status": "ok"})
    shard = tmp_path / "c" / "objects" / "zz"
    shard.mkdir(parents=True)
    (shard / ("f" * 64 + ".json")).write_text("garbage")
    stats = disk_stats(root)
    assert (stats["entries"], stats["current"], stats["stale"],
            stats["corrupt"]) == (3, 1, 1, 1)
    assert stats["by_kind"] == {KIND_EXPERIMENT: 2}
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", root]) == 0
    assert "1 current, 1 stale, 1 corrupt" in capsys.readouterr().out
    # Default gc removes only dead entries; --all empties the store.
    assert gc(root) == 2
    assert disk_stats(root)["entries"] == 1
    assert main(["cache", "gc", "--cache-dir", root, "--all"]) == 0
    assert disk_stats(root)["entries"] == 0


def test_cache_stats_json(tmp_path, capsys):
    assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c"),
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"] == 0 and "code_fingerprint" in doc


# --------------------------------------------------------------------- #
# executor integration
# --------------------------------------------------------------------- #

def _smoke_tasks():
    return [experiment_task(RunRequest(
        "mobilenet", policy=policy, batch=64,
        warmup_iterations=1, measure_iterations=1))
        for policy in ("um", "deepum")]


def test_executor_hits_are_bit_identical_and_fill_the_journal(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    config = ExecutorConfig(workers=2)

    def run():
        journal = RunJournal.create(_smoke_tasks(), kind="run", meta={},
                                    executor=config.to_dict(),
                                    runs_dir=str(tmp_path / "runs"))
        return journal, Executor(config, cache=cache).run_journal(journal)

    _, cold = run()
    assert (cache.hits, cache.stores) == (0, 2)
    journal, warm = run()
    assert cache.hits == 2 and cache.stores == 2
    for key in cold:
        assert warm[key]["cached"] is True and "cached" not in cold[key]
        assert deterministic_view(warm[key]) == deterministic_view(cold[key])
        # A hit fills the journal cell as if the cell had run.
        assert journal.status(key) == "ok"
        assert deterministic_view(journal.results()[key]) \
            == deterministic_view(cold[key])
    assert not journal.unfinished()


def test_executor_without_cache_never_touches_store(tmp_path):
    config = ExecutorConfig(workers=2)
    journal = RunJournal.create(_smoke_tasks(), kind="run", meta={},
                                executor=config.to_dict(),
                                runs_dir=str(tmp_path / "runs"))
    Executor(config).run_journal(journal)
    assert not (tmp_path / "cache").exists()


# --------------------------------------------------------------------- #
# CLI wiring: one cache population for serial and parallel, flags, env
# (resume over a fully-cached journal: test_cli.py::test_runs_resume_equals_live)
# --------------------------------------------------------------------- #

def test_bench_serial_and_parallel_share_one_cache_population(tmp_path,
                                                              capsys):
    cache_dir, _ = _warm_bench_cache(tmp_path)  # serial population
    capsys.readouterr()
    assert main(["bench", "run", "--scenario", "smoke", "--repeats", "1",
                 "--warmup-runs", "0", "--cache-dir", cache_dir,
                 "--workers", "2", "--runs-dir", str(tmp_path / "runs"),
                 "--out", str(tmp_path / "BENCH2.json")]) == 0
    out = capsys.readouterr().out
    assert "hits=2 misses=0" in out and "(cached)" in out
    a = json.loads((tmp_path / "BENCH.json").read_text())
    b = json.loads((tmp_path / "BENCH2.json").read_text())
    assert deterministic_view(a["cells"]) == deterministic_view(b["cells"])


def test_no_cache_flag_and_env_off_suppress_the_cache(tmp_path, capsys,
                                                      monkeypatch):
    argv = ["run", "mobilenet", "--batch", "64", "--policies", "um",
            "--warmup", "1", "--measure", "1",
            "--workers", "2", "--runs-dir", str(tmp_path / "runs")]
    cache_dir = str(tmp_path / "cache")
    assert main(argv + ["--cache-dir", cache_dir, "--no-cache"]) == 0
    assert not os.path.exists(cache_dir)
    assert "cache:" not in capsys.readouterr().out
    # REPRO_CACHE=off (set by conftest) suppresses the default cache...
    assert main(argv) == 0
    assert "cache:" not in capsys.readouterr().out
    # ...but an explicit --cache-dir forces it back on.
    assert main(argv + ["--cache-dir", cache_dir]) == 0
    assert "stores=1" in capsys.readouterr().out
    # With the env gate lifted, the default cache lands in REPRO_CACHE_DIR.
    monkeypatch.setenv("REPRO_CACHE", "on")
    default_dir = str(tmp_path / "default-cache")
    monkeypatch.setenv("REPRO_CACHE_DIR", default_dir)
    assert main(argv) == 0
    assert "dir=" + default_dir in capsys.readouterr().out
    assert os.path.isdir(default_dir)
