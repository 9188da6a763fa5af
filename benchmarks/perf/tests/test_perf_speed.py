"""A known slowdown survives the rescaling to nominal host speed.

End-to-end times are divided by the duration of a reference chunk that
runs inside the measured process (``child.SpeedSampler``). That is only
sound if a slower simulator leaves the chunk's duration alone. These tests
inject a fixed slowdown into a seam of a mobilenet ``um`` cell, once as
pure CPU work and once as long-lived allocations (which make every later
garbage collection scan a bigger heap), and check that the nominal pass
time rises with the injection while the chunk does not move.
"""

from __future__ import annotations

import statistics
import time

import pytest

import child
import results
import workloads
from repro.api import RunRequest
from repro.torchsim.module import Module

PAIRS = 9
#: Sample densely: a pass of this cell takes about 0.1-0.2 s.
INTERVAL_S = 0.01
#: Drift of the chunk's duration from one pass to the next taken as noise.
CHUNK_NOISE = 0.2


@pytest.fixture(scope="module")
def cell():
    return [RunRequest(model="mobilenet", policy="um", warmup_iterations=1,
                       measure_iterations=2).resolved()]


def spin(self):
    x = 0
    for i in range(3000):
        x += i * i
    return x


#: Objects ``hoard`` keeps alive until the end of the pass.
HEAP: list = []


def hoard(self):
    HEAP.extend({"i": i, "pair": (i, i)} for i in range(300))


def timed_passes(reqs, tmp_path, monkeypatch, extra):
    """``PAIRS`` interleaved (plain, injected) passes; the injected
    passes also report the seconds spent inside ``extra``."""
    original = Module.__call__
    spent = [0.0]

    def injected(self, *args, **kwargs):
        t0 = time.perf_counter()
        extra(self)
        spent[0] += time.perf_counter() - t0
        return original(self, *args, **kwargs)

    def one(call):
        monkeypatch.setattr(Module, "__call__", call)
        spent[0] = 0.0
        with child.SpeedSampler(INTERVAL_S) as sampler:
            run = workloads.run_pass("train-um", reqs, workdir=str(tmp_path))
        run.update(sampler.summary(), injected_s=spent[0])
        HEAP.clear()
        return run

    one(original)  # warm caches and lazy imports
    try:
        pairs = [(one(original), one(injected)) for _ in range(PAIRS)]
    finally:
        monkeypatch.setattr(Module, "__call__", original)
        HEAP.clear()
    return [p for p, _ in pairs], [q for _, q in pairs]


def paired(plain, slowed, key):
    """Median over the pairs of ``key(slowed) / key(plain)``: the two
    passes of a pair run back to back, so host drift mostly cancels."""
    return statistics.median(key(q) / key(p) for p, q in zip(plain, slowed))


@pytest.mark.parametrize("extra", [spin, hoard], ids=["cpu", "heap"])
def test_an_injected_slowdown_shows_in_nominal_pass_time(
        cell, tmp_path, monkeypatch, extra):
    plain, slowed = timed_passes(cell, tmp_path, monkeypatch, extra)
    digests = {results.sim_digest(r["cells"]) for r in plain + slowed}
    assert len(digests) == 1  # the injection is host time only
    chunk = paired(plain, slowed, lambda r: r["chunk_s"])
    assert abs(chunk - 1.0) < CHUNK_NOISE, chunk
    injected_share = statistics.median(
        q["injected_s"] / p["wall_s"] for p, q in zip(plain, slowed))
    rise = paired(plain, slowed, results.nominal_s) - 1.0
    # The injection's own time is a lower bound on what it costs (the heap
    # one also pays later collections), so the rise is at least most of it.
    assert injected_share > 0.2, injected_share
    assert rise > 0.6 * injected_share, (rise, injected_share)
