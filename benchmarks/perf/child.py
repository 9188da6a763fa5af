"""One measuring process of the benchmark: set up a workload, run it, report.

``run.py`` starts this script once per workload (and a few more times in
``setup`` mode, for set-up samples), so every workload starts from a fresh
interpreter. The last line of standard output is one JSON document.

Modes:

* ``setup`` — import the simulator and resolve every cell (calibration);
  report how long that took.
* ``run`` — set up, then run timed passes: at least three, and more while
  another one fits within ``--seconds``.
* ``trace`` — set up, run one untimed reference pass (per-request and
  executor timers only) and one traced pass, and write the traced pass's
  spans as a Chrome trace.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import mmap
import os
import resource
import signal
import statistics
import time
from typing import Any

T0 = time.perf_counter()  # set-up time counts the simulator's import

MIN_PASSES = 3
MAX_PASSES = 20
#: Set-up takes 0.3-1.5 s, so it is sampled more densely than a pass.
SETUP_SAMPLE_INTERVAL = 0.02


def reference_chunk(rounds: int = 2000) -> int:
    """A fixed pure-Python work unit (dict, heap and tuple traffic).

    It uses nothing from the simulator, so its duration measures how fast
    this host runs Python right now, whatever the code under test does.
    """
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(rounds):
        key = (i * 2654435761) % 1021
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return acc


def time_reference_chunk() -> float:
    """Seconds one :func:`reference_chunk` takes, with the collector off.

    The chunk must not pay for the code under test's garbage. It keeps
    almost nothing alive, so it seldom triggers a collection; with the
    collector off it never does, and a collection over a bigger simulator
    heap cannot read as a slower host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_chunk()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Samples host speed throughout a pass: an interval timer runs one
    :func:`reference_chunk` every ``interval`` seconds.

    Shared hosts drift by 10-40% over minutes. Rescaling a pass's time by
    the chunk duration measured during that same pass
    (``results.nominal_s``) cancels most of the drift, because both slow
    down together. Samples go to shared
    memory, and executor workers forked while the sampler is open sample
    into it too. With ``here=False`` only those workers sample: a process
    that only waits on workers then runs no chunk of its own, which would
    measure an idle core and widen the window in which the executor reads
    a worker that just exited as crashed.
    """

    CAPACITY = 1 << 15

    def __init__(self, interval: float = 0.05, *, here: bool = True):
        self.interval = interval
        self.here = here
        self.samples: list[float] = []
        self._memory = mmap.mmap(-1, 8 * (self.CAPACITY + 1))
        self._slots = memoryview(self._memory).cast("d")  # count, samples
        self._open = False
        self._busy = False
        self._previous: Any = None
        os.register_at_fork(after_in_child=self._resume_in_child)

    def _sample(self, signum: int, frame: Any) -> None:
        if self._busy:  # a chunk stalled past the next tick
            return
        self._busy = True
        took = time_reference_chunk()
        # One writer at a time: workers=1, and the measuring process does
        # not sample while workers run. A worker still exiting when the next
        # one starts can at worst overwrite one sample.
        count = int(self._slots[0])
        if count < self.CAPACITY:
            self._slots[1 + count] = took
            self._slots[0] = count + 1
        self._busy = False

    def _start_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def _resume_in_child(self) -> None:
        if self._open:  # interval timers do not survive a fork
            self._start_timer()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._open = True
        if self.here:
            self._start_timer()
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._open = False
        self.samples = list(self._slots[1:1 + int(self._slots[0])])
        self._slots.release()
        self._memory.close()
        if not self.samples:  # a window shorter than one tick
            self.samples.append(time_reference_chunk())

    def summary(self) -> dict[str, float]:
        """The sample count and the chunk duration, averaged over the
        window. On the shared 2-vCPU VM the bounds were set on, chunks take
        either about 1.45 ms or about 2.5 ms, in a mix that changes from
        pass to pass, and a pass pays for the slow mode in proportion to
        its share of the window. Only the extreme 5% at each end are
        dropped, so that a rare long stall inside one chunk does not stand
        for a whole tick.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 20
        kept = ordered[cut:len(ordered) - cut] or ordered
        return {"samples": len(ordered), "chunk_s": statistics.mean(kept)}


def peak_rss_mb() -> float:
    """High-water RSS of this process and its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def fig9_rows(reqs: list[Any], cells: dict[str, Any]) -> list[dict[str, Any]]:
    """Simulated s/100 iterations beside the paper's Fig. 9(b) value."""
    from repro.harness.paperdata import FIG9B_ELAPSED

    rows = []
    for req in reqs:
        snap = cells[req.cell_key]["snapshot"]
        paper = FIG9B_ELAPSED.get((req.model, req.batch), {}).get(req.policy)
        if snap is None or paper is None:
            continue
        rows.append({
            "cell": req.cell_key,
            "sim_s_per_100": 100.0 * snap["elapsed"] / snap["iterations"],
            "paper_s_per_100": float(paper),
        })
    return rows


def measure(mode: str, workload: str, reqs: list[Any], *, seconds: float,
            workdir: str) -> dict[str, Any]:
    """Run the passes of ``mode`` over resolved ``reqs``; the document body."""
    import workloads

    doc: dict[str, Any] = {
        "cells": len(reqs),
        "iterations_per_pass": sum(workloads.iterations(r) for r in reqs),
        "requests_per_pass": sum(r.serve.requests for r in reqs
                                 if r.serve is not None),
        "warmup_requests": {r.cell_key: r.warmup_iterations for r in reqs
                            if r.serve is not None},
    }
    if mode == "run":
        passes: list[dict[str, Any]] = []
        start = time.perf_counter()
        while len(passes) < MAX_PASSES:
            here = not workloads.forks_workers(workload)
            with SpeedSampler(here=here) as sampler:
                result = workloads.run_pass(workload, reqs, workdir=workdir)
            result.update(sampler.summary())
            passes.append(result)
            typical = statistics.median(p["wall_s"] for p in passes)
            if (len(passes) >= MIN_PASSES
                    and time.perf_counter() - start + typical > seconds):
                break
        doc["passes"] = passes
    else:
        import spans
        from repro.obs import validate_chrome_trace

        timers = spans.Tracer(spans.LIGHT_SEAMS)
        reference = workloads.run_pass(workload, reqs, workdir=workdir,
                                       timers=timers)
        tracer = spans.Tracer(spans.FULL_SEAMS)
        with tracer:
            traced = workloads.run_pass(workload, reqs, workdir=workdir,
                                        tracer=tracer)
        chrome = tracer.chrome_trace()
        try:
            validate_chrome_trace(chrome)
            valid = True
        except ValueError:
            valid = False
        path = os.path.join(workdir, f"{workload}.trace.json")
        with open(path, "w") as fh:
            json.dump(chrome, fh)
        doc["passes"] = [reference, traced]
        doc["trace"] = {
            "window_s": tracer.window_seconds,
            "self_s": tracer.by_layer(tracer.exclusive),
            "calls": tracer.by_layer(tracer.calls),
            "reference_durations": dict(timers.durations),
            "missing_seams": tracer.missing + timers.missing,
            "chrome_trace": path,
            "chrome_trace_valid": valid,
            "spans_kept": len(tracer.spans),
        }
    doc["peak_rss_mb"] = peak_rss_mb()
    if workload.startswith("train-"):
        doc["fig9"] = fig9_rows(reqs, doc["passes"][0]["cells"])
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    with SpeedSampler(SETUP_SAMPLE_INTERVAL) as sampler:
        import workloads

        reqs = workloads.requests(args.workload, args.seed)
        t_import = time.perf_counter()
        reqs = [req.resolved() for req in reqs]
        t_setup = time.perf_counter()
    doc: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup": {"wall_s": t_setup - T0, **sampler.summary()},
        "calibrate_s": t_setup - t_import,
    }
    if args.mode != "setup":
        doc.update(measure(args.mode, args.workload, reqs,
                           seconds=args.seconds, workdir=args.workdir))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
