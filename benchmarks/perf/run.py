"""Host-time benchmark of the simulator: one command prints every metric.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload W ...] [--seed S]
        [--seconds N] [--trace [0|1]] [--out F.json]
    python3 benchmarks/perf/run.py --record-expected [--workload W ...]

Each workload runs in its own fresh child process (``child.py``), one after
another; four more fresh processes only set up, for set-up samples. Every
metric prints as ``<workload> <metric> <value> <unit>``; lines starting
with ``#`` are context. Every cell's simulated output is checked against
the pins in ``expected/``. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 1``
the metrics are the per-layer ones of ``BENCHMARK.json``, otherwise the
end-to-end ones. The exit code is 1 when any cell's output is wrong.

``--record-expected`` regenerates ``expected/<workload>.json`` from a
traced run at seed 0 and one at seed 1 (which marks the cells whose output
does not depend on the seed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

import results

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-pass journals and result caches
#: (removed after each pass) and the latest Chrome trace per workload.
WORKDIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected"

#: Fresh processes that only set up, besides the measuring one.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A measuring process failed or could not start."""


def load_benchmark() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_expected(workload: str) -> Optional[dict[str, Any]]:
    path = EXPECTED / f"{workload}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def child(mode: str, workload: str, seed: int, seconds: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; returns its JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    argv = [sys.executable, str(HERE / "child.py"), mode,
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--workdir", str(WORKDIR)]
    # A session of its own, so a timeout also stops the executor's workers.
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} {workload}: no result within "
                         f"{CHILD_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload}: child exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """One workload's child document and its set-up samples."""
    if trace:
        doc = child("trace", workload, seed, seconds)
        return doc, [doc["setup"]]
    samples = [child("setup", workload, seed, seconds)["setup"]
               for _ in range(SETUP_PROBES)]
    doc = child("run", workload, seed, seconds)
    return doc, samples + [doc["setup"]]


def record_expected(workload: str) -> dict[str, Any]:
    """Pins for one workload: outputs at seed 0, seed-independence at 1."""
    docs = [child("trace", workload, seed, 0.0) for seed in (0, 1)]
    for doc in docs:
        reference, traced = doc["passes"]
        if results.sim_digest(reference["cells"]) != \
                results.sim_digest(traced["cells"]):
            raise BenchError(f"{workload}: tracing changed a simulated "
                             f"output at seed {doc['seed']}")
    cells0, cells1 = (doc["passes"][1]["cells"] for doc in docs)
    pins: dict[str, Any] = {}
    for key, cell in cells0.items():
        other = cells1[key]
        if cell["status"] not in ("ok", "oom"):
            raise BenchError(f"{workload} {key}: {cell['status']}: "
                             f"{cell.get('error', '')}")
        if cell["counters"]["kernels"] != other["counters"]["kernels"]:
            raise BenchError(f"{workload} {key}: the kernel count depends "
                             "on the seed")
        pins[key] = {
            "status": cell["status"],
            "kernels": cell["counters"]["kernels"],
            "seed_independent": (cell["status"], cell["snapshot"])
            == (other["status"], other["snapshot"]),
            "snapshot": cell["snapshot"],
        }
    return {"workload": workload, "seed": 0, "cells": pins}


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, doc: dict[str, Any], setup: list[dict[str, Any]],
           trace: bool, declared: dict[str, str]) -> dict[str, Any]:
    """Check one workload, print its lines, return its summary."""
    expected = load_expected(workload)
    verdict = results.check(doc, expected)
    values = (results.per_layer(doc) if trace
              else results.end_to_end(doc, setup))
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": declared[name]}
        print(f"{workload} {name} {fmt(value)} {declared[name]}")
    walls = [p["wall_s"] for p in doc["passes"]]
    if not trace:
        wall = statistics.median(walls)
        speed = statistics.median(results.NOMINAL_CHUNK_S / p["chunk_s"]
                                  for p in doc["passes"])
        print(f"# {workload} measured pass wall {fmt(wall)} s (min "
              f"{fmt(min(walls))} max {fmt(max(walls))} n {len(walls)}) at "
              f"{fmt(speed)}x nominal host speed; measured set-up "
              + " ".join(fmt(s["wall_s"]) for s in setup) + " s")
        unit, count = {
            "train": ("iter", doc["iterations_per_pass"]),
            "serve": ("req", doc["requests_per_pass"]),
            "sweep": ("cell", doc["cells"]),
        }[workload.split("-", 1)[0]]
        print(f"# {workload} {unit}s_per_s {fmt(count / wall)} {unit}/s "
              f"({count} {unit}s per pass)")
    else:
        path = os.path.relpath(doc["trace"]["chrome_trace"], ROOT)
        print(f"# {workload} Chrome trace {path} "
              f"({doc['trace']['spans_kept']} spans)")
    for row in doc.get("fig9", []):
        sim, paper = row["sim_s_per_100"], row["paper_s_per_100"]
        print(f"# {workload} fig9 {row['cell']} sim {fmt(sim)} s/100it "
              f"paper {fmt(paper)} s/100it error "
              f"{100.0 * (sim - paper) / paper:+.1f}% (simulation scale)")
    retried = sum(p.get("executor", {}).get("retried", 0)
                  for p in doc["passes"])
    if retried:
        print(f"# {workload} the executor retried {retried} cell run(s)")
    print(f"# {workload} sim_digest {verdict['sim_digest']}")
    print(f"# {workload} error_rate "
          f"{fmt(verdict['failed'] / verdict['attempted'])} "
          f"({verdict['failed']}/{verdict['attempted']} cell runs and "
          "run-level checks)")
    for problem in verdict["problems"]:
        print(f"# {workload} ERROR {problem}")
    return {
        "metrics": metrics,
        "setup_samples": setup,
        "passes": [{k: v for k, v in p.items() if k not in ("cells",)}
                   for p in doc["passes"]],
        "seed": doc["seed"],
        "fig9": doc.get("fig9", []),
        **verdict,
    }


def speedup_lines(summaries: dict[str, Any]) -> None:
    """Simulated um/deepum speed-up against the paper's, when both ran."""
    um = {r["cell"].rsplit("/", 1)[0]: r
          for r in summaries.get("train-um", {}).get("fig9", [])}
    for row in summaries.get("train-deepum", {}).get("fig9", []):
        base = um.get(row["cell"].rsplit("/", 1)[0])
        if base is None:
            continue
        sim = base["sim_s_per_100"] / row["sim_s_per_100"]
        paper = base["paper_s_per_100"] / row["paper_s_per_100"]
        print(f"# fig9 speedup um/deepum {row['cell'].rsplit('/', 1)[0]} "
              f"sim {sim:.2f}x paper {paper:.2f}x error "
              f"{100.0 * (sim - paper) / paper:+.1f}%")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring budget per workload: at least three "
                             "passes, more while they fit")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run: one reference and one traced "
                             "pass")
    parser.add_argument("--out", help="write every workload's summary here")
    parser.add_argument("--record-expected", action="store_true",
                        help="regenerate expected/<workload>.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    known = [w["name"] for w in bench["workloads"]]
    chosen = args.workload or known
    unknown = sorted(set(chosen) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    WORKDIR.mkdir(exist_ok=True)

    if args.record_expected:
        EXPECTED.mkdir(exist_ok=True)
        for workload in chosen:
            pins = record_expected(workload)
            with open(EXPECTED / f"{workload}.json", "w") as fh:
                json.dump(pins, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"# {workload}: pinned {len(pins['cells'])} cells")
        return 0

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    summaries: dict[str, Any] = {}
    for workload in chosen:
        doc, setup = measure(workload, args.seed, args.seconds,
                             bool(args.trace))
        summaries[workload] = report(workload, doc, setup, bool(args.trace),
                                     declared)
    speedup_lines(summaries)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, "workloads": summaries},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    single = len(chosen) == 1
    result = {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {
            (name if single else f"{workload}/{name}"): metric
            for workload, s in summaries.items()
            for name, metric in s["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Turn a termination request into an exception, so the measuring
    # child's process group is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
