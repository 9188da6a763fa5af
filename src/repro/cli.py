"""Command-line interface: run paper experiments without writing code.

Examples::

    python -m repro list
    python -m repro run bert-large --batch 16 --policies um,lms,deepum
    python -m repro run bert-large --obs timeline.json
    python -m repro run bert-large --policies um,lms,deepum --workers 3
    python -m repro max-batch gpt2-l --policies lms,deepum --workers 4
    python -m repro sweep-degree bert-large --degrees 1,8,32,128
    python -m repro serve dlrm --arrivals poisson --requests 48
    python -m repro serve gpt2-decode --policies um,deepum --out lat.json
    python -m repro bench run --scenario smoke --workers 2
    python -m repro runs list
    python -m repro runs resume 20260806-141530-3fa9c1
    python -m repro cache stats
    python -m repro cache verify --sample 2
    python -m repro trace timeline bert-large --out timeline.json

Every cell-running subcommand (run, serve, sweep-degree, max-batch, bench
run, tournament) builds :class:`repro.api.RunRequest` cells as executor
tasks and runs them through the fault-tolerant process-pool executor
(:mod:`repro.exec`); ``--workers`` only sizes the pool. All but max-batch
journal the run under ``--runs-dir`` for ``repro runs resume``. Simulated
metrics are identical at every pool size. (The ``trace`` subcommands,
doctor, profile and report run their recorded cells in-process.)

The executor consults the content-addressed result cache
(:mod:`repro.exec.cache`, default ``.repro-cache/``): cells whose inputs
have not changed replay their stored results bit-for-bit instead of
re-simulating; ``--obs`` cells always run. ``--no-cache`` opts out;
``repro cache stats|gc|verify`` manages and audits the store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Optional, Sequence

from .api import RunRequest, RunResult, execute
from .config import DeepUMConfig
from .constants import MiB
from .harness import calibrate_system, max_batch_outcome
from .harness.experiment import POLICIES, policy_accepts_config
from .harness.report import format_table, phase_breakdown_table
from .models.registry import get_model_config, list_models


def _parse_policies(raw: str) -> list[str]:
    names = [p.strip() for p in raw.split(",") if p.strip()]
    unknown = [p for p in names if p not in POLICIES]
    if unknown:
        known = ", ".join(sorted(POLICIES))
        raise SystemExit(f"unknown policies {unknown}; known: {known}")
    return names


def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in list_models():
        cfg = get_model_config(name)
        rows.append([name, cfg.dataset,
                     "/".join(str(b) for b in cfg.fig9_batches),
                     cfg.sim_scale, cfg.batch_divisor])
    print(format_table(
        ["model", "dataset", "paper batch grid", "sim scale", "batch divisor"],
        rows, title="Registered workloads"))
    print()
    print("policies:", ", ".join(sorted(POLICIES)))
    return 0


def _obs_mode(args: argparse.Namespace, policy: str, policies: list[str],
              top: Optional[int] = None) -> dict[str, Any]:
    """The run-mode keys that make a worker record ``policy``'s cell.

    The trace goes to ``--obs PATH``, or to ``PATH-<policy>`` when several
    policies share it; ``top`` also asks for the phase-breakdown table.
    """
    if not args.obs:
        return {}
    path = args.obs
    if len(policies) > 1:
        stem, ext = os.path.splitext(path)
        path = f"{stem}-{policy}{ext or '.json'}"
    return {"obs": path} if top is None else {"obs": path, "top": top}


def _require_writable_dir(path: str, flag: str) -> None:
    """Fail before the (long) run, not after it, on an unwritable output."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise SystemExit(f"{flag}: directory {parent!r} does not exist")


def _error_tail(error: str, limit: int = 60) -> str:
    """The last (most informative) line of a captured error, truncated."""
    tail = error.strip().splitlines()[-1] if error.strip() else ""
    return tail[:limit]


def _write_json(path: str, doc: Any) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------- #
# the executor path shared by the journaled commands (and runs resume)
# --------------------------------------------------------------------- #


def _executor_config(args: argparse.Namespace):
    from .exec import ExecutorConfig

    return ExecutorConfig(workers=args.workers, cell_timeout=args.cell_timeout,
                          retries=args.retries,
                          heartbeat_interval=args.heartbeat_interval)


def _cache_from_args(args: argparse.Namespace):
    """The content-addressed result cache the command should use, if any.

    Precedence: ``--no-cache`` disables; an explicit ``--cache-dir``
    forces the cache on (even under ``REPRO_CACHE=off``); otherwise the
    cache defaults on, rooted at ``REPRO_CACHE_DIR`` or ``.repro-cache``.
    """
    from .exec.cache import ResultCache, cache_disabled_by_env

    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and cache_disabled_by_env():
        return None
    return ResultCache(cache_dir)


def _print_cache_summary(cache) -> None:
    if cache is not None and (cache.lookups or cache.stores):
        print(cache.summary_line())


def _run_journaled(tasks, *, kind: str, meta: dict[str, Any],
                   args: argparse.Namespace) -> dict[str, dict[str, Any]]:
    """Create a journal for ``tasks`` and run it through the executor."""
    from .exec import Executor, RunJournal

    config = _executor_config(args)
    cache = _cache_from_args(args)
    journal = RunJournal.create(tasks, kind=kind, meta=meta,
                                executor=config.to_dict(),
                                runs_dir=args.runs_dir, run_id=args.run_id)
    print(f"{kind} {journal.run_id}: {len(tasks)} cells across "
          f"{config.workers} workers (journal: {journal.root})")
    results = Executor(config, progress=print,
                       cache=cache).run_journal(journal)
    _print_cache_summary(cache)
    return results


# Every journal kind renders its output through one ``(results, meta)``
# function in RENDERERS, called by the live command and by ``runs resume``
# alike, so a resumed run prints (and writes) exactly what the live one did.


def _in_policy_order(results: dict[str, dict[str, Any]],
                     meta: dict[str, Any]
                     ) -> list[tuple[RunResult, dict[str, Any]]]:
    """Parsed results, each with its ``obs`` section (empty unless the cell
    ran recorded), in the command line's policy order (a reloaded journal
    alphabetizes its cells)."""
    order = list(meta.get("policies") or [])
    parsed = [(RunResult.from_dict(doc), doc.get("obs") or {})
              for doc in results.values()]
    parsed.sort(key=lambda pair: order.index(pair[0].request.policy)
                if pair[0].request.policy in order else len(order))
    return parsed


def _render_run_results(results: dict[str, dict[str, Any]],
                        meta: dict[str, Any]) -> int:
    """The ``repro run`` policy table, then each recorded cell's phase
    breakdown, from result documents."""
    rows = []
    bad = 0
    parsed = _in_policy_order(results, meta)
    # UM may be listed anywhere on the command line, so find the UM
    # reference time up front rather than relying on "um runs first".
    um_sec = next(
        (r.seconds_per_100_iterations for r, _ in parsed
         if r.request.policy == "um" and r.ok), None)
    for res, obs in parsed:
        policy = res.request.policy
        if res.status == "oom":
            rows.append([policy, None, None, None,
                         _error_tail(res.error, 40) or "OOM"])
            continue
        if not res.ok:
            bad += 1
            rows.append([policy, None, None, None,
                         f"{res.status}: {_error_tail(res.error, 40)}"])
            continue
        sec = res.seconds_per_100_iterations
        rows.append([policy, sec,
                     (um_sec / sec) if um_sec and sec else None,
                     res.faults_per_iteration, obs.get("note", "")])
    print(format_table(
        ["policy", "s/100 iters", "speedup vs UM", "faults/iter", "note"],
        rows))
    for _, obs in parsed:
        if "breakdown" in obs:
            print()
            print(obs["breakdown"])
    return 1 if bad else 0


def _render_sweep_results(results: dict[str, dict[str, Any]],
                          meta: dict[str, Any]) -> int:
    """The ``repro sweep-degree`` table, from executor result documents."""
    rows = []
    bad = 0
    for doc in results.values():
        res = RunResult.from_dict(doc)
        deepum_cfg = res.request.deepum_config
        degree = deepum_cfg.prefetch_degree if deepum_cfg is not None else -1
        if not res.ok:
            bad += 1
            rows.append([degree, None, None,
                         f"{res.status}: {_error_tail(res.error, 40)}"])
        else:
            rows.append([degree, res.seconds_per_100_iterations,
                         res.faults_per_iteration, ""])
    # Journal reload alphabetizes cell keys; the sweep reads best smallest
    # degree first.
    rows.sort(key=lambda row: row[0])
    title = f"{meta.get('model', '?')}: prefetch degree sweep"
    print(format_table(["N", "s/100 iters", "faults/iter", "note"], rows,
                       title=title))
    return 1 if bad else 0


def _render_status_rows(journal) -> None:
    rows = []
    for key in journal.keys():
        result = journal.result(key)
        wall = result.get("wall_seconds") if isinstance(result, dict) else None
        retries = max(journal.attempts(key) - 1, 0)
        # display_status downgrades "running" to "stalled" when the cell's
        # worker heartbeat has gone quiet (see repro.exec.telemetry).
        rows.append([key, journal.display_status(key),
                     f"{wall:.3f}" if wall is not None else None,
                     retries, _error_tail(journal.error(key))])
    print(format_table(["cell", "status", "wall (s)", "retries", "error"],
                       rows))


# --------------------------------------------------------------------- #
# experiment subcommands
# --------------------------------------------------------------------- #


def cmd_run(args: argparse.Namespace) -> int:
    from .exec import experiment_task

    cfg = get_model_config(args.model)
    batch = args.batch if args.batch is not None else \
        cfg.fig9_batches[len(cfg.fig9_batches) // 2]
    scale = args.scale if args.scale is not None else cfg.sim_scale
    seed = args.seed if args.seed is not None else 0
    system = calibrate_system(args.model, scale=scale)
    print(f"{args.model} @ paper batch {batch} "
          f"(simulated GPU {system.gpu.memory_bytes // MiB} MB, "
          f"host {system.host.memory_bytes // MiB} MB)")
    deepum_cfg = DeepUMConfig(prefetch_degree=args.degree)
    policies = _parse_policies(args.policies)
    if args.obs:
        _require_writable_dir(args.obs, "--obs")
    meta = {"model": args.model, "batch": batch, "scale": scale,
            "policies": list(policies)}
    tasks = [
        experiment_task(
            RunRequest(
                model=args.model, policy=policy, batch=batch, scale=scale,
                warmup_iterations=args.warmup,
                measure_iterations=args.measure, seed=seed,
                deepum_config=deepum_cfg if policy_accepts_config(policy)
                else None,
                system=system,
            ),
            **_obs_mode(args, policy, policies, top=args.top))
        for policy in policies
    ]
    return _render_run_results(
        _run_journaled(tasks, kind="run", args=args, meta=meta), meta)


def _render_serve_results(results: dict[str, dict[str, Any]],
                          meta: dict[str, Any]) -> int:
    """The ``repro serve`` latency table, from executor result documents;
    writes the per-policy snapshots to ``meta["out"]`` when set."""
    rows = []
    bad = 0
    artifact: dict[str, Any] = {}
    parsed = _in_policy_order(results, meta)
    for _, obs in parsed:
        if obs:
            print(obs["note"])
    for res, _ in parsed:
        policy = res.request.policy
        if res.status == "oom":
            rows.append([policy, None, None, None, None, None,
                         _error_tail(res.error, 40) or "OOM"])
            continue
        if not res.ok:
            bad += 1
            rows.append([policy, None, None, None, None, None,
                         f"{res.status}: {_error_tail(res.error, 40)}"])
            continue
        snap = res.snapshot or {}
        lat = snap.get("latency_ms", {})
        artifact[policy] = snap
        rows.append([
            policy, lat.get("p50"), lat.get("p95"), lat.get("p99"),
            f"{snap.get('slo_violations', '?')}/{snap.get('requests', '?')}",
            snap.get("throughput_rps"),
            "hints" if snap.get("hints") else "no hints",
        ])
    print(format_table(
        ["policy", "p50 ms", "p95 ms", "p99 ms", "SLO viol", "req/s",
         "note"],
        rows))
    out = meta.get("out")
    if out and artifact:
        _write_json(out, artifact)
        print(f"latency percentiles: {out}")
    return 1 if bad else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .exec import experiment_task
    from .serve import ServeSpec
    from .serve.scenarios import get_scenario
    from .serve.session import serve_facade

    try:
        scenario = get_scenario(args.scenario)
        spec = ServeSpec(
            scenario=args.scenario, arrivals=args.arrivals,
            requests=args.requests, rate=args.rate, slo_ms=args.slo_ms,
            hints=not args.no_hints, arrival_seed=args.arrival_seed,
            burst_factor=args.burst_factor, decode_tokens=args.decode_tokens)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"serve: {exc}")
    cfg = get_model_config(scenario.model)
    batch = args.batch if args.batch is not None else \
        cfg.fig9_batches[len(cfg.fig9_batches) // 2]
    scale = args.scale if args.scale is not None else cfg.sim_scale
    seed = args.seed if args.seed is not None else 0
    policies = _parse_policies(args.policies)
    if args.obs:
        _require_writable_dir(args.obs, "--obs")
    if args.out:
        _require_writable_dir(args.out, "--out")

    def request(policy: str) -> RunRequest:
        return RunRequest(
            model=scenario.model, policy=policy, batch=batch, scale=scale,
            warmup_iterations=args.warmup, measure_iterations=args.measure,
            seed=seed, kind="serve", serve=spec,
        )

    meta = {"scenario": args.scenario, "batch": batch, "scale": scale,
            "policies": list(policies), "serve": spec.to_dict(),
            "out": args.out}
    system = request(policies[0]).resolved().system
    assert system is not None
    for policy in policies:
        try:
            serve_facade(policy, system)
        except TypeError as exc:
            raise SystemExit(f"serve: {exc}")
    print(f"serve {args.scenario}: {scenario.model} @ paper batch {batch}, "
          f"{spec.requests} {spec.arrivals} requests "
          f"(simulated GPU {system.gpu.memory_bytes // MiB} MB, "
          f"{scenario.oversubscription:g}x oversubscribed)")
    tasks = [experiment_task(request(policy),
                             **_obs_mode(args, policy, policies))
             for policy in policies]
    return _render_serve_results(
        _run_journaled(tasks, kind="serve", args=args, meta=meta), meta)


def _recorded_run(args: argparse.Namespace, policy: str):
    """Run ``args.model`` under ``policy`` with a fresh recorder attached.

    The one cell the ``trace`` subcommands share: the batch defaults to
    the paper grid's midpoint and the seed to 0. Returns ``(batch,
    recorder)``; the recorder is None, once the failure is printed, when
    the cell did not finish ``ok``.
    """
    from functools import partial

    from .obs import SpanRecorder, attach

    cfg = get_model_config(args.model)
    batch = args.batch if args.batch is not None else \
        cfg.fig9_batches[len(cfg.fig9_batches) // 2]
    recorder = SpanRecorder()
    result = execute(RunRequest(
        model=args.model, policy=policy, batch=batch, scale=args.scale,
        warmup_iterations=args.warmup, measure_iterations=args.measure,
        seed=args.seed if args.seed is not None else 0,
        deepum_config=(
            DeepUMConfig(prefetch_degree=args.degree)
            if policy_accepts_config(policy) else None
        ),
    ), observe=partial(attach, recorder=recorder))
    if not result.ok:
        print(f"{policy} {result.status}: {_error_tail(result.error)}")
        return batch, None
    return batch, recorder


def cmd_trace_timeline(args: argparse.Namespace) -> int:
    """Run a workload recorded and write its Perfetto-loadable timeline."""
    _require_writable_dir(args.out, "--out")
    from .obs import chrome_trace_dict, validate_chrome_trace

    batch, recorder = _recorded_run(args, args.policy)
    if recorder is None:
        return 1
    doc = chrome_trace_dict(recorder)
    validate_chrome_trace(doc)
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    print(f"{args.model} @ paper batch {batch} under {args.policy}: "
          f"{len(recorder.kernels)} kernels, {len(recorder.spans)} spans, "
          f"{len(recorder.instants)} instants -> {args.out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    print()
    print(phase_breakdown_table(recorder, args.top))
    return 0


def cmd_max_batch(args: argparse.Namespace) -> int:
    from .exec import Executor

    cfg = get_model_config(args.model)
    scale = args.scale if args.scale is not None else cfg.sim_scale
    system = calibrate_system(args.model, scale=scale)
    start = args.batch if args.batch is not None else cfg.fig9_batches[0]
    iterations = args.warmup if args.warmup is not None else 2
    cache = _cache_from_args(args)
    executor = Executor(_executor_config(args), cache=cache)
    rows = []
    for policy in _parse_policies(args.policies):
        outcome = max_batch_outcome(
            args.model, policy, system, scale=scale, start_batch=start,
            iterations=iterations,
            seed=args.seed if args.seed is not None else 0,
            executor=executor,
        )
        if outcome.fits:
            rows.append([policy, outcome.max_batch, len(outcome.probes), ""])
        else:
            # Never a bare "does not run": name the smallest batch that
            # was actually probed and why it failed.
            rows.append([policy, "does not run", len(outcome.probes),
                         f"batch {outcome.smallest_probed}: "
                         f"{_error_tail(outcome.failure) or 'unknown'}"])
    print(format_table(
        ["policy", "max paper-scale batch", "probes", "why not larger"],
        rows, title=f"{args.model}: maximum batch sizes"))
    _print_cache_summary(cache)
    return 0


def cmd_sweep_degree(args: argparse.Namespace) -> int:
    from .exec import experiment_task

    cfg = get_model_config(args.model)
    batch = args.batch if args.batch is not None else cfg.fig9_batches[0]
    scale = args.scale if args.scale is not None else cfg.sim_scale
    seed = args.seed if args.seed is not None else 0
    system = calibrate_system(args.model, scale=scale)
    degrees = [int(d) for d in args.degrees.split(",")]
    meta = {"model": args.model, "batch": batch, "scale": scale,
            "degrees": degrees}
    tasks = [
        experiment_task(
            RunRequest(
                model=args.model, policy="deepum", batch=batch, scale=scale,
                warmup_iterations=args.warmup,
                measure_iterations=args.measure, seed=seed,
                deepum_config=DeepUMConfig(prefetch_degree=degree),
                system=system,
            ),
            key=f"{args.model}@{batch}/deepum/N{degree}")
        for degree in degrees
    ]
    results = _run_journaled(tasks, kind="sweep-degree", args=args,
                             meta=meta)
    return _render_sweep_results(results, meta)


def cmd_bench_list(args: argparse.Namespace) -> int:
    from .bench import SCENARIOS

    rows = []
    for scenario in SCENARIOS.values():
        rows.append([scenario.name, scenario.model, scenario.paper_batch,
                     ",".join(scenario.policies),
                     f"{scenario.warmup_iterations}+{scenario.measure_iterations}",
                     scenario.description])
    print(format_table(
        ["scenario", "model", "batch", "policies", "iters", "description"],
        rows, title="Bench scenarios"))
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    from .bench import run_scenario
    from .bench.manifest import get_scenario
    from .bench.runner import BenchRunError

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    out = args.out or f"BENCH_{scenario.name}.json"
    _require_writable_dir(out, "--out")
    cache = _cache_from_args(args)
    try:
        doc = run_scenario(scenario, repeats=args.repeats,
                           warmup_runs=args.warmup_runs,
                           collect_health=args.health, progress=print,
                           workers=args.workers,
                           cell_timeout=args.cell_timeout,
                           retries=args.retries,
                           heartbeat_interval=args.heartbeat_interval,
                           runs_dir=args.runs_dir,
                           run_id=args.run_id, out=out, cache=cache)
    except BenchRunError as exc:
        raise SystemExit(f"bench run: {exc} (the journal is kept; see "
                         "`repro runs list` / `repro runs resume`)")
    _print_cache_summary(cache)
    return _write_bench(doc, out)


def _write_bench(doc: dict[str, Any], out: str) -> int:
    from .bench import write_result

    write_result(doc, out)
    print(f"wrote {out}")
    return 0


def _render_bench_results(results: dict[str, dict[str, Any]],
                          meta: dict[str, Any]) -> int:
    """Rebuild a journaled bench run's BENCH file from its cell results."""
    from .bench.manifest import get_scenario
    from .bench.runner import BenchRunError, bench_document

    try:
        scenario = get_scenario(str(meta.get("scenario")))
        doc = bench_document(scenario, results,
                             repeats=int(meta.get("repeats", 1)),
                             warmup_runs=int(meta.get("warmup_runs", 0)))
    except (KeyError, BenchRunError) as exc:
        raise SystemExit(f"runs resume: {exc.args[0]}")
    return _write_bench(doc, meta.get("out") or f"BENCH_{scenario.name}.json")


def cmd_doctor(args: argparse.Namespace) -> int:
    from .obs.doctor import format_doctor, run_doctor, validate_doctor_report
    from .obs.prof import NeutralityError

    try:
        report = run_doctor(
            args.scenario,
            warmup_iterations=args.warmup,
            measure_iterations=args.measure,
            batch=args.batch,
            scale=args.scale,
            seed=args.seed,
            progress=None if args.json else print,
        )
    except KeyError as exc:
        raise SystemExit(f"doctor: {exc.args[0]}")
    except NeutralityError as exc:
        raise SystemExit(f"doctor: {exc}")
    validate_doctor_report(report)
    if args.out:
        _require_writable_dir(args.out, "--out")
        _write_json(args.out, report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_doctor(report))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Wall-clock subsystem profile of a scenario's cells."""
    from .obs.prof import (
        NeutralityError,
        format_profile,
        profile_scenario,
        speedscope_document,
        validate_profile,
        validate_speedscope,
    )

    try:
        doc = profile_scenario(
            args.scenario,
            sample=args.sample,
            sample_interval=args.sample_interval,
            warmup_iterations=args.warmup,
            measure_iterations=args.measure,
            batch=args.batch, scale=args.scale, seed=args.seed,
            progress=None if args.json else print,
        )
    except KeyError as exc:
        raise SystemExit(f"profile: {exc.args[0]}")
    except NeutralityError as exc:
        raise SystemExit(f"profile: {exc}")
    validate_profile(doc)
    if args.out:
        _require_writable_dir(args.out, "--out")
        _write_json(args.out, doc)
    if args.speedscope:
        _require_writable_dir(args.speedscope, "--speedscope")
        flame = validate_speedscope(speedscope_document(doc))
        _write_json(args.speedscope, flame)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(format_profile(doc))
        if args.out:
            print(f"\nwrote JSON profile -> {args.out}")
        if args.speedscope:
            print(f"wrote speedscope flamegraph -> {args.speedscope} "
                  "(open at https://www.speedscope.app)")
    return 0


def cmd_trace_why(args: argparse.Namespace) -> int:
    """Single-block drill-down: every decision that touched one UM block."""
    from .obs.decisions import describe_event

    batch, recorder = _recorded_run(args, args.policy)
    if recorder is None:
        return 1
    events = recorder.decisions.events_for_block(args.block, args.kernel)
    where = f"block {args.block}" + (
        f" under kernel #{args.kernel}" if args.kernel is not None else "")
    if not events:
        print(f"{args.model} @ paper batch {batch} under {args.policy}: "
              f"no recorded decisions for {where}")
        print("(the block was never prefetched, faulted, or evicted; check "
              "the index against the fault instants in a timeline trace)")
        return 1
    print(f"{args.model} @ paper batch {batch} under {args.policy}: "
          f"{len(events)} decision(s) for {where}")
    kernels = recorder.kernels
    for event in events:
        seq = event[2]
        name = kernels[seq].name if 0 <= seq < len(kernels) else "-"
        print(f"  kernel #{seq:<4} {name:<28} {describe_event(event)}")
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    """Run two policies instrumented and attribute their time delta."""
    from .obs.diff import diff_runs, format_diff

    if args.a == args.b:
        raise SystemExit(f"trace diff: --a and --b are both {args.a!r}; "
                         "nothing to compare")
    recorders: dict[str, Any] = {}
    for policy in (args.a, args.b):
        batch, recorder = _recorded_run(args, policy)
        if recorder is None:
            return 1
        recorders[policy] = recorder
    diff = diff_runs(recorders[args.a], recorders[args.b],
                     label_a=args.a, label_b=args.b)
    print(f"{args.model} @ paper batch {batch}")
    print(format_diff(diff, top=args.top))
    if args.out:
        _require_writable_dir(args.out, "--out")
        _write_json(args.out, diff.to_dict())
        print(f"\nwrote {args.out}")
    return 0


def cmd_tournament(args: argparse.Namespace) -> int:
    """Run a policy tournament grid and print the ranking tables."""
    from .harness.tournament import TOURNAMENTS, tournament_tasks

    if args.scenario == "list" or args.list:
        rows = [[s.name, ",".join(s.models),
                 "/".join(f"{p:g}" for p in s.pressures),
                 ",".join(s.policies), s.description]
                for s in TOURNAMENTS.values()]
        print(format_table(
            ["scenario", "models", "pressures", "policies", "description"],
            rows, title="Tournament scenarios"))
        return 0
    scenario = TOURNAMENTS.get(args.scenario)
    if scenario is None:
        known = ", ".join(sorted(TOURNAMENTS))
        raise SystemExit(
            f"unknown tournament scenario {args.scenario!r}; known: {known}")
    policies = _parse_policies(args.policies) if args.policies else None
    if args.out:
        _require_writable_dir(args.out, "--out")
    meta = {"scenario": scenario.name,
            "policies": policies or list(scenario.policies),
            "out": args.out}
    results = _run_journaled(tournament_tasks(scenario, policies=policies),
                             kind="tournament", args=args, meta=meta)
    return _render_tournament_results(results, meta)


def _render_tournament_results(results: dict[str, dict[str, Any]],
                               meta: dict[str, Any]) -> int:
    from .harness.tournament import format_tournament, rank_tournament

    doc = rank_tournament(results)
    out = meta.get("out")
    if out:
        _write_json(out, doc)
    print(format_tournament(
        doc, title=f"tournament {meta.get('scenario', '?')}"))
    if out:
        print(f"\nwrote {out}")
    bad = sum(1 for cell in doc["cells"] if cell.get("status") != "ok")
    return 1 if bad else 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render the single-file HTML observability report."""
    from .obs.report import journal_report, scenario_report, write_report

    if bool(args.scenario) == bool(args.run):
        raise SystemExit(
            "report: give exactly one of a scenario name or --run <run-id>")
    _require_writable_dir(args.out, "--out")
    if args.run:
        journal = _load_journal(
            argparse.Namespace(run_id=args.run, runs_dir=args.runs_dir))
        doc = journal_report(journal)
        what = f"run {journal.run_id} ({len(doc['cells'])} cells)"
    else:
        try:
            doc = scenario_report(
                args.scenario,
                warmup_iterations=args.warmup,
                measure_iterations=args.measure,
                batch=args.batch, scale=args.scale, seed=args.seed,
                progress=print,
            )
        except KeyError as exc:
            raise SystemExit(f"report: {exc.args[0]}")
        what = (f"scenario {doc['scenario']} ({len(doc['cells'])} cells, "
                f"{len(doc['skipped'])} skipped)")
    write_report(doc, args.out)
    print(f"wrote {what} -> {args.out}")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from .bench import compare_results, load_result
    from .bench.schema import BenchSchemaError

    try:
        baseline = load_result(args.baseline)
        current = load_result(args.current)
    except (OSError, ValueError, BenchSchemaError) as exc:
        raise SystemExit(f"bench compare: {exc}")
    outcome = compare_results(baseline, current, threshold=args.threshold)
    print(outcome.report())
    return 0 if outcome.ok else 1


def cmd_bench_history_record(args: argparse.Namespace) -> int:
    """Append one bench result (and optional compare verdict) to history."""
    from .bench import compare_results, load_result
    from .bench.schema import BenchSchemaError
    from .obs.history import append_entry, make_entry

    try:
        result = load_result(args.result)
        compare = None
        if args.baseline:
            baseline = load_result(args.baseline)
            compare = compare_results(baseline, result,
                                      threshold=args.threshold)
    except (OSError, ValueError, BenchSchemaError) as exc:
        raise SystemExit(f"bench history: {exc}")
    entry = make_entry(result, compare=compare, git_sha=args.sha)
    append_entry(entry, args.path)
    verdict = ""
    if compare is not None:
        verdict = " (compare: ok)" if compare.ok else " (compare: FAILED)"
    print(f"recorded {entry['scenario']} @ {entry['git_sha']}"
          f"{verdict} -> {args.path}")
    return 0


def cmd_bench_history_show(args: argparse.Namespace) -> int:
    from .obs.history import format_history, load_history

    entries, skipped = load_history(args.path, scenario=args.scenario)
    if not entries and not skipped:
        print(f"no history at {args.path!r}"
              + (f" for scenario {args.scenario!r}" if args.scenario else ""))
        return 0
    print(format_history(entries, skipped=skipped, last=args.last))
    return 0


def cmd_bench_history_trend(args: argparse.Namespace) -> int:
    from .obs.history import format_trend, load_history, trend

    entries, skipped = load_history(args.path, scenario=args.scenario)
    print(format_trend(trend(entries, args.scenario), args.scenario))
    if skipped:
        print(f"warning: skipped {skipped} malformed history line(s)")
    return 0


# --------------------------------------------------------------------- #
# result-cache subcommands (stats / gc / verify)
# --------------------------------------------------------------------- #


def cmd_cache_stats(args: argparse.Namespace) -> int:
    from .exec.cache import disk_stats

    stats = disk_stats(args.cache_dir)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache {stats['cache_dir']} "
          f"(schema v{stats['cache_schema_version']}, "
          f"code fingerprint {stats['code_fingerprint']})")
    rows = [[kind, count] for kind, count in sorted(stats["by_kind"].items())]
    print(format_table(["kind", "entries"], rows))
    print(f"{stats['entries']} entr{'y' if stats['entries'] == 1 else 'ies'} "
          f"({stats['bytes'] / 1e6:.2f} MB): {stats['current']} current, "
          f"{stats['stale']} stale, {stats['corrupt']} corrupt")
    if stats["stale"] or stats["corrupt"]:
        print("reclaim dead entries with: repro cache gc")
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from .exec.cache import gc

    removed = gc(args.cache_dir, everything=args.all)
    what = "entries" if args.all else "stale/corrupt entries"
    print(f"removed {removed} {what}")
    return 0


def cmd_cache_verify(args: argparse.Namespace) -> int:
    """Audit the cache: integrity scan + sampled bit-for-bit re-execution."""
    from .exec.cache import verify

    report = verify(args.cache_dir, sample=args.sample, seed=args.seed,
                    progress=None if args.json else print)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"cache {report['cache_dir']}: {report['entries']} entries, "
              f"{len(report['corrupt'])} corrupt; re-ran {report['sampled']} "
              f"sampled cell(s), {len(report['verified'])} bit-for-bit "
              f"identical, {len(report['mismatches'])} mismatched")
        for bad in report["corrupt"]:
            print(f"  corrupt: {bad['path']}: {bad['problem']}")
        for bad in report["mismatches"]:
            print(f"  POISONED: {bad['path']}: {bad['problem']}")
        if not report["ok"]:
            print("the cache cannot be trusted; clear it with: "
                  "repro cache gc --all")
    return 0 if report["ok"] else 1


# --------------------------------------------------------------------- #
# run-journal subcommands (list / show / resume)
# --------------------------------------------------------------------- #


def _counts_str(counts: dict[str, int]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "-"


def _load_journal(args: argparse.Namespace):
    from .exec import JournalError, RunJournal

    try:
        return RunJournal.load(args.run_id, args.runs_dir)
    except JournalError as exc:
        raise SystemExit(f"runs: {exc}")


def cmd_runs_list(args: argparse.Namespace) -> int:
    from .exec import list_runs

    runs = list_runs(args.runs_dir)
    if not runs:
        print(f"no runs under {args.runs_dir!r}")
        return 0
    rows = []
    for summary in runs:
        counts = summary["counts"]
        # display_counts folds heartbeat staleness in: cells whose worker
        # stopped beating show as "stalled" instead of forever "running".
        shown = summary.get("display_counts") or counts
        state = "corrupt" if summary["corrupt"] else _counts_str(shown)
        rows.append([summary["run_id"], summary["kind"],
                     summary["created_at"], sum(counts.values()), state])
    print(format_table(["run", "kind", "created", "cells", "status"], rows,
                       title=f"Runs under {args.runs_dir}/"))
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    journal = _load_journal(args)
    meta = json.dumps(journal.meta, sort_keys=True)
    print(f"run {journal.run_id} (kind: {journal.kind}, "
          f"created: {journal.state['created_at']})")
    print(f"meta: {meta}")
    print(f"executor: {json.dumps(journal.state.get('executor', {}), sort_keys=True)}")
    print()
    _render_status_rows(journal)
    unfinished = journal.unfinished()
    if unfinished:
        print()
        print(f"{len(unfinished)} cell(s) unfinished; resume with: "
              f"repro runs resume {journal.run_id} --runs-dir {args.runs_dir}")
    return 0


def _print_watch_tick(snap: dict[str, Any]) -> None:
    rows = []
    for cell in snap["cells"]:
        progress = cell.get("progress")
        eta = cell.get("eta_seconds")
        sim = cell.get("sim_time")
        rows.append([
            cell["key"], cell["status"], cell.get("phase") or "-",
            f"{100.0 * progress:.0f}%" if progress is not None else "-",
            (f"{cell['elapsed_seconds']:.1f}"
             if cell.get("elapsed_seconds") is not None else "-"),
            f"{sim:.4f}" if sim is not None else "-",
            f"{eta:.0f}s" if eta is not None else "-",
        ])
    print(format_table(
        ["cell", "status", "phase", "progress", "elapsed (s)", "sim time",
         "eta"],
        rows,
        title=f"run {snap['run_id']} ({snap['kind']}): "
              f"{snap['done']}/{snap['total']} cells finished"))


def cmd_runs_watch(args: argparse.Namespace) -> int:
    """Tail a journaled run's live progress from its worker heartbeats."""
    import time

    from .exec.telemetry import watch_snapshot

    while True:
        journal = _load_journal(args)  # re-read state.json every tick
        snap = watch_snapshot(journal)
        _print_watch_tick(snap)
        if snap["finished"]:
            counts = _counts_str(journal.counts())
            print(f"run {journal.run_id} finished: {counts}")
            return 0
        if args.once:
            return 0
        print()
        time.sleep(args.interval)


def cmd_runs_resume(args: argparse.Namespace) -> int:
    from .exec import Executor, ExecutorConfig

    journal = _load_journal(args)
    if args.retry_failed:
        stuck = [key for key in journal.keys()
                 if journal.status(key) in ("failed", "timeout")]
        if stuck:
            print(f"resetting {len(stuck)} failed/timed-out cell(s)")
            journal.reset(stuck)
    saved = dict(journal.state.get("executor", {}))
    for field in ("workers", "cell_timeout", "retries"):
        override = getattr(args, field)
        if override is not None:
            saved[field] = override
    allowed = {"workers", "cell_timeout", "retries", "backoff",
               "poll_interval", "start_method", "heartbeat_interval"}
    config = ExecutorConfig(
        **{k: v for k, v in saved.items() if k in allowed})
    unfinished = journal.unfinished()
    if unfinished:
        cache = _cache_from_args(args)
        print(f"resuming {journal.kind} {journal.run_id}: "
              f"{len(unfinished)} of {len(journal.keys())} cell(s) left "
              f"({config.workers} workers)")
        results = Executor(config, progress=print,
                           cache=cache).run_journal(journal)
        _print_cache_summary(cache)
    else:
        print(f"{journal.kind} {journal.run_id}: all cells already finished")
        results = journal.results()
    render = RENDERERS.get(journal.kind)
    if render is not None:
        return render(results, journal.meta)
    _render_status_rows(journal)
    bad = sum(1 for doc in results.values()
              if doc.get("status") in ("failed", "timeout"))
    return 1 if bad else 0


#: Journal kind -> the renderer its live command prints (and writes) with.
RENDERERS: dict[str, Callable[[dict[str, dict[str, Any]], dict[str, Any]],
                              int]] = {
    "run": _render_run_results,
    "serve": _render_serve_results,
    "sweep-degree": _render_sweep_results,
    "tournament": _render_tournament_results,
    "bench": _render_bench_results,
}


# --------------------------------------------------------------------- #
# parser construction
#
# Commands are assembled from shared parent parsers (cell / iters / degree
# / obs / exec) so a flag spelled once means the same thing everywhere.
# Flag precedence, for every command built from them:
#
# 1. An explicit command-line flag always wins.
# 2. Otherwise environment variables apply (cache only): ``REPRO_CACHE=off``
#    disables the result cache, ``REPRO_CACHE_DIR`` relocates it.
# 3. Otherwise the command's ``set_defaults()`` pins (e.g. run/serve pin
#    warmup=4, measure=3) and the parents' declared defaults apply.
#
# The one deliberate exception: an explicit ``--cache-dir`` forces the
# cache ON even under ``REPRO_CACHE=off`` (a named path outranks the
# blanket env kill switch), and ``--no-cache`` outranks both — see
# _cache_from_args.
# --------------------------------------------------------------------- #


def _cell_parent() -> argparse.ArgumentParser:
    """--batch / --scale / --seed, shared by every cell-running command."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--batch", type=int, default=None,
                        help="paper-scale batch size (default: the "
                             "command's standard pick from the model grid)")
    parent.add_argument("--scale", type=float, default=None,
                        help="simulation scale override "
                             "(default: the model's preset)")
    parent.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed (default: 0, or the "
                             "scenario's pin for doctor)")
    return parent


def _iters_parent() -> argparse.ArgumentParser:
    """--warmup / --measure; each command sets its own defaults."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--warmup", type=int, default=None,
                        help="warm-up iterations before the window")
    parent.add_argument("--measure", type=int, default=None,
                        help="measured iterations in the window")
    return parent


def _degree_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--degree", type=int, default=32,
                        help="DeepUM prefetch degree N")
    return parent


def _obs_parent() -> argparse.ArgumentParser:
    """--obs / --top, shared by the timeline-recording commands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--obs", default=None, metavar="PATH",
                        help="record each cell's simulated timeline and "
                             "write it as Perfetto JSON here (PATH-<policy> "
                             "for several policies); recorded cells "
                             "bypass the result cache")
    parent.add_argument("--top", type=int, default=10,
                        help="kernels shown in the --obs phase breakdown")
    return parent


def _exec_parent() -> argparse.ArgumentParser:
    """Executor knobs shared by every cell-running command."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=1,
                        help="worker processes in the executor pool "
                             "(default: 1)")
    parent.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock timeout")
    parent.add_argument("--retries", type=int, default=1,
                        help="extra attempts for crashed cells")
    parent.add_argument("--runs-dir", default="runs", metavar="DIR",
                        help="journal root (default: runs/)")
    parent.add_argument("--run-id", default=None,
                        help="journal id (default: generated)")
    parent.add_argument("--heartbeat-interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="worker progress-heartbeat period feeding "
                             "`repro runs watch` (default: 1s)")
    _add_cache_args(parent)
    return parent


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    """--cache-dir / --no-cache, shared by every cache-consulting command."""
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache root "
                             "(default: $REPRO_CACHE_DIR or .repro-cache; "
                             "an explicit path forces the cache on)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate; neither read nor write "
                             "the result cache")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepUM reproduction: run paper experiments from the CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cell = _cell_parent()
    iters = _iters_parent()
    degree = _degree_parent()
    obs = _obs_parent()
    execp = _exec_parent()

    sub.add_parser("list", help="list workloads and policies") \
        .set_defaults(fn=cmd_list)

    run = sub.add_parser("run", parents=[cell, iters, degree, obs, execp],
                         help="run one workload under several policies")
    run.add_argument("model")
    run.add_argument("--policies", default="um,lms,deepum,ideal")
    run.set_defaults(fn=cmd_run, warmup=4, measure=3)

    serve = sub.add_parser(
        "serve", parents=[cell, iters, obs, execp],
        help="serve an open-loop inference trace under memory pressure")
    serve.add_argument("scenario",
                       help="serve scenario (dlrm, gpt2-decode)")
    serve.add_argument("--policies", default="um,deepum",
                       help="comma-separated UM policies to serve under")
    serve.add_argument("--arrivals", default="poisson",
                       choices=("poisson", "bursty", "diurnal"),
                       help="arrival process for the open-loop trace")
    serve.add_argument("--requests", type=int, default=48,
                       help="measured requests in the trace")
    serve.add_argument("--rate", type=float, default=None, metavar="RPS",
                       help="offered request rate (default: 70%% of the "
                            "warm-up service rate, derived per policy)")
    serve.add_argument("--slo-ms", type=float, default=None,
                       help="latency SLO in simulated ms (default: 5x the "
                            "median warm-up service time)")
    serve.add_argument("--no-hints", action="store_true",
                       help="skip the workload's madvise-style allocation "
                            "hints (UMSpace.advise)")
    serve.add_argument("--arrival-seed", type=int, default=0,
                       help="RNG seed for the arrival trace")
    serve.add_argument("--burst-factor", type=float, default=4.0,
                       help="burst intensity for --arrivals bursty")
    serve.add_argument("--decode-tokens", type=int, default=8,
                       help="tokens decoded per request (gpt2-decode)")
    serve.add_argument("--out", default=None, metavar="PATH",
                       help="write the per-policy latency/SLO snapshots "
                            "as JSON")
    serve.set_defaults(fn=cmd_serve, warmup=4, measure=3)

    mb = sub.add_parser("max-batch", parents=[cell, iters, execp],
                        help="find the largest trainable batch")
    mb.add_argument("model")
    mb.add_argument("--policies", default="lms,deepum")
    mb.set_defaults(fn=cmd_max_batch, warmup=2, measure=0)

    sweep = sub.add_parser("sweep-degree", parents=[cell, iters, execp],
                           help="sweep DeepUM's prefetch degree")
    sweep.add_argument("model")
    sweep.add_argument("--degrees", default="1,8,32,128,512")
    sweep.set_defaults(fn=cmd_sweep_degree, warmup=4, measure=3)

    tour = sub.add_parser(
        "tournament", parents=[execp],
        help="rank prefetch policies on a pinned grid of models x "
             "memory pressures, judged by PolicyHealth")
    tour.add_argument("scenario", nargs="?", default="flagship",
                      help="tournament scenario name, or `list` "
                           "(default: flagship)")
    tour.add_argument("--list", action="store_true",
                      help="list the pinned tournament scenarios")
    tour.add_argument("--policies", default=None,
                      help="comma-separated entrant override "
                           "(default: the scenario's pinned entrants)")
    tour.add_argument("--out", default=None, metavar="PATH",
                      help="also write the ranked JSON document here")
    tour.set_defaults(fn=cmd_tournament)

    bench = sub.add_parser(
        "bench", help="pinned benchmark scenarios and regression compare")
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    bsub.add_parser("list", help="list pinned scenarios") \
        .set_defaults(fn=cmd_bench_list)
    brun = bsub.add_parser("run", parents=[execp],
                           help="run a scenario, write BENCH_<name>.json")
    brun.add_argument("--scenario", required=True)
    brun.add_argument("--repeats", type=int, default=3,
                      help="timed passes per cell; the minimum is kept")
    brun.add_argument("--warmup-runs", type=int, default=1,
                      help="untimed passes per cell before timing")
    brun.add_argument("--out", default=None, metavar="PATH",
                      help="output path (default: BENCH_<scenario>.json)")
    brun.add_argument("--health", action="store_true",
                      help="add a per-cell policy_health section (one extra "
                           "untimed instrumented pass per cell)")
    brun.set_defaults(fn=cmd_bench_run)
    bcmp = bsub.add_parser(
        "compare",
        help="diff a result against a baseline; exit 1 on regression")
    bcmp.add_argument("current", help="BENCH_*.json to check")
    bcmp.add_argument("--baseline", required=True,
                      help="BENCH_*.json to compare against")
    bcmp.add_argument("--threshold", type=float, default=1.5,
                      help="allowed wall-clock regression factor "
                           "(simulated metrics must match exactly)")
    bcmp.set_defaults(fn=cmd_bench_compare)
    bhist = bsub.add_parser(
        "history",
        help="committed wall/sim trend lines across commits")
    bhsub = bhist.add_subparsers(dest="history_command", required=True)
    bhrec = bhsub.add_parser(
        "record", help="append a BENCH_*.json result to the history file")
    bhrec.add_argument("result", help="BENCH_*.json to record")
    bhrec.add_argument("--baseline", default=None,
                       help="also record the compare verdict against this "
                            "baseline BENCH_*.json")
    bhrec.add_argument("--threshold", type=float, default=1.5,
                       help="wall-clock threshold for the recorded compare")
    bhrec.add_argument("--path", default="benchmarks/history.jsonl",
                       metavar="FILE",
                       help="history file (default: benchmarks/history.jsonl)")
    bhrec.add_argument("--sha", default=None,
                       help="git SHA to record (default: HEAD)")
    bhrec.set_defaults(fn=cmd_bench_history_record)
    bhshow = bhsub.add_parser("show", help="list recorded history entries")
    bhshow.add_argument("--path", default="benchmarks/history.jsonl",
                        metavar="FILE")
    bhshow.add_argument("--scenario", default=None,
                        help="only entries for this scenario")
    bhshow.add_argument("--last", type=int, default=0,
                        help="show only the newest N entries")
    bhshow.set_defaults(fn=cmd_bench_history_show)
    bhtrend = bhsub.add_parser(
        "trend", help="per-cell wall/sim trend tables for one scenario")
    bhtrend.add_argument("--scenario", required=True)
    bhtrend.add_argument("--path", default="benchmarks/history.jsonl",
                         metavar="FILE")
    bhtrend.set_defaults(fn=cmd_bench_history_trend)

    doctor = sub.add_parser(
        "doctor", parents=[cell, iters],
        help="diagnose a scenario's prefetch behaviour (ranked findings)")
    doctor.add_argument("scenario",
                        help="bench scenario name (see `repro bench list`)")
    doctor.add_argument("--json", action="store_true",
                        help="emit the schema-validated JSON report instead "
                             "of the human summary")
    doctor.add_argument("--out", default=None, metavar="PATH",
                        help="also write the JSON report here")
    doctor.set_defaults(fn=cmd_doctor)

    profile = sub.add_parser(
        "profile", parents=[cell, iters],
        help="attribute wall-clock time to simulator subsystems "
             "(sim-neutral; exports JSON and speedscope)")
    profile.add_argument("scenario",
                         help="bench scenario name (see `repro bench list`)")
    profile.add_argument("--sample", action="store_true",
                         help="also run the thread-based stack sampler for "
                              "real flamegraph stacks")
    profile.add_argument("--sample-interval", type=float, default=0.005,
                         metavar="SECONDS",
                         help="stack-sampling period (default: 5 ms)")
    profile.add_argument("--json", action="store_true",
                         help="emit the schema-validated JSON profile "
                              "instead of the human tables")
    profile.add_argument("--out", default=None, metavar="PATH",
                         help="also write the JSON profile here")
    profile.add_argument("--speedscope", default=None, metavar="PATH",
                         help="also write a speedscope flamegraph here")
    profile.set_defaults(fn=cmd_profile)

    report = sub.add_parser(
        "report", parents=[cell, iters],
        help="render a self-contained HTML observability report")
    report.add_argument("scenario", nargs="?", default=None,
                        help="bench scenario to run instrumented "
                             "(or use --run for a journaled run)")
    report.add_argument("--run", default=None, metavar="RUN_ID",
                        help="render a journaled executor run instead")
    report.add_argument("--runs-dir", default="runs", metavar="DIR",
                        help="journal root for --run (default: runs/)")
    report.add_argument("--out", default="report.html", metavar="PATH",
                        help="output HTML path (default: report.html)")
    report.set_defaults(fn=cmd_report)

    runs = sub.add_parser(
        "runs", help="inspect and resume journaled executor runs")
    rsub = runs.add_subparsers(dest="runs_command", required=True)
    rlist = rsub.add_parser("list", help="list run journals")
    rlist.add_argument("--runs-dir", default="runs", metavar="DIR")
    rlist.set_defaults(fn=cmd_runs_list)
    rshow = rsub.add_parser("show", help="per-cell status of one run")
    rshow.add_argument("run_id")
    rshow.add_argument("--runs-dir", default="runs", metavar="DIR")
    rshow.set_defaults(fn=cmd_runs_show)
    rwatch = rsub.add_parser(
        "watch",
        help="tail a run's live per-cell progress (heartbeat-driven)")
    rwatch.add_argument("run_id")
    rwatch.add_argument("--runs-dir", default="runs", metavar="DIR")
    rwatch.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh period (default: 2s)")
    rwatch.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (scripting/CI)")
    rwatch.set_defaults(fn=cmd_runs_watch)
    rres = rsub.add_parser(
        "resume",
        help="re-execute a run's unfinished cells and rebuild its output")
    rres.add_argument("run_id")
    rres.add_argument("--runs-dir", default="runs", metavar="DIR")
    rres.add_argument("--workers", type=int, default=None,
                      help="override the journaled worker count")
    rres.add_argument("--cell-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="override the journaled per-cell timeout")
    rres.add_argument("--retries", type=int, default=None,
                      help="override the journaled retry budget")
    rres.add_argument("--retry-failed", action="store_true",
                      help="also reset failed/timed-out cells to pending")
    _add_cache_args(rres)
    rres.set_defaults(fn=cmd_runs_resume)

    cache = sub.add_parser(
        "cache", help="inspect, prune and audit the result cache")
    csub = cache.add_subparsers(dest="cache_command", required=True)
    cstats = csub.add_parser("stats", help="what the cache holds on disk")
    cstats.add_argument("--cache-dir", default=None, metavar="DIR")
    cstats.add_argument("--json", action="store_true",
                        help="emit machine-readable stats")
    cstats.set_defaults(fn=cmd_cache_stats)
    cgc = csub.add_parser(
        "gc", help="delete stale and corrupt entries (or everything)")
    cgc.add_argument("--cache-dir", default=None, metavar="DIR")
    cgc.add_argument("--all", action="store_true",
                     help="clear the whole cache, current entries included")
    cgc.set_defaults(fn=cmd_cache_gc)
    cverify = csub.add_parser(
        "verify",
        help="integrity-scan every entry and re-run a sampled cell, "
             "asserting bit-for-bit equality with the stored result")
    cverify.add_argument("--cache-dir", default=None, metavar="DIR")
    cverify.add_argument("--sample", type=int, default=1,
                         help="entries to re-execute (default: 1)")
    cverify.add_argument("--seed", type=int, default=0,
                         help="sampling seed (default: 0)")
    cverify.add_argument("--json", action="store_true",
                         help="emit the full audit report as JSON")
    cverify.set_defaults(fn=cmd_cache_verify)

    trace = sub.add_parser("trace",
                           help="recorded-run timelines and drill-downs")
    tsub = trace.add_subparsers(dest="trace_command", required=True)
    tl = tsub.add_parser(
        "timeline", parents=[cell, iters, degree],
        help="run a workload and emit a Perfetto/chrome://tracing timeline")
    tl.add_argument("model", help="workload to run recorded")
    tl.add_argument("--policy", default="deepum",
                    help="UM-family policy to instrument (default: deepum)")
    tl.add_argument("--out", default="timeline.json",
                    help="output JSON path (default: timeline.json)")
    tl.add_argument("--top", type=int, default=10,
                    help="kernels shown in the phase breakdown")
    tl.set_defaults(fn=cmd_trace_timeline, warmup=2, measure=2)
    why = tsub.add_parser(
        "why", parents=[cell, iters, degree],
        help="explain one UM block's demand faults (decision drill-down)")
    why.add_argument("model", help="workload to run instrumented")
    why.add_argument("--block", type=int, required=True,
                     help="UM block index to explain")
    why.add_argument("--kernel", type=int, default=None,
                     help="restrict to one kernel sequence number")
    why.add_argument("--policy", default="deepum",
                     help="UM-family policy to instrument (default: deepum)")
    why.set_defaults(fn=cmd_trace_why, warmup=2, measure=2)
    tdiff = tsub.add_parser(
        "diff", parents=[cell, iters, degree],
        help="attribute the simulated-time delta between two policies")
    tdiff.add_argument("model", help="workload to run under both policies")
    tdiff.add_argument("--a", default="um",
                       help="baseline policy (default: um)")
    tdiff.add_argument("--b", default="deepum",
                       help="comparison policy (default: deepum)")
    tdiff.add_argument("--top", type=int, default=15,
                       help="kernels shown in the per-kernel delta table")
    tdiff.add_argument("--out", default=None, metavar="PATH",
                       help="also write the full diff document as JSON")
    tdiff.set_defaults(fn=cmd_trace_diff, warmup=2, measure=2)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
