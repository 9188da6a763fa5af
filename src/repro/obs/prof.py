"""Wall-clock subsystem profiler: where does the *Python* time go?

The rest of ``repro.obs`` attributes **simulated** time; this module
attributes **wall-clock** time — the measurement ground truth for the
vectorized-core work (ROADMAP item 2). Two complementary instruments:

* :class:`WallProfiler` — instrumented timers wrapped around the hot-path
  seams (engine event loop, fault-buffer drain, fault handler, block/exec
  table lookups, prefetcher/correlator/pre-evictor hooks, allocator,
  interconnect model, replay fast path). Attribution is **exclusive**: at
  every seam entry/exit the time since the previous boundary is charged to
  the subsystem on top of the stack, and everything outside any seam lands
  in the ``other`` residual bucket — so the per-subsystem breakdown sums
  to the profiled window exactly (a test-enforced property).
* :class:`SamplingProfiler` — an optional thread-based stack sampler
  (``sys._current_frames``; no signals, so it works anywhere) that
  captures whole Python stacks for flamegraphs at a fixed interval.

The neutrality contract mirrors PR 1's recorder invariant: profiling a run
must leave every simulated metric bit-for-bit identical to an unprofiled
run. :func:`profile_request` enforces it by running an unobserved
reference first and comparing the two passes' ``RunResult.snapshot``
dicts exactly — and reports the measured wall overhead of the
instrumentation while it is at it. Exports: plain JSON
(:func:`format_profile` for humans) and speedscope
(https://www.speedscope.app) via :func:`speedscope_document`.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Optional

PROFILE_SCHEMA_VERSION = 1

#: Subsystem bucket names (stable identifiers: JSON keys, test anchors).
SUB_ENGINE = "engine-loop"
SUB_MIGRATION = "migration"
SUB_FAULT = "fault-handler"
SUB_TABLES = "tables"
SUB_PREFETCH = "prefetch-policy"
SUB_PREEVICT = "pre-evict"
SUB_ALLOCATOR = "allocator"
SUB_LINK = "interconnect"
SUB_REPLAY = "replay"
#: The residual bucket: wall time outside every instrumented seam
#: (workload model layer, harness glue, interpreter overhead).
SUB_OTHER = "other"

SUBSYSTEMS = (
    SUB_ENGINE, SUB_MIGRATION, SUB_FAULT, SUB_TABLES, SUB_PREFETCH,
    SUB_PREEVICT, SUB_ALLOCATOR, SUB_LINK, SUB_REPLAY, SUB_OTHER,
)

#: Instance-level seams: (attribute path on the facade, method, bucket).
#: Paths missing on a facade are skipped, so the same registry serves
#: DeepUM (full stack) and NaiveUM (no driver) alike.
INSTANCE_SEAMS: tuple[tuple[str, str, str], ...] = (
    ("engine", "execute_kernel", SUB_ENGINE),
    ("engine", "_drain_background", SUB_MIGRATION),
    ("engine.handler", "resolve_block_fault", SUB_FAULT),
    ("engine.handler", "handle_batch", SUB_FAULT),
    ("engine.handler", "make_room", SUB_FAULT),
    ("engine.handler", "prefetch_block", SUB_MIGRATION),
    ("engine.link", "occupy", SUB_LINK),
    ("driver", "notify_execution_id", SUB_PREFETCH),
    ("driver", "on_fault", SUB_PREFETCH),
    ("driver", "on_kernel_end", SUB_PREFETCH),
    ("driver", "pop_prefetch", SUB_PREFETCH),
    ("driver", "push_back_prefetch", SUB_PREFETCH),
    ("driver", "background_tick", SUB_PREEVICT),
    ("driver.correlator", "on_kernel_launch", SUB_TABLES),
    ("driver.correlator", "on_fault", SUB_TABLES),
    ("driver.correlator", "kernel_known", SUB_TABLES),
    ("driver.correlator.exec_table", "record", SUB_TABLES),
    ("driver.correlator.exec_table", "predict_next", SUB_TABLES),
    ("device.allocator", "allocate", SUB_ALLOCATOR),
    ("device.allocator", "free", SUB_ALLOCATOR),
    ("device.allocator", "empty_cache", SUB_ALLOCATOR),
    ("device.replayer", "_replay_iteration", SUB_REPLAY),
)

#: Class-level seams, for objects created *during* the run (one block
#: correlation table appears per execution ID). Installed on the class and
#: strictly restored on uninstall.
CLASS_SEAM_METHODS = ("record_successor", "successors", "successors_view")


class ProfileError(RuntimeError):
    """Profiling failed (bad target, failed cell, broken install state)."""


class NeutralityError(ProfileError):
    """Profiling changed a simulated metric — the one forbidden outcome."""


def _resolve(root: object, path: str) -> Optional[object]:
    obj: Optional[object] = root
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class WallProfiler:
    """Exclusive wall-time attribution over instrumented seams.

    The accounting is a classic enter/exit stack: every boundary charges
    the time since the previous boundary to the subsystem currently on top
    (or ``other`` when the stack is empty), so nested seams never
    double-count and the exclusive times sum to the profiled window.
    Single-threaded by design, like the simulator it measures.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.exclusive: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[str] = []
        self._last = 0.0
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None
        self._installed: list[tuple[object, str, bool, Any]] = []
        self._class_installed: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------------ #
    # the attribution core
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._t0 is not None:
            raise ProfileError("profiler already started")
        self._t0 = self._last = self._clock()

    def stop(self) -> None:
        if self._t0 is None:
            raise ProfileError("profiler never started")
        if self._t1 is not None:
            return
        now = self._clock()
        self._charge(now)
        if self._stack:  # an exception unwound past wrapped frames
            self._stack.clear()
        self._t1 = now

    def _charge(self, now: float) -> None:
        name = self._stack[-1] if self._stack else SUB_OTHER
        self.exclusive[name] = self.exclusive.get(name, 0.0) \
            + (now - self._last)
        self._last = now

    def enter(self, name: str) -> None:
        if self._t0 is None or self._t1 is not None:
            return  # outside the profiled window: wrappers stay no-ops
        self._charge(self._clock())
        self._stack.append(name)
        self.calls[name] = self.calls.get(name, 0) + 1

    def exit(self) -> None:
        if self._t0 is None or self._t1 is not None or not self._stack:
            return
        self._charge(self._clock())
        self._stack.pop()

    def _wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.exit()

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(func, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------ #
    # seam installation
    # ------------------------------------------------------------------ #

    def install(self, facade: object) -> int:
        """Wrap every reachable seam of ``facade``; returns the count.

        Instance seams shadow bound methods with wrapped instance
        attributes, so other facades in the process are untouched and the
        engine's ``type(hooks) is NullHooks`` fast-path checks still see
        the original types. Block-correlation tables are created lazily
        per execution ID, so their lookups are wrapped at class level for
        the duration — :meth:`uninstall` strictly restores both kinds.
        """
        if self._installed or self._class_installed:
            raise ProfileError("profiler already installed on a facade")
        engine = getattr(facade, "engine", None)
        if engine is None or not hasattr(engine, "handler"):
            raise TypeError(
                f"cannot profile {type(facade).__name__}: no UM engine "
                "found (tensor-swap facades are not instrumented)")
        count = 0
        for path, attr, bucket in INSTANCE_SEAMS:
            obj = _resolve(facade, path)
            if obj is None:
                continue
            original = getattr(obj, attr, None)
            if original is None:
                continue
            if hasattr(obj, "__dict__"):
                had = attr in vars(obj)
                setattr(obj, attr, self._wrap(bucket, original))
                self._installed.append((obj, attr, had, original))
            else:
                # Slotted object (e.g. the PCIe link dataclass): no
                # instance dict to shadow through, so wrap on the class
                # for the duration of the window.
                cls = type(obj)
                func = cls.__dict__.get(attr)
                if func is None or any(
                        c is cls and a == attr
                        for c, a, _ in self._class_installed):
                    continue
                setattr(cls, attr, self._wrap(bucket, func))
                self._class_installed.append((cls, attr, func))
            count += 1
        from ..core.block_table import BlockCorrelationTable

        for attr in CLASS_SEAM_METHODS:
            original = BlockCorrelationTable.__dict__.get(attr)
            if original is None:
                continue
            setattr(BlockCorrelationTable, attr,
                    self._wrap(SUB_TABLES, original))
            self._class_installed.append(
                (BlockCorrelationTable, attr, original))
            count += 1
        return count

    def uninstall(self) -> None:
        """Restore every wrapped seam (idempotent; safe in ``finally``)."""
        for obj, attr, had, original in reversed(self._installed):
            if had:
                setattr(obj, attr, original)
            else:
                try:
                    delattr(obj, attr)
                except AttributeError:
                    pass
        self._installed.clear()
        for cls, attr, original in reversed(self._class_installed):
            setattr(cls, attr, original)
        self._class_installed.clear()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    @property
    def window_seconds(self) -> float:
        if self._t0 is None or self._t1 is None:
            raise ProfileError("profiler window is not closed")
        return self._t1 - self._t0

    def breakdown(self) -> dict[str, dict[str, Any]]:
        """Exclusive seconds + call counts per subsystem (``other`` incl.)."""
        out: dict[str, dict[str, Any]] = {}
        for name in sorted(set(self.exclusive) | set(self.calls)):
            out[name] = {
                "exclusive_seconds": self.exclusive.get(name, 0.0),
                "calls": self.calls.get(name, 0),
            }
        return out


class SamplingProfiler:
    """Thread-based stack sampler for flamegraphs (``--sample``).

    A daemon thread snapshots the target thread's Python stack every
    ``interval`` seconds via ``sys._current_frames()`` — no signals, no
    interpreter hooks, works on every platform and inside worker
    processes. Frames outside this package are collapsed away so the
    flamegraph shows simulator structure, not pytest/CLI scaffolding.
    """

    def __init__(self, interval: float = 0.005,
                 thread_id: Optional[int] = None):
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, "
                             f"got {interval}")
        self.interval = interval
        self.thread_id = thread_id
        self.stacks: dict[tuple[str, ...], int] = {}
        self.sample_count = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None:
            raise ProfileError("sampler already started")
        if self.thread_id is None:
            self.thread_id = threading.get_ident()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-sampler")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(2.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self.thread_id or -1)
            if frame is None:
                continue
            stack: list[str] = []
            while frame is not None:
                module = frame.f_globals.get("__name__", "")
                if module.startswith("repro"):
                    stack.append(f"{module}.{frame.f_code.co_name}")
                frame = frame.f_back
            self.sample_count += 1
            if stack:
                key = tuple(reversed(stack))  # root first
                self.stacks[key] = self.stacks.get(key, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval_seconds": self.interval,
            "samples": self.sample_count,
            "stacks": [
                {"frames": list(frames), "count": count}
                for frames, count in sorted(
                    self.stacks.items(), key=lambda kv: -kv[1])
            ],
        }


# --------------------------------------------------------------------- #
# profiled cell execution (reference run + neutrality + overhead)
# --------------------------------------------------------------------- #


def check_neutral(cell: str, reference: dict[str, Any],
                  observed: dict[str, Any], observer: str) -> None:
    """Raise :class:`NeutralityError` unless the observed pass reproduced
    the uninstrumented reference pass's simulated metrics exactly."""
    diffs = sorted(k for k in set(reference) | set(observed)
                   if reference.get(k) != observed.get(k))
    if diffs:
        raise NeutralityError(
            f"{cell}: {observer} changed simulated metrics (keys: "
            f"{', '.join(diffs)}); {observer} must be observation-only")


def profile_request(request: Any, *, sample: bool = False,
                    sample_interval: float = 0.005) -> dict[str, Any]:
    """Profile one cell: reference pass, profiled pass, neutrality check.

    ``request`` is a :class:`repro.api.RunRequest` of any kind (training,
    probe or serve). The cell runs twice through :func:`repro.api.execute`:
    once unobserved (the timed reference and the neutrality anchor), once
    with the :class:`WallProfiler` installed and started by the
    ``observe`` hook. Raises :class:`NeutralityError` if any simulated
    metric moved, :class:`ProfileError` if either pass does not finish
    ``ok``, and ``TypeError`` for facades without a UM engine (mirroring
    ``attach``).
    """
    from ..api import STATUS_OOM, execute

    # Resolved up front so calibration never lands in the timed reference.
    req = request.resolved()

    def run(observe: Optional[Callable[[object], object]]) -> Any:
        result = execute(req, observe=observe)
        if not result.ok:
            status = "OOMed" if result.status == STATUS_OOM else result.status
            raise ProfileError(
                f"{req.cell_key}: cell {status} ({result.error}); nothing "
                "to profile")
        return result.snapshot

    t0 = time.perf_counter()
    reference_sim = run(None)
    reference_seconds = time.perf_counter() - t0

    profiler = WallProfiler()
    sampler = (SamplingProfiler(sample_interval) if sample else None)

    def start_profiling(facade: object) -> None:
        profiler.install(facade)
        profiler.start()
        if sampler is not None:
            sampler.start()

    try:
        profiled_sim = run(start_profiling)
    finally:
        if sampler is not None:
            sampler.stop()
        if profiler._t0 is not None and profiler._t1 is None:
            profiler.stop()
        profiler.uninstall()
    check_neutral(req.cell_key, reference_sim, profiled_sim, "profiling")

    total = profiler.window_seconds
    doc: dict[str, Any] = {
        "cell": req.cell_key,
        "subsystems": profiler.breakdown(),
        "total_seconds": total,
        "reference_seconds": reference_seconds,
        "overhead_ratio": (total / reference_seconds
                           if reference_seconds > 0 else None),
        "sim": profiled_sim,
        "neutral": True,  # check_neutral raised otherwise
    }
    if sampler is not None:
        doc["samples"] = sampler.to_dict()
    return doc


def profile_scenario(scenario: Any, *, sample: bool = False,
                     sample_interval: float = 0.005,
                     warmup_iterations: Optional[int] = None,
                     measure_iterations: Optional[int] = None,
                     batch: Optional[int] = None,
                     scale: Optional[float] = None,
                     seed: Optional[int] = None,
                     progress: Optional[Callable[[str], None]] = None,
                     ) -> dict[str, Any]:
    """Profile every cell of a bench scenario (name or ``Scenario``).

    The profile document mirrors the doctor's shape: one entry per
    UM-family cell, tensor-swap policies listed under ``skipped``.
    """
    from ..bench.manifest import get_scenario

    scenario = get_scenario(scenario)
    doc: dict[str, Any] = {
        "profile_schema_version": PROFILE_SCHEMA_VERSION,
        "scenario": scenario.name,
        "model": scenario.model,
        "paper_batch": scenario.paper_batch if batch is None else batch,
        "sampled": sample,
        "cells": {},
        "skipped": {},
    }
    requests = scenario.requests(
        batch=batch, scale=scale, seed=seed,
        warmup_iterations=warmup_iterations,
        measure_iterations=measure_iterations)
    for cell, request in requests.items():
        if progress:
            progress(f"profile: running {cell} (reference + profiled) ...")
        try:
            doc["cells"][cell] = profile_request(
                request, sample=sample, sample_interval=sample_interval)
        except TypeError:
            doc["skipped"][cell] = "no UM engine (tensor-swap policy)"
        except ProfileError as exc:
            doc["skipped"][cell] = str(exc)
    return doc


def validate_profile(doc: Any) -> dict[str, Any]:
    """Structural validation of a profile document; raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("profile must be a JSON object")
    if doc.get("profile_schema_version") != PROFILE_SCHEMA_VERSION:
        raise ValueError(
            f"profile_schema_version must be {PROFILE_SCHEMA_VERSION}, "
            f"got {doc.get('profile_schema_version')!r}")
    cells = doc.get("cells")
    if not isinstance(cells, dict):
        raise ValueError("profile 'cells' must be an object")
    if not cells and not doc.get("skipped"):
        raise ValueError("profile covers no cells")
    for name, cell in cells.items():
        if not isinstance(cell, dict):
            raise ValueError(f"cell {name!r} must be an object")
        subsystems = cell.get("subsystems")
        if not isinstance(subsystems, dict) or not subsystems:
            raise ValueError(
                f"cell {name!r}: subsystems must be a non-empty object")
        for sub, entry in subsystems.items():
            if not isinstance(entry, dict) \
                    or not isinstance(entry.get("exclusive_seconds"),
                                      (int, float)) \
                    or not isinstance(entry.get("calls"), int):
                raise ValueError(
                    f"cell {name!r}: subsystem {sub!r} needs numeric "
                    "exclusive_seconds and integer calls")
        total = cell.get("total_seconds")
        if not isinstance(total, (int, float)) or total < 0:
            raise ValueError(
                f"cell {name!r}: total_seconds must be non-negative")
        summed = sum(float(e["exclusive_seconds"])
                     for e in subsystems.values())
        if abs(summed - float(total)) > 1e-6 + 1e-9 * len(subsystems):
            raise ValueError(
                f"cell {name!r}: exclusive breakdown sums to {summed!r}, "
                f"not total_seconds {total!r}")
        if cell.get("neutral") is not True:
            raise ValueError(
                f"cell {name!r}: profiled run was not sim-neutral")
        if not isinstance(cell.get("sim"), dict):
            raise ValueError(f"cell {name!r}: sim must be an object")
    return doc


# --------------------------------------------------------------------- #
# exports: human table + speedscope
# --------------------------------------------------------------------- #


def format_profile(doc: dict[str, Any]) -> str:
    """Human rendering: one exclusive-breakdown table per cell."""
    from ..harness.report import format_table

    lines: list[str] = []
    lines.append(f"profile: {doc['scenario']} "
                 f"({doc['model']} @ paper batch {doc['paper_batch']})")
    for cell, body in doc["cells"].items():
        total = body["total_seconds"]
        overhead = body.get("overhead_ratio")
        lines.append("")
        rows = []
        ranked = sorted(body["subsystems"].items(),
                        key=lambda kv: -kv[1]["exclusive_seconds"])
        for name, entry in ranked:
            seconds = entry["exclusive_seconds"]
            share = seconds / total if total > 0 else 0.0
            rows.append([name, f"{seconds * 1e3:.2f}",
                         f"{100.0 * share:.1f}%", entry["calls"]])
        lines.append(format_table(
            ["subsystem", "exclusive (ms)", "share", "calls"], rows,
            title=f"{cell}: {total:.3f}s profiled "
                  f"(reference {body['reference_seconds']:.3f}s, "
                  f"overhead {overhead:.2f}x)" if overhead is not None else
                  f"{cell}: {total:.3f}s profiled"))
    for cell, why in doc.get("skipped", {}).items():
        lines.append("")
        lines.append(f"-- {cell}: skipped ({why})")
    return "\n".join(lines)


def speedscope_document(doc: dict[str, Any]) -> dict[str, Any]:
    """A speedscope-format file for ``doc`` (one profile per cell).

    With sampled stacks (``--sample``) each cell becomes a real sampled
    stack profile; otherwise the exclusive subsystem breakdown is emitted
    as one weighted sample per subsystem — a flat but valid flamegraph.
    """
    frame_index: dict[str, int] = {}

    def frame(name: str) -> int:
        if name not in frame_index:
            frame_index[name] = len(frame_index)
        return frame_index[name]

    profiles: list[dict[str, Any]] = []
    for cell, body in doc["cells"].items():
        samples: list[list[int]] = []
        weights: list[float] = []
        sampled = body.get("samples")
        if sampled and sampled.get("stacks"):
            interval = float(sampled["interval_seconds"])
            for stack in sampled["stacks"]:
                samples.append([frame(f) for f in stack["frames"]])
                weights.append(stack["count"] * interval)
        else:
            for name, entry in sorted(body["subsystems"].items()):
                seconds = float(entry["exclusive_seconds"])
                if seconds <= 0.0:
                    continue
                samples.append([frame(name)])
                weights.append(seconds)
        profiles.append({
            "type": "sampled",
            "name": cell,
            "unit": "seconds",
            "startValue": 0,
            "endValue": sum(weights),
            "samples": samples,
            "weights": weights,
        })
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "exporter": "repro profile",
        "name": f"repro profile {doc.get('scenario', '')}".strip(),
        "activeProfileIndex": 0,
        "shared": {
            "frames": [{"name": name} for name in frame_index],
        },
        "profiles": profiles,
    }


def validate_speedscope(doc: Any) -> dict[str, Any]:
    """Check the invariants speedscope itself requires; raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("speedscope document must be an object")
    frames = (doc.get("shared") or {}).get("frames")
    if not isinstance(frames, list):
        raise ValueError("speedscope shared.frames must be a list")
    for entry in frames:
        if not isinstance(entry, dict) or not entry.get("name"):
            raise ValueError("every speedscope frame needs a name")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("speedscope profiles must be a non-empty list")
    for profile in profiles:
        if profile.get("type") != "sampled":
            raise ValueError("profiles must be of type 'sampled'")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ValueError("sampled profile needs samples and weights")
        if len(samples) != len(weights):
            raise ValueError(
                f"profile {profile.get('name')!r}: {len(samples)} samples "
                f"but {len(weights)} weights")
        for stack in samples:
            for idx in stack:
                if not isinstance(idx, int) or not 0 <= idx < len(frames):
                    raise ValueError(
                        f"profile {profile.get('name')!r}: frame index "
                        f"{idx!r} out of range")
    return doc
