"""Outside-in layer tracer for the host-time benchmark.

:class:`Tracer` is a :class:`repro.obs.prof.WallProfiler`: the profiler
does the exclusive attribution (every seam entry and exit charges the time
since the previous boundary to the seam on top of the stack, or to
``other``, so self times sum to the window) and wraps a facade's instance
seams (:data:`repro.obs.prof.INSTANCE_SEAMS`) through ``install()``. The
tracer adds:

* class- and module-level seams (:data:`FULL_SEAMS`) for what the profiler
  registry does not cover: the torchsim model layer (functional ops, tape,
  module and optimizer calls), the UM manager, the tensor-swap managers,
  the serve sessions' ``serve_request``, and result-cache / journal I/O;
* layer names: each seam name (a profiler bucket, or a name given here)
  maps to a layer named after the module;
* per-call durations of timed seams, and kept spans, written once at the
  end as a Chrome-trace document. Spans shorter than :data:`KEEP_OVER_S`
  count in the totals but are not kept one by one, which bounds the
  trace's size.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.prof import SUB_OTHER, WallProfiler

OTHER = SUB_OTHER

#: Shorter spans count in the totals but are not kept one by one, which
#: bounds the Chrome trace to about one span per 100 µs of the window.
KEEP_OVER_S = 1e-4

#: ``repro.obs.prof`` bucket name -> layer name (after the module).
LAYER_OF_BUCKET = {
    "engine-loop": "sim.engine",
    "migration": "sim.migration",
    "fault-handler": "sim.fault_handler",
    "interconnect": "sim.interconnect",
    "tables": "core.tables",
    "prefetch-policy": "core.prefetch",
    "pre-evict": "core.preevict",
    "replay": "core.replay",
    "allocator": "torchsim.allocator",
}

#: Class- and module-level seams: (module, ``Class.method`` or ``*`` for
#: every public function of the module, layer, timed name or ``None``).
#: A timed seam also keeps the duration of every call under its name.
SERVE_SEAMS: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("repro.serve.workloads", "DLRMInferenceSession.serve_request",
     "serve", "serve.dlrm"),
    ("repro.serve.workloads", "GPT2DecodeSession.serve_request",
     "serve", "serve.gpt2-decode"),
)
EXEC_SEAMS: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("repro.exec.cache", "ResultCache.get", "exec", "exec.cache.get"),
    ("repro.exec.cache", "ResultCache.put", "exec", "exec.cache.put"),
    ("repro.exec.journal", "RunJournal.mark_running", "exec", "exec.journal"),
    ("repro.exec.journal", "RunJournal.finish", "exec", "exec.journal"),
)
#: Per-request and per-cell timers only: cheap enough for an untimed pass.
LIGHT_SEAMS = SERVE_SEAMS + EXEC_SEAMS
FULL_SEAMS: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("repro.torchsim.functional", "*", "torchsim", None),
    ("repro.torchsim.autograd", "Tape.record", "torchsim", None),
    ("repro.torchsim.autograd", "Tape.backward", "torchsim", None),
    ("repro.torchsim.module", "Module.__call__", "torchsim", None),
    ("repro.torchsim.optim", "Optimizer.step", "torchsim", None),
    ("repro.torchsim.optim", "Optimizer.zero_grad", "torchsim", None),
    ("repro.core.um_manager", "UMMemoryManager.run_kernel",
     "core.um_manager", None),
    ("repro.core.um_manager", "UMMemoryManager.replay_kernel",
     "core.um_manager", None),
    ("repro.baselines.tensor_swap", "TensorSwapManager.run_kernel",
     "baselines", None),
    ("repro.baselines.tensor_swap", "TensorSwapManager.on_alloc",
     "baselines", None),
    ("repro.baselines.tensor_swap", "TensorSwapManager.handle_alloc_oom",
     "baselines", None),
) + LIGHT_SEAMS


class Tracer(WallProfiler):
    """A :class:`WallProfiler` with layer names, timed seams and spans.

    Single-threaded, like the simulator. Use as::

        tracer = Tracer(FULL_SEAMS)
        with tracer:                  # installs the seams, opens the window
            with tracer.region("cell"), \\
                    tracer.instrumenting(experiment, "build_policy"):
                execute(request)
        tracer.by_layer(tracer.exclusive)   # layer -> exclusive seconds
    """

    def __init__(self, seams: tuple = FULL_SEAMS):
        super().__init__()
        self.seams = seams
        #: Seam name -> layer. Regions map to ``other``.
        self.layer_of: dict[str, str] = {**LAYER_OF_BUCKET, OTHER: OTHER}
        self.timed: set[str] = set()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.region_name = ""
        #: Kept spans: (seam name, start, end, depth).
        self.spans: list[tuple[str, float, float, int]] = []
        #: Seams named in ``seams`` that this source tree does not have.
        self.missing: list[str] = []
        #: Facades built since the last :meth:`take_facades`.
        self.facades: list[Any] = []
        self._starts: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # spans and durations on top of the profiler's attribution
    # ------------------------------------------------------------------ #

    def enter(self, name: str) -> None:
        depth = len(self._stack)
        super().enter(name)
        if len(self._stack) > depth:
            self._starts.append(self._last)

    def exit(self) -> None:
        depth = len(self._stack)
        name = self._stack[-1] if depth else ""
        super().exit()
        if len(self._stack) == depth:
            return
        start, now = self._starts.pop(), self._last
        if name in self.timed:
            key = f"{name}|{self.region_name}" if self.region_name else name
            self.durations[key].append(now - start)
        if self.layer_of.get(name) == OTHER or now - start >= KEEP_OVER_S:
            self.spans.append((name, start, now, len(self._stack)))

    def stop(self) -> None:
        super().stop()
        self._starts.clear()

    def by_layer(self, values: dict[str, Any]) -> dict[str, Any]:
        """Sum per-seam ``exclusive`` seconds or ``calls`` per layer."""
        out: dict[str, Any] = {}
        for name, value in values.items():
            layer = self.layer_of.get(name, name)
            out[layer] = out.get(layer, 0) + value
        return out

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span that is always kept and whose self time is ``other``.

        Durations of timed seams inside it are kept under
        ``"<seam>|<region>"``.
        """
        self.layer_of[name] = OTHER
        self.enter(name)
        outer, self.region_name = self.region_name, name
        try:
            yield
        finally:
            self.region_name = outer
            self.exit()

    # ------------------------------------------------------------------ #
    # seams
    # ------------------------------------------------------------------ #

    def _install_seam(self, module_name: str, target: str, layer: str,
                      timed_name: Optional[str]) -> None:
        module = importlib.import_module(module_name)
        if target == "*":
            owner: Any = module
            funcs = {
                attr: func for attr, func in vars(module).items()
                if not attr.startswith("_") and callable(func)
                and not isinstance(func, type)
                and getattr(func, "__module__", None) == module_name
            }
        else:
            cls_name, _, attr = target.partition(".")
            owner = getattr(module, cls_name, None)
            func = vars(owner).get(attr) if owner is not None else None
            if func is None:
                self.missing.append(f"{module_name}.{target}")
                return
            funcs = {attr: func}
        for attr, func in funcs.items():
            name = timed_name or f"{layer}:{attr}"
            self.layer_of[name] = layer
            if timed_name:
                self.timed.add(name)
            self._patches.append((owner, attr, func))
            setattr(owner, attr, self._wrap(name, func))

    @contextmanager
    def instrumenting(self, module: Any, factory: str) -> Iterator[None]:
        """Install the profiler's instance seams on every facade that
        ``module.<factory>`` builds meanwhile, and undo them on the way out.

        The facade factory is the one seam that sees every facade, training
        and serve alike, before it runs.
        """
        original = getattr(module, factory)

        def build(*args: Any, **kwargs: Any) -> Any:
            facade = original(*args, **kwargs)
            self.facades.append(facade)
            try:
                self.install(facade)
            except TypeError:
                pass  # a tensor-swap facade: only the class seams see it
            return facade

        setattr(module, factory, build)
        try:
            yield
        finally:
            setattr(module, factory, original)
            self.uninstall()

    def take_facades(self) -> list[Any]:
        """The facades built so far, forgotten here so a finished cell's
        simulator is not kept alive."""
        out, self.facades = self.facades, []
        return out

    # ------------------------------------------------------------------ #
    # the window
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "Tracer":
        for seam in self.seams:
            self._install_seam(*seam)
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
        self.uninstall()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def chrome_trace(self) -> dict[str, Any]:
        """The kept spans as a Chrome-trace (Perfetto) document."""
        t0 = self._t0 or 0.0
        events: list[dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "simulator (host time)"}},
        ]
        for name, start, end, depth in sorted(self.spans,
                                              key=lambda s: (s[1], s[3])):
            events.append({
                "name": name, "cat": self.layer_of.get(name, name),
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"depth": depth},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"window_s": self.window_seconds,
                              "keep_over_s": KEEP_OVER_S}}
