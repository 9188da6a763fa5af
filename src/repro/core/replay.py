"""Steady-state iteration replay: skip the model layer once it repeats.

Training loops are periodic: after the first couple of iterations the
torchsim layer (graph construction, autograd, the optimizer) emits exactly
the same allocator/kernel event stream every iteration.  Re-deriving that
stream each time is pure overhead for the memory-system simulation, which
only consumes the stream.  The :class:`IterationReplayer` records each live
iteration's events at the allocator and memory-manager boundaries, and once
consecutive iterations produce identical streams it *replays* the recorded
stream directly, skipping tensor and autograd bookkeeping entirely.  Replay
runs in two modes over one event list:

* **verified** — the first replayed iteration (and any iteration after the
  allocator was touched from outside) drives the real caching allocator,
  so invalidation listeners and
  :class:`~repro.torchsim.allocator.AllocatorStats` stay exact, and every
  allocation's address is checked against the recording;
* **compiled** — once a verified iteration leaves the allocator's
  :meth:`~repro.torchsim.allocator.CachingAllocator.structure` exactly as
  it found it, the allocator is at a fixed point: it is deterministic and
  reads nothing from the engine or driver, so every later iteration would
  repeat the same calls, return the same addresses, send the same
  ``(addr, size, active)`` notifications and add the same stats deltas.
  A compiled iteration therefore makes no allocator call: it re-delivers
  the verified iteration's notifications (as immutable
  :class:`~repro.torchsim.allocator.BlockView` values) to the other state
  listeners, in stream order between the kernel launches, and advances
  the allocator stats by the verified delta.

The compiled mode is guarded by the allocator's ``mutations`` counter: if
anything allocated, freed or flushed since verification, the iteration
runs verified again (and re-compiles if that iteration is a fixed point).

Why replay is sound: the model layer is open-loop with respect to the
memory system.  Nothing in model or tensor code reads simulated time,
engine counters or driver state, UM allocation never fails, and no
``step_fn`` branches on the iteration number — so the emitted stream is a
function of model-layer state alone, and a stream that repeats for
consecutive iterations repeats forever.  The two guarded exceptions:

* irregular (sparse) launches draw their access subset from the device RNG
  every launch, so their access plans are fresh list objects each time and
  the identity comparison below never declares them stable;
* allocator divergence during a verified iteration (an allocation returning
  a different address than recorded) raises :class:`ReplayDivergence` — a
  hard error, never silent corruption.

Replay preserves bit-identical simulated output: the runtime, driver and
engine receive exactly the calls a live iteration would have made, in the
same order, with the same arguments; the allocator receives them too until
its fixed point proves the remaining calls redundant.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, Optional

from ..sim.engine import KernelExecution
from ..torchsim.allocator import AllocatorStats, BlockView

if TYPE_CHECKING:  # pragma: no cover
    from ..torchsim.allocator import CachingAllocator, PTBlock
    from ..torchsim.context import Device
    from ..torchsim.kernels import KernelLaunch
    from .um_manager import UMMemoryManager

#: Consecutive identical iteration pairs required before replay engages
#: (i.e. three byte-identical iterations in a row).
STABLE_PAIRS = 2

_ALLOC = 0
_FREE = 1
_LAUNCH = 2

#: Ages for free-event references: the allocation lives in the current or
#: the previous iteration.  Frees of older blocks are not expressible and
#: mark the iteration non-replayable.
_CUR = 0
_PREV = 1

_STAT_FIELDS = tuple(f.name for f in fields(AllocatorStats))


class ReplayDivergence(RuntimeError):
    """Replay produced different allocator state than the recording."""


class _LaunchShim:
    """Stand-in payload for a replayed kernel launch.

    Carries exactly the fields the runtime, tracer and recorder read
    (``exec_signature`` pre-built as a plain attribute — it is hashed per
    launch).  Holding the original :class:`KernelLaunch` instead would pin
    its operand tensors alive and perturb free ordering.
    """

    __slots__ = ("name", "arg_signature", "exec_signature")

    def __init__(self, name: str, arg_signature: tuple):
        self.name = name
        self.arg_signature = arg_signature
        self.exec_signature = (name, arg_signature)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_LaunchShim({self.name!r})"


class IterationReplayer:
    """Records one training iteration's event stream; replays it when stable.

    Installed on :class:`~repro.torchsim.context.Device` by the UM-family
    facades; :meth:`~repro.models.base.Workload.run` routes through
    :meth:`run` when present.
    """

    def __init__(self, device: "Device", manager: "UMMemoryManager"):
        self.device = device
        self.manager = manager
        manager.replay_recorder = self
        # Kept so compiled iterations can skip exactly this listener.
        self._listener = self._on_block_state
        device.allocator.state_listeners.append(self._listener)
        self.iterations_replayed = 0
        #: Replayed iterations that made no allocator call (a subset of
        #: ``iterations_replayed``).
        self.iterations_compiled = 0
        self._recording = False
        self._stable_pairs = 0
        # The frozen stream; compiled in place (see _compile) once a
        # verified iteration proves the allocator is at a fixed point.
        self._stream: Optional[list] = None
        # Allocator ``mutations`` when the compiled stream was verified;
        # None while the stream is not compiled or must be re-verified.
        self._verified_at: Optional[int] = None
        # (AllocatorStats field, per-iteration delta), non-zero ones only.
        self._stats_delta: list[tuple[str, int]] = []
        # Notifications captured during a verified iteration, else None.
        self._notes: Optional[list] = None
        # Current / previous live iteration, rolled by _end_record.
        self._events: list = []
        self._replayable = True
        self._prev_events: Optional[list] = None
        self._alloc_blocks: list = []
        self._prev_alloc_blocks: list = []
        self._cur_map: dict[int, int] = {}
        self._prev_map: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # the Workload.run loop
    # ------------------------------------------------------------------ #

    def run(self, workload, iterations: int) -> None:
        for _ in range(iterations):
            if self._stream is not None:
                self._replay_iteration()
                workload.iterations_run += 1
            else:
                self._recording = True
                self._replayable = True
                try:
                    workload.step()
                finally:
                    self._recording = False
                self._end_record()

    # ------------------------------------------------------------------ #
    # recording (live iterations)
    # ------------------------------------------------------------------ #

    def on_launch(self, launch: "KernelLaunch", accesses: list,
                  compute: float) -> None:
        """Called by the manager for every live kernel launch."""
        if self._recording:
            self._events.append(
                (_LAUNCH, launch.name, launch.arg_signature, accesses, compute)
            )

    def _on_block_state(self, block: "PTBlock", active: bool) -> None:
        notes = self._notes
        if notes is not None:
            notes.append((block.addr, block.size, active))
            return
        if not self._recording:
            return
        key = id(block)
        if active:
            # ``requested`` is the caller's size — what replay must pass
            # back to ``allocate`` to reproduce rounding and pool choice.
            self._cur_map[key] = len(self._alloc_blocks)
            self._alloc_blocks.append(block)
            self._events.append((_ALLOC, block.requested, block.addr))
            return
        idx = self._cur_map.get(key)
        if idx is not None and self._alloc_blocks[idx] is block:
            self._events.append((_FREE, _CUR, idx))
            return
        idx = self._prev_map.get(key)
        if idx is not None and self._prev_alloc_blocks[idx] is block:
            self._events.append((_FREE, _PREV, idx))
            return
        # Freeing a block allocated before the previous iteration (warm-up
        # teardown): not expressible as a replayable reference.
        self._replayable = False

    def _end_record(self) -> None:
        prev = self._prev_events
        if (
            self._replayable
            and prev is not None
            and self._streams_equal(prev, self._events)
        ):
            self._stable_pairs += 1
        else:
            self._stable_pairs = 0
        if self._stable_pairs >= STABLE_PAIRS:
            self._stream = self._freeze(self._events)
            self._prev_alloc_blocks = self._alloc_blocks
            # Recording is over: drop the comparison window.
            self._prev_events = None
            self._prev_map = {}
        else:
            # A non-replayable iteration contains events a replay could not
            # express (it recorded no marker for them), so it must never
            # anchor a stable pair: drop it instead of comparing against it.
            self._prev_events = self._events if self._replayable else None
            self._prev_alloc_blocks = self._alloc_blocks
            self._prev_map = self._cur_map
        self._events = []
        self._alloc_blocks = []
        self._cur_map = {}

    @staticmethod
    def _streams_equal(a: list, b: list) -> bool:
        if len(a) != len(b):
            return False
        for ea, eb in zip(a, b):
            if ea[0] != eb[0]:
                return False
            if ea[0] == _LAUNCH:
                # The access plan must be the *same list object*: the
                # manager's plan cache returns one object per operand
                # signature, so identity certifies an identical dense
                # access sequence, while sparse plans (fresh lists drawn
                # from the RNG) can never compare stable.
                if (
                    ea[3] is not eb[3]
                    or ea[1] != eb[1]
                    or ea[2] != eb[2]
                    or ea[4] != eb[4]
                ):
                    return False
            elif ea != eb:
                return False
        return True

    @staticmethod
    def _freeze(events: list) -> list:
        """Pre-build each launch's :class:`KernelExecution` once.

        Allocator events keep their recorded form: ``(_ALLOC, requested,
        addr)`` and ``(_FREE, age, index)``.
        """
        frozen = []
        for ev in events:
            if ev[0] == _LAUNCH:
                frozen.append((_LAUNCH, KernelExecution(
                    payload=_LaunchShim(ev[1], ev[2]), accesses=ev[3],
                    compute_time=ev[4])))
            else:
                frozen.append(ev)
        return frozen

    @staticmethod
    def _compile(stream: list, notes: list) -> list:
        """Attach each allocator event's verified notification to it.

        ``notes`` holds one ``(addr, size, active)`` per allocator event,
        in stream order. The result replaces the stream: allocator events
        become ``(kind, a, b, view, active)``, still runnable verified.
        """
        compiled = []
        it = iter(notes)
        for ev in stream:
            if ev[0] == _LAUNCH:
                compiled.append(ev)
            else:
                addr, size, active = next(it)
                compiled.append(
                    (ev[0], ev[1], ev[2], BlockView(addr, size), active))
        return compiled

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #

    def _replay_iteration(self) -> None:
        allocator = self.device.allocator
        if self._verified_at == allocator.mutations:
            self._run_compiled(allocator)
        else:
            self._run_verified(allocator)
        self.iterations_replayed += 1

    def _run_verified(self, allocator: "CachingAllocator") -> None:
        """Drive the real allocator; compile if it ends where it began."""
        before = allocator.structure()
        stats = allocator.stats
        stats_before = [getattr(stats, name) for name in _STAT_FIELDS]
        device = self.device
        allocate = allocator.allocate
        free = allocator.free
        replay_kernel = self.manager.replay_kernel
        prev_blocks = self._prev_alloc_blocks
        new_blocks: list = []
        append = new_blocks.append
        notes: list = []
        self._notes = notes
        try:
            for ev in self._stream:
                kind = ev[0]
                if kind == _LAUNCH:
                    device.kernel_count += 1
                    replay_kernel(ev[1])
                elif kind == _ALLOC:
                    block = allocate(ev[1])
                    if block.addr != ev[2]:
                        raise ReplayDivergence(
                            f"replayed allocation of {ev[1]} B returned "
                            f"addr {block.addr:#x}, recorded {ev[2]:#x}"
                        )
                    append(block)
                else:
                    free(new_blocks[ev[2]] if ev[1] == _CUR
                         else prev_blocks[ev[2]])
        finally:
            self._notes = None
        self._prev_alloc_blocks = new_blocks
        if allocator.structure() != before:
            self._verified_at = None
            return
        self._stream = self._compile(self._stream, notes)
        self._stats_delta = [
            (name, getattr(stats, name) - old)
            for name, old in zip(_STAT_FIELDS, stats_before)
            if getattr(stats, name) != old
        ]
        self._verified_at = allocator.mutations

    def _run_compiled(self, allocator: "CachingAllocator") -> None:
        """Replay a verified fixed point without calling the allocator."""
        device = self.device
        replay_kernel = self.manager.replay_kernel
        own = self._listener
        listeners = [fn for fn in allocator.state_listeners if fn is not own]
        for ev in self._stream:
            if ev[0] == _LAUNCH:
                device.kernel_count += 1
                replay_kernel(ev[1])
            else:
                view, active = ev[3], ev[4]
                for listener in listeners:
                    listener(view, active)
        stats = allocator.stats
        for name, delta in self._stats_delta:
            setattr(stats, name, getattr(stats, name) + delta)
        self.iterations_compiled += 1
