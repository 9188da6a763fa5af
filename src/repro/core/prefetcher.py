"""The prefetching thread: chaining through correlation tables (Section 4.2).

Given a trigger block, it walks successor links in the current kernel's
block table, emitting prefetch commands. When the walk reaches the table's
*end* block, it predicts the next kernel via the execution table and hops
to that kernel's *start* block — "chaining". The walk pauses once it has
covered the next N kernels (the prefetch degree) and resumes as the
executing kernels complete; a fault on a block outside the predicted
window ends the chain and starts a new one from the faulted block.

Position bookkeeping is in *absolute kernel sequence numbers*: the GPU is
at position ``gpu_pos`` (incremented per launch) and the chain at
``chain_pos`` (incremented per hop), with ``chain_pos - gpu_pos`` capped at
the prefetch degree. Each position owns the set of blocks the chain
predicted for that kernel; the union over live positions is the
"expected to be accessed by the current and next N kernels" set used by
the pre-evictor (Section 5.1). Sets retire exactly when their kernel
completes, so chain restarts never drop near-term protection.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..obs.recorder import NULL_RECORDER, TRACK_MIGRATION
from .correlator import Correlator
from .exec_table import NO_KERNEL


class ChainingPrefetcher:
    """Chain walker producing prefetch commands (UM block indices).

    ``recorder``/``clock`` are observability plumbing: chain breaks are
    worth seeing on the timeline (each one is a prediction failure that
    stalls prefetching until the next launch or fault), and the prefetcher
    itself has no notion of time, so the driver lends it the engine clock.
    """

    def __init__(self, correlator: Correlator, degree: int, *,
                 recorder=NULL_RECORDER,
                 clock: Callable[[], float] = lambda: 0.0):
        if degree < 1:
            raise ValueError(f"prefetch degree must be >= 1, got {degree}")
        self.correlator = correlator
        self.degree = degree
        self._rec_on = False
        self.recorder = recorder  # property: also caches the enabled flag
        self.clock = clock
        self._gpu_pos = 0        # kernel the GPU is executing
        self._chain_pos = 0      # kernel the chain is predicting for
        self._chain_exec: int = NO_KERNEL
        self._chain_history: tuple[int, int, int] = (NO_KERNEL,) * 3
        self._frontier: deque[int] = deque()
        self._queue: deque[int] = deque()
        # Predicted blocks per absolute kernel position (the window), and
        # a bound below every live position: retirement walks up from it.
        self._window_sets: dict[int, set[int]] = {}
        self._window_low = 0
        # The union of the window sets, maintained incrementally: the
        # count is how many live window sets contain each block, so
        # retiring a position is O(|its set|) instead of re-unioning the
        # whole window on every kernel completion.
        self._protected: set[int] = set()
        self._protect_count: dict[int, int] = {}
        # True while the chain cannot hop: it is paused at the window edge,
        # or its next-kernel prediction failed (a dead chain). Neither can
        # change before the window moves — a launch advances ``gpu_pos``
        # and records the execution table; repositioning moves
        # ``chain_pos`` — so until then a step with nothing buffered
        # provably returns False with no side effects, and the per-access
        # queue polls skip the walk machinery entirely. A dead chain thus
        # books one chain break per failed prediction, not one per poll.
        self._paused = False
        self.commands_emitted = 0
        self.chain_breaks = 0
        # Provenance source for successor-expansion emissions: "chain"
        # normally, "restart" for the wave right after a fault re-sync.
        self._walk_src = "chain"
        # Positive-walk memo: (exec, history) -> (hops, exec', history')
        # for walks that ended at a kernel with something to prefetch.
        # Every fault restart re-hops the same fault-free kernel runs the
        # previous chain already walked; within one prediction topology
        # (execution-table content + the set of kernels with a recorded
        # start block) the hop sequence is a pure function of the start
        # state, so the replay advances the chain in one jump with the
        # identical counter effects (one table hit per hop). The memo is
        # dropped whenever either topology version moves.
        self._hop_memo: dict[tuple, tuple] = {}
        self._hop_memo_topo: tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------------ #
    # observability plumbing
    # ------------------------------------------------------------------ #

    @property
    def recorder(self):
        return self._recorder

    @recorder.setter
    def recorder(self, rec) -> None:
        # Cache the enabled flag once at attach time so every hot-path
        # guard below is a single attribute test, not two.
        self._recorder = rec
        self._rec_on = rec.enabled

    # ------------------------------------------------------------------ #
    # triggers (driven by the driver)
    # ------------------------------------------------------------------ #

    def on_kernel_launch(self, exec_id: int) -> None:
        """A kernel launches: advance the GPU position; revive the chain
        from this kernel's table if it has died."""
        self._gpu_pos += 1
        self._paused = False
        self._walk_src = "chain"
        if self._chain_pos < self._gpu_pos:
            self._chain_pos = self._gpu_pos
        if self._alive():
            self._expand()
            return
        self._position_chain(exec_id)
        table = self.correlator.block_tables.get(exec_id)
        if table is not None and table.start_block is not None:
            self._seed(table.start_block, "seed")
        self._expand()

    def on_kernel_end(self) -> None:
        """The executing kernel finished: retire its predicted set.

        Every position up to ``gpu_pos`` retires; they are visited upward
        from the lowest live one, so the cost is the positions retired,
        not the window's size. (The order is immaterial: the protected set
        is the union of what remains.)
        """
        gpu_pos = self._gpu_pos
        low = self._window_low
        if low <= gpu_pos:
            window_sets = self._window_sets
            counts = self._protect_count
            protected = self._protected
            for pos in range(low, gpu_pos + 1):
                for block in window_sets.pop(pos, ()):
                    left = counts[block] - 1
                    if left:
                        counts[block] = left
                    else:
                        del counts[block]
                        protected.discard(block)
            self._window_low = gpu_pos + 1
        self._expand()

    def restart_from_fault(self, block: int) -> None:
        """Re-sync the chain from a faulted block.

        A fault on a block inside the predicted window means the chain is
        on the right path and merely behind the GPU — leave it alone (the
        queued commands are still correct). A fault on an unknown block
        means the chain diverged: end it and start a new chain from the
        faulted block, as the paper's prefetching thread does when a new
        fault interrupt arrives. Already-enqueued commands survive — the
        prefetch queue is a separate SPSC queue that the migration thread
        keeps draining.

        The faulted block itself seeds the new walk but is *not* emitted as
        a prefetch command: the demand fault has already migrated it, so a
        command would only be popped and dropped by the migration thread
        (inflating ``commands_emitted`` and the accuracy stats) — or worse,
        wastefully re-migrate it after an eviction in between.
        """
        exec_id = self.correlator.current_exec
        if exec_id == NO_KERNEL:
            return
        if block in self._protected and self._alive():
            return
        self._position_chain(exec_id)
        self._frontier.append(block)
        self._note_emitted(block)
        self._walk_src = "restart"
        if self._rec_on:
            self._recorder.note_chain_restart(block, exec_id)
        self._expand()

    # ------------------------------------------------------------------ #
    # command consumption (the migration thread)
    # ------------------------------------------------------------------ #

    def pop_command(self) -> Optional[int]:
        """Next UM block index to prefetch."""
        queue = self._queue
        if queue:
            return queue.popleft()
        if self._paused and not self._frontier:
            # Paused at the window edge with nothing buffered: stepping
            # would hit the window-full check (which precedes every
            # counter and every prediction) and return False. The engine
            # polls this queue before every block access, so short-circuit.
            return None
        while not queue:
            if not self._step_chain():
                return None
        return queue.popleft()

    def push_back(self, block: int) -> None:
        """Return an unprocessed command to the front of the queue."""
        self._queue.appendleft(block)

    def seed_advised(self, block: int) -> None:
        """Hint-driven seed: jump ``block`` to the front of the queue.

        Driven by the madvise-style hint API (sticky advice on an
        allocation): the block skips the chain walk and is prefetched at
        the migration thread's next opportunity, ahead of any learned
        predictions. Deliberately *not* added to the protection window —
        hints carry no kernel position, and their eviction bias lives in
        the hint-aware victim tiers instead.
        """
        self._queue.appendleft(block)
        self.commands_emitted += 1
        if self._rec_on:
            self._recorder.note_command(block, "hint", NO_KERNEL, 0)

    def protected_blocks(self) -> set[int]:
        """Blocks predicted for the current and next N kernels."""
        return self._protected

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _alive(self) -> bool:
        """True while the chain has work or is paused at the window edge."""
        return (
            bool(self._frontier)
            or bool(self._queue)
            or self._chain_pos > self._gpu_pos
        )

    def _position_chain(self, exec_id: int) -> None:
        """Point the walk at the GPU's current kernel."""
        self._frontier.clear()
        self._chain_exec = exec_id
        self._chain_history = self.correlator.recent_history()
        self._chain_pos = self._gpu_pos
        self._paused = False

    def _expand(self) -> None:
        """Eagerly walk the chain up to the look-ahead window.

        The prefetching thread runs concurrently with the GPU in the paper;
        emission must not be gated on the migration thread popping commands,
        or the chain falls behind during fault storms.
        """
        if self._paused and not self._frontier:
            return  # window edge, nothing buffered: a step cannot progress
        while self._step_chain():
            pass

    def _seed(self, block: int, src: str = "seed") -> None:
        """Predict ``block`` for the chain's current kernel.

        Window membership is recorded unconditionally — a block used by
        several kernels inside the window must stay protected until its
        *last* predicted use retires. Only the prefetch command itself is
        deduplicated.
        """
        already = block in self._protected
        self._note_emitted(block)
        if already:
            return
        self._frontier.append(block)
        self._queue.append(block)
        self.commands_emitted += 1
        if self._rec_on:
            self._recorder.note_command(
                block, src, self._chain_exec,
                self._chain_pos - self._gpu_pos,
            )

    def _note_emitted(self, block: int) -> None:
        pos = self._chain_pos
        ws = self._window_sets.get(pos)
        if ws is None:
            ws = self._window_sets[pos] = set()
            if pos < self._window_low:
                self._window_low = pos
        if block not in ws:
            ws.add(block)
            counts = self._protect_count
            prev = counts.get(block, 0)
            counts[block] = prev + 1
            if not prev:
                self._protected.add(block)

    def _step_chain(self) -> bool:
        """Expand one frontier block; returns False when the chain pauses.

        Emits each not-yet-predicted successor as a prefetch command.
        Reaching the recorded end block hands the chain to the predicted
        next kernel (chaining); a failed prediction ends the chain.
        """
        if self._chain_exec == NO_KERNEL:
            return False
        frontier = self._frontier
        if not frontier:
            # Nothing left to expand under this kernel (or the kernel has
            # no table at all — same outcome): chain onward.
            return self._hop_to_next_kernel()
        table = self.correlator.block_tables.get(self._chain_exec)
        if table is None:
            return self._hop_to_next_kernel()
        queue = self._queue
        protected = self._protected
        note_emitted = self._note_emitted
        end_block = table.end_block
        rec_on = self._rec_on
        while frontier:
            block = frontier.popleft()
            emitted_any = False
            for succ in table.successors_view(block):
                if succ in protected:
                    note_emitted(succ)  # refresh window membership
                    continue
                frontier.append(succ)
                queue.append(succ)
                note_emitted(succ)
                self.commands_emitted += 1
                emitted_any = True
                if rec_on:
                    self._recorder.note_command(
                        succ, self._walk_src, self._chain_exec,
                        self._chain_pos - self._gpu_pos,
                    )
            if block == end_block:
                return self._hop_to_next_kernel()
            if emitted_any:
                return True
        # Frontier exhausted without meeting the end block: treat as end of
        # this kernel's recorded pattern and hop onward.
        return self._hop_to_next_kernel()

    def _record_chain_break(self, reason: str) -> None:
        self.chain_breaks += 1
        if self._rec_on:
            self._recorder.note_chain_break(reason, self._chain_exec)
            self._recorder.instant(
                TRACK_MIGRATION, "chain_break", self.clock(),
                args={"exec_id": self._chain_exec,
                      "chain_pos": self._chain_pos,
                      "reason": reason},
            )

    def _hop_to_next_kernel(self) -> bool:
        """Advance the chain across kernel boundaries until it finds work.

        Kernels that never fault (no recorded start) are hopped through:
        they contribute nothing to prefetch but still consume look-ahead
        window. The loop stops when the window is full (pause: resumes as
        kernels complete) or a prediction fails (chain break). Either way
        the chain stays paused until a launch or a restart.
        """
        if self._paused or self._chain_pos - self._gpu_pos >= self.degree:
            self._paused = True
            return False  # window full or chain dead: pause
        correlator = self.correlator
        exec_table = correlator.exec_table
        topo = (exec_table.content_version, correlator.starts_version)
        if topo != self._hop_memo_topo:
            self._hop_memo.clear()
            self._hop_memo_topo = topo
        memo = self._hop_memo
        start_key = (self._chain_exec, self._chain_history)
        cached = memo.get(start_key)
        if cached is not None:
            hops, final_exec, final_history = cached
            # The replayed walk makes one prediction per hop, the last one
            # landing on the stop kernel; each passes the window check iff
            # the whole walk fits in the remaining look-ahead room.
            if hops <= self.degree - (self._chain_pos - self._gpu_pos):
                exec_table.hits += hops
                self._chain_pos += hops
                self._chain_exec = final_exec
                self._chain_history = final_history
                self._walk_src = "chain"
                start = correlator.block_tables[final_exec].start_block
                if start in self._protected:
                    self._note_emitted(start)
                    self._frontier.append(start)
                    return True
                self._seed(start, "hop")
                return True
        hops = 0
        while True:
            if self._chain_pos - self._gpu_pos >= self.degree:
                self._paused = True
                return False  # window full: pause
            nxt = exec_table.predict_next(
                self._chain_history, self._chain_exec
            )
            if nxt is None:
                self._paused = True
                self._record_chain_break(exec_table.last_miss_reason)
                return False
            self._chain_history = (
                self._chain_history[1], self._chain_history[2], self._chain_exec,
            )
            self._chain_exec = nxt
            self._chain_pos += 1
            hops += 1
            nxt_table = correlator.block_tables.get(nxt)
            if nxt_table is None or nxt_table.start_block is None:
                continue  # fault-free kernel: nothing to prefetch, chain on
            memo[start_key] = (hops, self._chain_exec, self._chain_history)
            self._walk_src = "chain"
            start = nxt_table.start_block
            if start in self._protected:
                # Already predicted within the window (shared working set);
                # refresh its membership and still expand it under this
                # kernel's table so successors recorded here are found.
                self._note_emitted(start)
                self._frontier.append(start)
                return True
            self._seed(start, "hop")
            return True
