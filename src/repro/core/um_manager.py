"""Memory manager running the kernel stream over unified memory.

Shared substrate glue between torchsim and the engine: it decomposes each
kernel's operand tensors into ordered UM block accesses (with first-touch
population), enforces the host backing-store capacity, and drives
:class:`~repro.sim.engine.UMSimulator`. With ``runtime=None`` it behaves as
plain NVIDIA UM (the paper's naive-UM baseline); with a
:class:`~repro.core.runtime.DeepUMRuntime` attached it is DeepUM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..constants import PAGE_SIZE
from ..obs.recorder import TRACK_MEMORY
from ..sim.engine import BlockAccess, KernelExecution, UMSimulator
from ..sim.um_space import UMBlock, advice_labels
from ..torchsim.kernels import KernelCostModel, KernelLaunch

if TYPE_CHECKING:  # pragma: no cover
    from ..torchsim.context import Device
    from .runtime import DeepUMRuntime


class UMCapacityError(RuntimeError):
    """The populated UM footprint exceeded the CPU backing store."""


class UMMemoryManager:
    """Runs kernels through the UM engine (naive UM or DeepUM)."""

    def __init__(
        self,
        engine: UMSimulator,
        host_capacity: int,
        runtime: Optional["DeepUMRuntime"] = None,
    ):
        self.engine = engine
        self.host_capacity = host_capacity
        self.runtime = runtime
        self.cost_model = KernelCostModel(engine.system.gpu)
        self.populated_bytes = 0
        self.peak_populated_bytes = 0
        # (addr, nbytes) -> per-block [(block index, overlap pages)].
        self._decomp_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}
        # Operand-range signature -> finished BlockAccess plan. Dense
        # kernels on pooled (reused) addresses produce the same ordered,
        # deduplicated access list every launch; rebuilding it dominated
        # launch overhead. Sparse launches are never cached (their subset
        # is drawn from the device RNG each launch).
        self._access_plan_cache: dict[tuple, list[BlockAccess]] = {}
        #: Set by :class:`~repro.core.replay.IterationReplayer` when one is
        #: installed; receives every live launch's resolved plan.
        self.replay_recorder = None

    # ------------------------------------------------------------------ #

    def run_kernel(self, launch: KernelLaunch, device: "Device") -> None:
        now = self.engine.now
        if self.runtime is not None:
            self.runtime.before_launch(launch, now)
        accesses = self._build_accesses(launch, device)
        compute = self.cost_model.compute_time(launch)
        rec = self.replay_recorder
        if rec is not None:
            rec.on_launch(launch, accesses, compute)
        self.engine.execute_kernel(
            KernelExecution(payload=launch, accesses=accesses, compute_time=compute)
        )

    def replay_kernel(self, kernel: KernelExecution) -> None:
        """Re-issue a recorded launch: the tail of :meth:`run_kernel`.

        ``kernel`` is prebuilt once at record time: its payload is a shim
        carrying the signature fields and its accesses are the cached plan
        (steady-state blocks are fully populated, so skipping
        ``_build_accesses`` has no side effects a live cache hit would not
        also skip). The engine only reads it, so it is reused every replay.
        """
        if self.runtime is not None:
            self.runtime.before_launch(kernel.payload, self.engine.now)
        self.engine.execute_kernel(kernel)

    def elapsed(self) -> float:
        self.engine.finish()
        return self.engine.now

    def advise(self, addr: int, nbytes: int, advice: int) -> list[UMBlock]:
        """Apply a :class:`~repro.sim.um_space.MemAdvise` hint to a range.

        Marks the spanned UM blocks, notifies the active prefetch policy
        (when one is wired; naive UM has none, so its hints are
        eviction-neutral markers only), and journals the hint on the
        decision track so ``repro doctor`` can attribute hint-driven
        outcomes. Returns the advised blocks.
        """
        blocks = self.engine.um.advise(addr, nbytes, advice)
        runtime = self.runtime
        policy = runtime.driver.policy if runtime is not None else None
        note = getattr(policy, "note_advice", None)
        rec = self.engine.recorder
        label = advice_labels(advice) if rec.enabled else ""
        for blk in blocks:
            if note is not None:
                note(blk.index, int(advice))
            if rec.enabled:
                rec.note_advice(blk.index, label)
        return blocks

    def handle_alloc_oom(self, nbytes: int, device: "Device") -> bool:
        # UM allocation is virtual: it never fails at cudaMalloc time.
        return False

    def on_alloc(self, tensor, device: "Device") -> None:
        return None

    # ------------------------------------------------------------------ #

    def _decompose(self, addr: int, nbytes: int) -> list[tuple[int, int]]:
        """Block decomposition of a byte range, with first-touch population.

        Population happens exactly once per distinct (addr, nbytes) range:
        PT-block reuse returns the same range, so steady-state iterations
        touch already-populated blocks, exactly like real UM.
        """
        key = (addr, nbytes)
        cached = self._decomp_cache.get(key)
        if cached is not None:
            return cached
        parts: list[tuple[int, int]] = []
        growths: list[int] = []
        block_size = self.engine.um.block_size
        end = addr + nbytes
        first = addr // block_size
        last = (end - 1) // block_size
        # Pass 1: plan only. The whole range's growth is known before a
        # single page is populated, so a capacity overshoot raises with no
        # counters touched and no events emitted — a caught UMCapacityError
        # leaves the manager's accounting exactly reconcilable.
        for idx in range(first, last + 1):
            lo = max(addr, idx * block_size)
            hi = min(end, (idx + 1) * block_size)
            pages = (hi - lo + PAGE_SIZE - 1) // PAGE_SIZE
            parts.append((idx, pages))
            blk = self.engine.um.block(idx)
            would_have = min(blk.capacity_pages, blk.populated_pages + pages)
            growths.append((would_have - blk.populated_pages) * PAGE_SIZE)
        total_grown = sum(growths)
        if self.populated_bytes + total_grown > self.host_capacity:
            raise UMCapacityError(
                f"populated UM footprint {self.populated_bytes + total_grown} "
                f"B exceeds host capacity {self.host_capacity} B"
            )
        # Pass 2: apply, in the same block order as the plan.
        for (idx, pages), grown in zip(parts, growths):
            if not grown:
                continue
            blk = self.engine.um.block(idx)
            blk.populate(pages)
            self.populated_bytes += grown
            if blk.index in self.engine.gpu.resident:
                gpu = self.engine.gpu
                gpu.used_bytes += grown
                rec = self.engine.recorder
                if rec.enabled:
                    # In-place population of a resident block is the one
                    # residency-bytes change outside the fault handler;
                    # the memory timeline needs it to reconcile.
                    rec.instant(TRACK_MEMORY, "mem.grow", self.engine.now,
                                args={"block": blk.index, "bytes": grown,
                                      "used": gpu.used_bytes})
        if self.populated_bytes > self.peak_populated_bytes:
            self.peak_populated_bytes = self.populated_bytes
        self._decomp_cache[key] = parts
        return parts

    def _build_accesses(
        self, launch: KernelLaunch, device: "Device"
    ) -> list[BlockAccess]:
        """Ordered, deduplicated UM block accesses for one kernel.

        Dense launches are served from a plan cache keyed by the operands'
        (addr, nbytes) ranges: the decomposition, dedup order and page
        counts are all functions of that signature alone (populated page
        counts never shrink), so the cached list is bit-identical to a
        rebuild. The engine only reads the list, never mutates it.
        """
        operands = launch.operands
        sparse = launch.sparse
        if sparse is None:
            # Key on the raw PT-block address: UM-managed tensors are never
            # swapped out, so ``storage.block`` is always attached here and
            # the property indirection of ``Tensor.addr`` is dead weight on
            # the per-launch path.
            key = tuple([(t.storage.block.addr, t.nbytes)
                         for t in operands])
            cached = self._access_plan_cache.get(key)
            if cached is not None:
                return cached
        um = self.engine.um
        seen: set[int] = set()
        accesses: list[BlockAccess] = []
        for pos, tensor in enumerate(operands):
            parts = self._decompose(tensor.addr, tensor.nbytes)
            if sparse is not None and pos == sparse.tensor_index:
                parts = self._sparse_subset(parts, sparse.coverage, device)
            for idx, pages in parts:
                if idx in seen:
                    continue
                seen.add(idx)
                accesses.append(BlockAccess(block=um.block(idx), pages=pages))
        if sparse is None:
            self._access_plan_cache[key] = accesses
        return accesses

    def _sparse_subset(
        self,
        parts: list[tuple[int, int]],
        coverage: float,
        device: "Device",
    ) -> list[tuple[int, int]]:
        """Random subset in random order: irregular embedding access."""
        count = max(1, int(len(parts) * coverage))
        if count >= len(parts):
            chosen = device.rng.permutation(len(parts))
        else:
            chosen = device.rng.choice(len(parts), size=count, replace=False)
        return [parts[int(i)] for i in chosen]
