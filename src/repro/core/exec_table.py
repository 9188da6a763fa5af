"""Execution IDs and the execution ID correlation table (Section 4.2).

The runtime hashes each kernel launch's name and arguments; launches with
the same hash share an *execution ID*. The driver-side execution table
keeps, per execution ID, a variable number of records
``(id-3, id-2, id-1) -> next`` — the three kernels that ran just before
this one, and the kernel that followed it. Prediction requires an exact
history match, because a wrong next-kernel prediction sends the whole
prefetch chain down the wrong path (the paper's rationale for keeping all
history rather than a fixed-size set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

History = tuple[int, int, int]

#: Execution IDs used to pad history before three kernels have run.
NO_KERNEL = -1


class ExecutionIDTable:
    """Runtime-side mapping from launch signatures to execution IDs."""

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}

    def assign(self, signature: Hashable) -> int:
        """Return the execution ID for ``signature``, allocating if new."""
        exec_id = self._ids.get(signature)
        if exec_id is None:
            exec_id = len(self._ids)
            self._ids[signature] = exec_id
        return exec_id

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def size_bytes(self) -> int:
        # hash value (8 B) + execution ID (4 B) per entry
        return 12 * len(self._ids)


@dataclass
class _Entry:
    """Records for one execution ID: history tuple -> next execution ID."""

    records: dict[History, int] = field(default_factory=dict)


class ExecutionCorrelationTable:
    """Single driver-side table of kernel-execution correlations."""

    def __init__(self) -> None:
        self._entries: dict[int, _Entry] = {}
        self.updates = 0
        self.hits = 0
        self.misses = 0
        #: Bumped only when a record actually changes what the table
        #: predicts (new history key, or an existing key's next kernel
        #: changes). A periodic kernel stream re-records identical
        #: transitions every iteration, so this stabilizes across the
        #: steady state — letting readers memoize *positive* walks.
        self.content_version = 0
        #: Why the most recent :meth:`predict_next` missed: ``"no-entry"``
        #: (the current kernel has never been recorded at all) or
        #: ``"history-miss"`` (the kernel is known but this exact launch
        #: history never preceded it). Attribution-only; never read by the
        #: prediction logic itself.
        self.last_miss_reason = ""

    def record(self, history: History, current: int, next_id: int) -> None:
        """Record that ``next_id`` followed ``current`` (preceded by ``history``)."""
        entry = self._entries.setdefault(current, _Entry())
        records = entry.records
        if records.get(history) != next_id:
            self.content_version += 1
        records[history] = next_id
        self.updates += 1

    def predict_next(self, history: History, current: int) -> Optional[int]:
        """Predict the kernel following ``current``; None when unseen."""
        entry = self._entries.get(current)
        if entry is None:
            self.misses += 1
            self.last_miss_reason = "no-entry"
            return None
        nxt = entry.records.get(history)
        if nxt is None:
            self.misses += 1
            self.last_miss_reason = "history-miss"
            return None
        self.hits += 1
        return nxt

    def num_records(self) -> int:
        return sum(len(e.records) for e in self._entries.values())

    @property
    def size_bytes(self) -> int:
        # Each record stores four execution IDs (4 B each, as in Fig. 6).
        return 16 * self.num_records() + 8 * len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
