"""Plain-text table formatting for benchmark output."""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 *, title: str = "") -> str:
    """Render a fixed-width text table (the benches print these)."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(v: object) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v != v:  # NaN
            return "-"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        return f"{v:.2f}"
    return str(v)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's summary statistic for speedups)."""
    vals = [v for v in values if v is not None and v > 0]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def phase_breakdown_table(recorder, top_k: int = 10, *,
                          title: str = "Per-kernel phase breakdown") -> str:
    """Stall-attribution table for an instrumented run (worst kernels first).

    ``recorder`` is the :class:`~repro.obs.recorder.SpanRecorder` a run was
    instrumented with (``repro.obs.attach``, e.g. as the
    ``execute(..., observe=...)`` hook).
    """
    from .metrics import PHASE_BREAKDOWN_HEADERS, phase_breakdown_rows

    return format_table(PHASE_BREAKDOWN_HEADERS,
                        phase_breakdown_rows(recorder, top_k), title=title)


def speedup_table(
    baseline_seconds: dict[tuple, Optional[float]],
    system_seconds: dict[str, dict[tuple, Optional[float]]],
) -> str:
    """Speedups of each system over the baseline, cell by cell + GMEAN."""
    headers = ["model/batch"] + list(system_seconds) + []
    rows = []
    per_system: dict[str, list[float]] = {s: [] for s in system_seconds}
    for key, base in baseline_seconds.items():
        row: list[object] = ["%s @%s" % key]
        for name, cells in system_seconds.items():
            sec = cells.get(key)
            if base is None or sec is None or sec <= 0:
                row.append(None)
            else:
                sp = base / sec
                per_system[name].append(sp)
                row.append(sp)
        rows.append(row)
    rows.append(["GMEAN"] + [geomean(per_system[s]) for s in system_seconds])
    return format_table(headers, rows)
