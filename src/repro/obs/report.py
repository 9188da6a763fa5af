"""Single-file HTML reports: the whole observability story in one artifact.

``repro report <scenario>`` runs every cell of a pinned bench scenario
instrumented (same recipe as ``repro doctor``) and renders one
self-contained HTML file embedding:

* the memory-pressure timeline (occupancy vs capacity, eviction split,
  thrash score) per cell;
* the kernel timeline (every execution as an SVG rect, stall-colored);
* the :class:`~repro.obs.health.PolicyHealth` metrics and doctor findings;
* the A/B trace diff between two cells (um vs deepum when both ran).

``repro report --run <run-id>`` renders the same shell from an executor
journal instead: run metadata plus per-cell status, wall time, attempts
and errors — triage for long sweeps without re-running anything.

The output is **offline by construction**: inline CSS, inline SVG, no
``<script src>``, no ``<link>``, no external URL of any kind.
:func:`assert_offline` enforces this and is applied to every render (and
re-checked in tests), so the report can be archived as a CI artifact and
opened years later without a network.
"""

from __future__ import annotations

import html as _html
from typing import Any, Callable, Iterable, Optional

from .diff import BUCKETS, RunDiff, diff_runs
from .doctor import diagnose, judge
from .memory import MemoryTimeline
from .recorder import SpanRecorder

REPORT_SCHEMA_VERSION = 1

#: Substrings that would make the HTML reach for the network. ``src=`` and
#: ``href=`` are allowed only for fragment (``#``) and ``data:`` targets.
_FORBIDDEN = ("http://", "https://", "//cdn", "<link", "<script src",
              "url(", "@import")


class ReportOfflineError(ValueError):
    """The rendered HTML references an external resource."""


def assert_offline(document: str) -> None:
    """Raise :exc:`ReportOfflineError` if ``document`` needs a network."""
    low = document.lower()
    for needle in _FORBIDDEN:
        if needle in low:
            raise ReportOfflineError(
                f"report HTML contains {needle!r}: it would not render "
                "offline")
    for attr in ("src=\"", "href=\""):
        start = 0
        while True:
            i = low.find(attr, start)
            if i < 0:
                break
            target = low[i + len(attr):i + len(attr) + 5]
            if not (target.startswith("#") or target.startswith("data:")):
                raise ReportOfflineError(
                    f"report HTML has external {attr[:-2]} target "
                    f"{target!r}...: it would not render offline")
            start = i + len(attr)


# --------------------------------------------------------------------- #
# report documents (plain data; rendering is a separate step)
# --------------------------------------------------------------------- #


def scenario_report(scenario: Any, *,
                    warmup_iterations: Optional[int] = None,
                    measure_iterations: Optional[int] = None,
                    batch: Optional[int] = None,
                    scale: Optional[float] = None,
                    seed: Optional[int] = None,
                    progress: Optional[Callable[[str], None]] = None,
                    ) -> dict[str, Any]:
    """Run ``scenario`` instrumented and build the report document.

    One :func:`~repro.obs.doctor.judge` pass per scenario cell (the
    recipe ``repro doctor`` uses); tensor-swap policies and OOM cells are
    listed as skipped. When two or more UM cells succeed, the document
    carries the trace diff of the first two (``um`` vs ``deepum``
    preferred, in that A/B order).
    """
    from ..bench.manifest import get_scenario

    scenario = get_scenario(scenario)
    doc: dict[str, Any] = {
        "report_schema_version": REPORT_SCHEMA_VERSION,
        "kind": "scenario",
        "scenario": scenario.name,
        "model": scenario.model,
        "paper_batch": scenario.paper_batch if batch is None else batch,
        "cells": {},
        "skipped": {},
        "diff": None,
        "diff_pair": None,
    }
    requests = scenario.requests(
        batch=batch, scale=scale, seed=seed,
        warmup_iterations=warmup_iterations,
        measure_iterations=measure_iterations)
    recorders: dict[str, tuple[str, SpanRecorder]] = {}
    for cell, request in requests.items():
        if progress:
            progress(f"report: running {cell} ...")
        judged = judge(request)
        if judged is None:
            doc["skipped"][cell] = "no UM engine (tensor-swap policy)"
            continue
        result = judged.result
        if not result.ok:
            doc["skipped"][cell] = f"{result.status}: {result.error}"
            continue
        assert judged.health is not None and judged.memory is not None
        doc["cells"][cell] = {
            "policy": request.policy,
            "seconds_per_100_iterations": result.seconds_per_100_iterations,
            "faults_per_iteration": result.faults_per_iteration,
            "policy_health": judged.health.to_dict(),
            "findings": [f.to_dict() for f in diagnose(
                judged.health, memory=judged.memory.summary())],
            "memory": judged.memory.to_dict(),
            "kernels": _kernel_rows(judged.recorder),
        }
        recorders[request.policy] = (cell, judged.recorder)
    pair = _pick_diff_pair(list(recorders))
    if pair is not None:
        a, b = pair
        (cell_a, rec_a), (cell_b, rec_b) = recorders[a], recorders[b]
        diff = diff_runs(rec_a, rec_b, label_a=a, label_b=b)
        doc["diff"] = diff.to_dict()
        doc["diff_pair"] = [cell_a, cell_b]
    return doc


def _pick_diff_pair(policies: list[str]) -> Optional[tuple[str, str]]:
    """A/B pair for the embedded diff: um as A and deepum as B if present."""
    if "um" in policies and "deepum" in policies:
        return ("um", "deepum")
    if len(policies) >= 2:
        return (policies[0], policies[1])
    return None


def _kernel_rows(recorder: SpanRecorder) -> list[dict[str, Any]]:
    return [
        {"seq": k.seq, "name": k.name, "exec_id": k.exec_id,
         "start": k.start, "end": k.end, "compute": k.compute_time,
         "stall": k.fault_wait + k.inflight_wait, "faults": k.faults}
        for k in recorder.kernels
    ]


def journal_report(journal: Any) -> dict[str, Any]:
    """Build the report document for a journaled executor run.

    ``journal`` is a :class:`~repro.exec.journal.RunJournal` (possibly
    resumed, possibly unfinished). Per-cell wall time and attempts come
    from the persisted result documents; cells that never produced one
    show status only.
    """
    cells: list[dict[str, Any]] = []
    for key in journal.keys():
        result = journal.result(key)
        wall = result.get("wall_seconds") if isinstance(result, dict) else None
        breakdown = (result.get("wall_breakdown")
                     if isinstance(result, dict) else None)
        cells.append({
            "key": key,
            "status": journal.status(key),
            "attempts": journal.attempts(key),
            "wall_seconds": wall,
            "wall_breakdown": breakdown if isinstance(breakdown, dict)
            else None,
            "error": journal.error(key),
        })
    return {
        "report_schema_version": REPORT_SCHEMA_VERSION,
        "kind": "run",
        "run_id": journal.run_id,
        "run_kind": journal.kind,
        "created_at": journal.state.get("created_at", ""),
        "meta": dict(journal.meta),
        "executor": dict(journal.state.get("executor", {})),
        "cells": cells,
    }


# --------------------------------------------------------------------- #
# rendering helpers
# --------------------------------------------------------------------- #

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 64rem;
       color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .3rem; }
h2 { margin-top: 2.2rem; }
table { border-collapse: collapse; margin: .6rem 0; font-size: .9rem; }
th, td { border: 1px solid #c5c8d4; padding: .25rem .6rem; text-align: left; }
th { background: #eef0f6; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.finding-error { color: #a6173a; font-weight: 600; }
.finding-warning { color: #9a6200; }
.finding-info { color: #3a5a8c; }
.skip { color: #666; font-style: italic; }
svg { background: #fafbfe; border: 1px solid #c5c8d4; margin: .4rem 0; }
.caption { font-size: .8rem; color: #555; }
code { background: #eef0f6; padding: 0 .25rem; }
"""


def _esc(text: object) -> str:
    return _html.escape(str(text), quote=True)


def _fmt_bytes(n: Optional[float]) -> str:
    if n is None:
        return "n/a"
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"


def _fmt_ms(seconds: Optional[float]) -> str:
    return "n/a" if seconds is None else f"{seconds * 1e3:.3f} ms"


def _fmt_pct(x: Optional[float]) -> str:
    return "n/a" if x is None else f"{100.0 * x:.1f}%"


def _table(headers: Iterable[str], rows: Iterable[Iterable[object]],
           numeric: Iterable[int] = ()) -> str:
    num = set(numeric)
    parts = ["<table><tr>"]
    parts.extend(f"<th>{_esc(h)}</th>" for h in headers)
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for i, cell in enumerate(row):
            cls = " class=\"num\"" if i in num else ""
            parts.append(f"<td{cls}>{_esc(cell)}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _svg_occupancy(memory: dict[str, Any], *, width: int = 760,
                   height: int = 150) -> str:
    """Step chart of GPU occupancy over simulated time, capacity dashed."""
    samples = memory.get("occupancy") or []
    capacity = float(memory.get("capacity_bytes") or 0)
    end_t = float(memory.get("end_t") or 0.0)
    if not samples or end_t <= 0.0 or capacity <= 0.0:
        return "<p class=\"caption\">no residency events recorded</p>"
    pad = 8
    plot_w, plot_h = width - 2 * pad, height - 2 * pad
    top = max(capacity, max(float(u) for _, u in samples))

    def x(t: float) -> float:
        return pad + plot_w * min(max(t / end_t, 0.0), 1.0)

    def y(used: float) -> float:
        return pad + plot_h * (1.0 - used / top)

    points: list[str] = []
    last_x = x(0.0)
    last_y = y(0.0)
    points.append(f"{last_x:.1f},{last_y:.1f}")
    for t, used in samples:
        # Step chart, clamped monotone in x (eviction work booked into an
        # earlier link slot may stamp a slightly earlier t).
        px = max(x(float(t)), last_x)
        py = y(float(used))
        points.append(f"{px:.1f},{last_y:.1f}")
        points.append(f"{px:.1f},{py:.1f}")
        last_x, last_y = px, py
    points.append(f"{pad + plot_w:.1f},{last_y:.1f}")
    cap_y = y(capacity)
    return (
        f"<svg viewBox=\"0 0 {width} {height}\" width=\"{width}\" "
        f"height=\"{height}\" role=\"img\">"
        f"<line x1=\"{pad}\" y1=\"{cap_y:.1f}\" x2=\"{width - pad}\" "
        f"y2=\"{cap_y:.1f}\" stroke=\"#a6173a\" stroke-dasharray=\"6 4\"/>"
        f"<polyline fill=\"none\" stroke=\"#3a5a8c\" stroke-width=\"1.5\" "
        f"points=\"{' '.join(points)}\"/>"
        f"<text x=\"{width - pad}\" y=\"{cap_y - 4:.1f}\" "
        f"text-anchor=\"end\" font-size=\"11\" fill=\"#a6173a\">"
        f"capacity {_esc(_fmt_bytes(capacity))}</text>"
        "</svg>"
    )


def _svg_kernels(kernels: list[dict[str, Any]], *, width: int = 760,
                 height: int = 56) -> str:
    """Kernel timeline: one rect per execution, redder = more stall."""
    if not kernels:
        return "<p class=\"caption\">no kernels recorded</p>"
    t0 = float(kernels[0]["start"])
    t1 = max(float(k["end"]) for k in kernels)
    if t1 <= t0:
        return "<p class=\"caption\">empty kernel timeline</p>"
    pad = 8
    plot_w = width - 2 * pad
    rects: list[str] = []
    for k in kernels:
        start, end = float(k["start"]), float(k["end"])
        rx = pad + plot_w * (start - t0) / (t1 - t0)
        rw = max(plot_w * (end - start) / (t1 - t0), 0.5)
        duration = end - start
        stall_frac = (float(k["stall"]) / duration) if duration > 0 else 0.0
        red = int(58 + (166 - 58) * min(stall_frac, 1.0))
        green = int(90 * (1.0 - min(stall_frac, 1.0)) + 23)
        title = (f"#{k['seq']} {k['name']} (exec {k['exec_id']}): "
                 f"{_fmt_ms(duration)}, stall {_fmt_ms(float(k['stall']))}, "
                 f"{k['faults']} faults")
        rects.append(
            f"<rect x=\"{rx:.2f}\" y=\"{pad}\" width=\"{rw:.2f}\" "
            f"height=\"{height - 2 * pad}\" "
            f"fill=\"rgb({red},{green},92)\">"
            f"<title>{_esc(title)}</title></rect>"
        )
    return (
        f"<svg viewBox=\"0 0 {width} {height}\" width=\"{width}\" "
        f"height=\"{height}\" role=\"img\">{''.join(rects)}</svg>"
    )


def _render_memory_section(memory: dict[str, Any]) -> str:
    trig = memory.get("evicts_by_trigger") or {}
    trig_str = ", ".join(f"{k}: {v}" for k, v in sorted(trig.items())) or "none"
    reasons = memory.get("admits_by_reason") or {}
    adm_str = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items())) or "none"
    rows = [
        ["peak occupancy", f"{_fmt_bytes(memory.get('peak_used_bytes'))} "
         f"({_fmt_pct(memory.get('peak_occupancy'))} of capacity)"],
        ["working set", f"{_fmt_bytes(memory.get('working_set_bytes'))} "
         f"({memory.get('working_set_blocks')} blocks, "
         f"{memory.get('oversubscription', 0.0):.2f}x capacity)"],
        ["admissions", f"{memory.get('admits')} "
         f"({_fmt_bytes(memory.get('admitted_bytes'))}; {adm_str})"],
        ["evictions", f"{memory.get('evicts')} "
         f"({_fmt_bytes(memory.get('evicted_bytes'))}; by trigger: {trig_str})"],
        ["thrash score", f"{memory.get('thrash_score', 0.0):.3f} "
         f"({memory.get('refetched_admits')} re-fetched admissions)"],
    ]
    return (_svg_occupancy(memory)
            + "<p class=\"caption\">GPU occupancy over simulated time; "
              "dashed line is device capacity.</p>"
            + _table(["memory", "value"], rows))


def _render_findings(findings: list[dict[str, Any]]) -> str:
    items = [
        f"<li class=\"finding-{_esc(f.get('severity'))}\">"
        f"[{_esc(f.get('severity'))}] <code>{_esc(f.get('code'))}</code> "
        f"{_esc(f.get('message'))}</li>"
        for f in findings
    ]
    return f"<ul>{''.join(items)}</ul>" if items else \
        "<p class=\"caption\">no findings</p>"


def _render_health(health: dict[str, Any]) -> str:
    rows = [
        ["kernels", health.get("kernels")],
        ["demand faults", f"{health.get('faults')} "
         f"({_fmt_ms(health.get('fault_stall'))} stall)"],
        ["in-flight wait", _fmt_ms(health.get("inflight_wait"))],
        ["prefetch accuracy", _fmt_pct(health.get("accuracy"))],
        ["prefetch coverage", _fmt_pct(health.get("coverage"))],
        ["commands issued", health.get("commands_issued")],
        ["mispredicted evictions", health.get("mispredicted_evictions")],
    ]
    cause_rows = [
        [cause, count,
         _fmt_ms((health.get("cause_stall") or {}).get(cause, 0.0))]
        for cause, count in sorted(
            (health.get("cause_counts") or {}).items(),
            key=lambda kv: -(health.get("cause_stall") or {}).get(kv[0], 0.0))
    ]
    out = _table(["policy health", "value"], rows)
    if cause_rows:
        out += _table(["fault cause", "faults", "stall"], cause_rows,
                      numeric=(1, 2))
    return out


def _render_diff_section(diff: dict[str, Any],
                         pair: Optional[list[str]]) -> str:
    label_a = diff.get("label_a", "a")
    label_b = diff.get("label_b", "b")
    parts = [f"<h2>A/B diff: {_esc(label_b)} vs {_esc(label_a)}</h2>"]
    if pair:
        parts.append(f"<p class=\"caption\">A = {_esc(pair[0])}, "
                     f"B = {_esc(pair[1])}</p>")
    ms = 1e3
    parts.append(
        f"<p>total kernel time: {_esc(label_a)} "
        f"{diff.get('total_a', 0.0) * ms:.3f} ms, {_esc(label_b)} "
        f"{diff.get('total_b', 0.0) * ms:.3f} ms; attributed delta "
        f"<strong>{diff.get('total_delta', 0.0) * ms:+.3f} ms</strong> "
        f"({diff.get('matched')} matched / {diff.get('inserted')} inserted "
        f"/ {diff.get('deleted')} deleted kernels)</p>"
    )
    bucket_deltas = diff.get("bucket_deltas") or {}
    rows = [[name, f"{bucket_deltas.get(name, 0.0) * ms:+.3f}"]
            for name in BUCKETS if bucket_deltas.get(name, 0.0) != 0.0]
    parts.append(_table(["bucket", "delta (ms)"], rows, numeric=(1,)))
    entries = sorted(diff.get("entries") or [],
                     key=lambda e: abs(float(e.get("delta", 0.0))),
                     reverse=True)
    rows = []
    for entry in entries[:15]:
        if float(entry.get("delta", 0.0)) == 0.0:
            continue
        slc = entry.get("b") or entry.get("a") or {}
        deltas = entry.get("deltas") or {}
        dominant = max(BUCKETS, key=lambda n: abs(float(deltas.get(n, 0.0))))
        rows.append([
            f"{slc.get('name')} (exec {slc.get('exec_id')})",
            entry.get("op"),
            f"{float(entry.get('delta', 0.0)) * ms:+.3f}",
            f"{dominant} {float(deltas.get(dominant, 0.0)) * ms:+.3f}",
        ])
    if rows:
        parts.append(_table(
            ["kernel", "op", "delta (ms)", "dominant bucket (ms)"], rows,
            numeric=(2,)))
    return "".join(parts)


# --------------------------------------------------------------------- #
# top-level rendering
# --------------------------------------------------------------------- #


def render_html(doc: dict[str, Any]) -> str:
    """Render a report document (scenario or run kind) to offline HTML."""
    kind = doc.get("kind")
    if kind == "scenario":
        body = _render_scenario_body(doc)
        title = (f"repro report: {doc.get('scenario')} "
                 f"({doc.get('model')} @ {doc.get('paper_batch')})")
    elif kind == "run":
        body = _render_run_body(doc)
        title = f"repro report: run {doc.get('run_id')}"
    else:
        raise ValueError(f"unknown report kind {kind!r}")
    out = (
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>{body}</body></html>"
    )
    assert_offline(out)
    return out


def _render_scenario_body(doc: dict[str, Any]) -> str:
    parts: list[str] = []
    for cell, body in doc.get("cells", {}).items():
        parts.append(f"<h2>{_esc(cell)}</h2>")
        sec = body.get("seconds_per_100_iterations")
        fpi = body.get("faults_per_iteration")
        parts.append(
            "<p>"
            + (f"{sec:.3f} s / 100 iterations" if sec is not None else "n/a")
            + (f", {fpi:.1f} faults/iteration" if fpi is not None else "")
            + "</p>"
        )
        parts.append("<h3>Memory pressure</h3>")
        parts.append(_render_memory_section(body.get("memory") or {}))
        parts.append("<h3>Kernel timeline</h3>")
        parts.append(_svg_kernels(body.get("kernels") or []))
        parts.append("<p class=\"caption\">one rect per kernel execution; "
                     "redder = larger stall share (hover for details)</p>")
        parts.append("<h3>Policy health</h3>")
        parts.append(_render_health(body.get("policy_health") or {}))
        parts.append("<h3>Findings</h3>")
        parts.append(_render_findings(body.get("findings") or []))
    skipped = doc.get("skipped") or {}
    if skipped:
        parts.append("<h2>Skipped cells</h2><ul>")
        parts.extend(f"<li class=\"skip\">{_esc(cell)}: {_esc(why)}</li>"
                     for cell, why in skipped.items())
        parts.append("</ul>")
    diff = doc.get("diff")
    if diff:
        parts.append(_render_diff_section(diff, doc.get("diff_pair")))
    return "".join(parts)


def _render_run_body(doc: dict[str, Any]) -> str:
    meta_rows = [
        ["run id", doc.get("run_id")],
        ["kind", doc.get("run_kind")],
        ["created", doc.get("created_at")],
        ["meta", ", ".join(f"{k}={v}" for k, v in
                           sorted((doc.get("meta") or {}).items())) or "-"],
        ["executor", ", ".join(f"{k}={v}" for k, v in
                               sorted((doc.get("executor") or {}).items()))
         or "-"],
    ]
    rows = []
    for cell in doc.get("cells", []):
        wall = cell.get("wall_seconds")
        retries = max(int(cell.get("attempts", 0)) - 1, 0)
        breakdown = cell.get("wall_breakdown") or {}
        phases = ", ".join(
            f"{phase} {seconds:.2f}s"
            for phase, seconds in sorted(
                breakdown.items(), key=lambda kv: -kv[1])
        ) or "-"
        rows.append([
            cell.get("key"), cell.get("status"),
            f"{wall:.3f}" if wall is not None else "-",
            phases, retries, cell.get("error") or "",
        ])
    return (
        _table(["run", "value"], meta_rows)
        + "<h2>Cells</h2>"
        + _table(["cell", "status", "wall (s)", "where (phases)", "retries",
                  "error"], rows, numeric=(2, 4))
    )


def write_report(doc: dict[str, Any], path: str) -> str:
    """Render ``doc`` and write the HTML to ``path``; returns the HTML."""
    document = render_html(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document)
    return document


__all__ = [
    "REPORT_SCHEMA_VERSION",
    "ReportOfflineError",
    "RunDiff",
    "MemoryTimeline",
    "assert_offline",
    "journal_report",
    "render_html",
    "scenario_report",
    "write_report",
]
