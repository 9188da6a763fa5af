"""Compare two sets of benchmark runs, metric by metric, against the bounds.

Usage, from the repository root::

    python3 benchmarks/perf/compare.py A1.json [A2.json ...] --vs B1.json ...

Each file is a ``run.py --out`` document. ``A`` is the change and ``B`` the
base it is judged against. One row per (workload, metric) gives each
side's median and quartiles over its runs, and a verdict:

* ``regression`` — A's median is worse than B's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved`` — the spread between runs (interquartile range over
  median) on either side is wider than the bound, so the data cannot tell,
  unless every A run reads better than every B run;
* ``better`` — A wins at least nine tenths of all (A run, B run) pairs and
  the medians differ by more than B's interquartile range;
* ``ok`` — none of these;
* ``-`` — a per-layer metric, which has no bound.

The exit code is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[2]

GAIN_WIN_SHARE = 0.9


@dataclass(frozen=True)
class Side:
    """One side's runs of one metric."""

    values: tuple[float, ...]

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    @property
    def quartiles(self) -> tuple[float, float]:
        if len(self.values) < 2:
            return self.values[0], self.values[0]
        q1, _, q3 = statistics.quantiles(self.values, n=4)
        return q1, q3

    @property
    def spread(self) -> float:
        """Interquartile range as a share of the median."""
        q1, q3 = self.quartiles
        return (q3 - q1) / abs(self.median) if self.median else 0.0


def verdict(a: Side, b: Side, *, better: str, bound: Optional[float]) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (a.median - b.median)
    worse_share = delta / abs(b.median) if b.median else delta

    def beats(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    pairs = [(x, y) for x in a.values for y in b.values]
    wins = sum(beats(x, y) for x, y in pairs) / len(pairs)
    q1, q3 = b.quartiles
    if max(a.spread, b.spread) > bound:
        return "better" if wins == 1.0 else "unresolved"
    if worse_share > bound:
        return "regression"
    if wins >= GAIN_WIN_SHARE and abs(a.median - b.median) > q3 - q1:
        return "better"
    return "ok"


def collect(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run document."""
    out: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for workload, summary in doc["workloads"].items():
            for name, metric in summary["metrics"].items():
                out.setdefault((workload, name), []).append(metric["value"])
    return out


def compare(a_paths: list[str], b_paths: list[str],
            bench: dict[str, Any]) -> list[dict[str, Any]]:
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a_values, b_values = collect(a_paths), collect(b_paths)
    rows = []
    for key in sorted(set(a_values) & set(b_values)):
        workload, name = key
        spec = declared[name]
        a, b = Side(tuple(a_values[key])), Side(tuple(b_values[key]))
        rows.append({
            "workload": workload, "metric": name, "unit": spec["unit"],
            "a": a, "b": b, "bound": spec.get("bound"),
            "change": ((a.median - b.median) / abs(b.median)
                       if b.median else 0.0),
            "verdict": verdict(a, b, better=spec["better"],
                               bound=spec.get("bound")),
        })
    return rows


def format_rows(rows: list[dict[str, Any]]) -> str:
    def side(s: Side) -> str:
        q1, q3 = s.quartiles
        return f"{s.median:.4g} [{q1:.4g}, {q3:.4g}] n={len(s.values)}"

    header = ("workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "change", "bound", "verdict")
    table = [header] + [
        (r["workload"], r["metric"], r["unit"], side(r["a"]), side(r["b"]),
         f"{100.0 * r['change']:+.1f}%",
         "-" if r["bound"] is None else f"{100.0 * r['bound']:.0f}%",
         r["verdict"])
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     .rstrip() for row in table)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", nargs="+", help="run documents of the change")
    parser.add_argument("--vs", nargs="+", required=True, dest="b",
                        help="run documents of the base")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    rows = compare(args.a, args.b, bench)
    print(format_rows(rows))
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("verdicts: " + ", ".join(f"{k}={v}" for k, v in sorted(
        counts.items())))
    return 1 if counts.get("regression") else 0


if __name__ == "__main__":
    sys.exit(main())
