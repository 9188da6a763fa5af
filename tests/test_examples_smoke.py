"""Smoke tests: the shipped examples must run end to end.

Heavy examples are exercised through their ``main`` with the cheapest
arguments; only the fastest run at their defaults. These guard the public
API surface the examples demonstrate.
"""

import json
import runpy
import sys

import pytest

from repro.obs import validate_chrome_trace


def run_example(monkeypatch, capsys, name, argv=()):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(f"examples/{name}", run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart.py")
    assert "peak footprint" in out
    assert "prefetched" in out


def test_dlrm_irregular(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "dlrm_irregular_access.py")
    assert "dlrm" in out
    assert "bert-large" in out


def test_max_batch_explorer(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "max_batch_explorer.py",
                      ["bert-base", "deepum"])
    assert "max paper-scale batch" in out


def test_trace_analysis(monkeypatch, capsys, tmp_path):
    path = tmp_path / "t.json"
    out = run_example(monkeypatch, capsys, "trace_analysis.py", [str(path)])
    assert "stream periodicity" in out
    validate_chrome_trace(json.loads(path.read_text()))


def test_workload_characterization(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "workload_characterization.py",
                      ["bert-base"])
    assert "Belady" in out
    assert "working set" in out
