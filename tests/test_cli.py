"""Command-line interface."""

import dataclasses
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_chrome_trace


def test_list_prints_models_and_policies(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("gpt2-xl", "bert-large", "dlrm", "resnet152"):
        assert name in out
    assert "deepum" in out and "sentinel" in out


def test_run_reports_speedups(capsys):
    assert main(["run", "bert-base", "--batch", "30",
                 "--policies", "um,deepum",
                 "--warmup", "2", "--measure", "2"]) == 0
    out = capsys.readouterr().out
    assert "speedup vs UM" in out
    assert "deepum" in out


def test_run_default_batch_is_grid_midpoint(capsys):
    assert main(["run", "bert-base", "--policies", "ideal",
                 "--warmup", "1", "--measure", "1"]) == 0
    assert "@ paper batch 30" in capsys.readouterr().out


def test_unknown_policy_exits():
    with pytest.raises(SystemExit):
        main(["run", "bert-base", "--policies", "magic"])


def test_unknown_model_raises():
    with pytest.raises(KeyError):
        main(["run", "alexnet"])


def test_sweep_degree(capsys):
    assert main(["sweep-degree", "bert-base", "--degrees", "1,8",
                 "--warmup", "2"]) == 0
    out = capsys.readouterr().out
    assert "prefetch degree sweep" in out


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("list", "run", "max-batch", "sweep-degree", "runs"):
        assert cmd in text


def test_shared_flags_on_every_cell_command():
    """The parent parsers give every cell-running command one flag set."""
    parser = build_parser()
    for argv in (["run", "m"], ["max-batch", "m"], ["sweep-degree", "m"],
                 ["doctor", "s"]):
        args = parser.parse_args(argv)
        for flag in ("batch", "scale", "seed", "warmup", "measure"):
            assert hasattr(args, flag), f"{argv[0]} lost --{flag}"
    for argv in (["run", "m"], ["max-batch", "m"], ["sweep-degree", "m"],
                 ["bench", "run", "--scenario", "s"]):
        args = parser.parse_args(argv)
        for flag in ("workers", "cell_timeout", "retries", "runs_dir",
                     "run_id"):
            assert hasattr(args, flag), f"{argv[0]} lost executor flags"


def test_run_parallel_matches_serial_and_is_resumable(tmp_path, capsys):
    argv = ["run", "mobilenet", "--batch", "64", "--policies", "um,deepum",
            "--warmup", "1", "--measure", "1"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", "2", "--runs-dir", str(tmp_path)]) == 0
    parallel = capsys.readouterr().out
    assert "2 cells across 2 workers" in parallel
    # The policy table (the simulated numbers) is identical either way.
    table = [line for line in serial.splitlines()
             if line.strip().startswith(("um", "deepum"))]
    for line in table:
        assert line in parallel

    assert main(["runs", "list", "--runs-dir", str(tmp_path)]) == 0
    listing = capsys.readouterr().out
    match = re.search(r"(\d{8}-\d{6}-[0-9a-f]{6})", listing)
    assert match, listing
    run_id = match.group(1)
    assert "ok=2" in listing

    assert main(["runs", "show", run_id, "--runs-dir", str(tmp_path)]) == 0
    shown = capsys.readouterr().out
    assert "mobilenet@64/um" in shown and "mobilenet@64/deepum" in shown

    assert main(["runs", "resume", run_id,
                 "--runs-dir", str(tmp_path)]) == 0
    resumed = capsys.readouterr().out
    assert "already finished" in resumed
    for line in table:
        assert line in resumed


def test_run_serial_table_equals_parallel_table(tmp_path, capsys):
    # UM listed last: the serial path must still compute deepum's speedup.
    argv = ["run", "mobilenet", "--batch", "64", "--policies", "deepum,um",
            "--warmup", "1", "--measure", "1"]

    def rows(out):
        return [line for line in out.splitlines()
                if re.match(r"\s*(um|deepum) \|", line)]

    assert main(argv) == 0
    serial = rows(capsys.readouterr().out)
    assert main(argv + ["--workers", "2", "--runs-dir", str(tmp_path)]) == 0
    assert len(serial) == 2
    assert serial == rows(capsys.readouterr().out)


def test_trace_timeline_writes_a_valid_trace(tmp_path, capsys):
    out = tmp_path / "tl.json"
    assert main(["trace", "timeline", "mobilenet", "--batch", "64",
                 "--warmup", "1", "--measure", "1", "--out", str(out)]) == 0
    assert "-> " + str(out) in capsys.readouterr().out
    validate_chrome_trace(json.loads(out.read_text()))


def test_runs_show_unknown_run_exits(tmp_path):
    with pytest.raises(SystemExit, match="no run"):
        main(["runs", "show", "nope", "--runs-dir", str(tmp_path)])


def test_sweep_degree_parallel_matches_serial(tmp_path, capsys):
    argv = ["sweep-degree", "mobilenet", "--batch", "64", "--degrees",
            "1,8", "--warmup", "1", "--measure", "1"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", "2",
                        "--runs-dir", str(tmp_path)]) == 0
    parallel = capsys.readouterr().out
    rows = [line for line in serial.splitlines()
            if re.match(r"\s*\d+ \|", line)]
    assert rows
    for line in rows:
        assert line in parallel


def test_max_batch_reports_does_not_run_cause(capsys, monkeypatch):
    """A model that fits nothing names the smallest probed batch and why."""
    import repro.cli as cli
    from repro.constants import MiB

    real = cli.calibrate_system

    def tiny_system(model, **kwargs):
        system = real(model, **kwargs)
        return dataclasses.replace(
            system,
            gpu=dataclasses.replace(system.gpu, memory_bytes=1 * MiB),
            host=dataclasses.replace(system.host, memory_bytes=2 * MiB),
        )

    monkeypatch.setattr(cli, "calibrate_system", tiny_system)
    assert main(["max-batch", "mobilenet", "--policies", "um"]) == 0
    out = capsys.readouterr().out
    assert "does not run" in out
    assert re.search(r"batch \d+: \S", out), out  # a cause, not bare 0
    assert "why not larger" in out


def test_run_obs_parallel_writes_executor_timeline(tmp_path, capsys):
    trace_path = tmp_path / "exec.json"
    assert main(["run", "mobilenet", "--batch", "64", "--policies",
                 "um,deepum", "--warmup", "1", "--measure", "1",
                 "--workers", "2", "--runs-dir", str(tmp_path / "runs"),
                 "--obs", str(trace_path)]) == 0
    assert "executor timeline" in capsys.readouterr().out
    doc = json.loads(trace_path.read_text())
    names = {event.get("name") for event in doc["traceEvents"]}
    assert "mobilenet@64/um" in names


# Every journaled kind: argv of its live command (an --out artifact, if the
# kind writes one, goes to OUT) and whether its artifact carries the
# process-level peak RSS (a volatile field compared via deterministic_view).
RESUME_KINDS = {
    "run": (["run", "mobilenet", "--batch", "64", "--policies", "um,deepum",
             "--warmup", "1", "--measure", "1"], False),
    "serve": (["serve", "dlrm", "--requests", "4", "--warmup", "1",
               "--policies", "um,deepum", "--out", "OUT"], False),
    "sweep-degree": (["sweep-degree", "mobilenet", "--batch", "64",
                      "--degrees", "1,8", "--warmup", "1", "--measure", "1"],
                     False),
    "tournament": (["tournament", "smoke", "--out", "OUT"], False),
    "bench": (["bench", "run", "--scenario", "smoke", "--repeats", "1",
               "--warmup-runs", "0", "--out", "OUT"], True),
}


def _rendered(out):
    """The kind's rendered output: what follows the cache summary (live or
    re-executed resume) or the "all cells already finished" line."""
    lines = out.splitlines()
    marks = [i for i, line in enumerate(lines)
             if line.startswith("cache: ")
             or line.endswith("all cells already finished")]
    assert marks, out
    return lines[marks[-1] + 1:]


@pytest.mark.parametrize("kind", sorted(RESUME_KINDS))
def test_runs_resume_equals_live(kind, tmp_path, capsys):
    """``runs resume`` prints the live command's table and rewrites its
    --out artifact, both for a finished journal and for one whose cells
    all replay from the result cache."""
    from repro.exec import RunJournal, deterministic_view, list_runs

    argv, volatile_rss = RESUME_KINDS[kind]
    out_path = tmp_path / "artifact.json"
    writes_out = "OUT" in argv
    argv = [str(out_path) if a == "OUT" else a for a in argv]
    runs_dir, cache_dir = str(tmp_path / "runs"), str(tmp_path / "cache")
    assert main(argv + ["--workers", "2", "--runs-dir", runs_dir,
                        "--cache-dir", cache_dir]) == 0
    live = _rendered(capsys.readouterr().out)
    assert live
    artifact = out_path.read_bytes() if writes_out else None

    def same_artifact():
        if artifact is None:
            return True
        fresh = out_path.read_bytes()
        out_path.unlink()
        if volatile_rss:
            return (deterministic_view(json.loads(fresh))
                    == deterministic_view(json.loads(artifact)))
        return fresh == artifact

    (summary,) = list_runs(runs_dir)
    assert summary["kind"] == kind
    resume = ["runs", "resume", summary["run_id"], "--runs-dir", runs_dir,
              "--cache-dir", cache_dir]
    if artifact is not None:
        out_path.unlink()
    assert main(resume) == 0
    out = capsys.readouterr().out
    assert "all cells already finished" in out
    assert _rendered(out) == live
    assert same_artifact()

    journal = RunJournal.load(summary["run_id"], runs_dir)
    journal.reset(journal.keys())
    assert main(resume) == 0
    out = capsys.readouterr().out
    cells = len(journal.keys())
    assert f"hits={cells} misses=0" in out
    assert _rendered(out) == live
    assert same_artifact()
