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


def test_run_reports_speedups(tmp_path, capsys):
    assert main(["run", "bert-base", "--batch", "30",
                 "--policies", "um,deepum",
                 "--warmup", "2", "--measure", "2",
                 "--runs-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "speedup vs UM" in out
    assert "deepum" in out


def test_run_default_batch_is_grid_midpoint(tmp_path, capsys):
    assert main(["run", "bert-base", "--policies", "ideal",
                 "--warmup", "1", "--measure", "1",
                 "--runs-dir", str(tmp_path)]) == 0
    assert "@ paper batch 30" in capsys.readouterr().out


def test_unknown_policy_exits():
    with pytest.raises(SystemExit):
        main(["run", "bert-base", "--policies", "magic"])


def test_unknown_model_raises():
    with pytest.raises(KeyError):
        main(["run", "alexnet"])


def test_sweep_degree(tmp_path, capsys):
    assert main(["sweep-degree", "bert-base", "--degrees", "1,8",
                 "--warmup", "2", "--runs-dir", str(tmp_path)]) == 0
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
    assert main(argv + ["--runs-dir", str(tmp_path / "serial")]) == 0
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
    # UM listed last: the table must still compute deepum's speedup.
    argv = ["run", "mobilenet", "--batch", "64", "--policies", "deepum,um",
            "--warmup", "1", "--measure", "1"]

    def rows(out):
        return [line for line in out.splitlines()
                if re.match(r"\s*(um|deepum) \|", line)]

    assert main(argv + ["--runs-dir", str(tmp_path / "serial")]) == 0
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
    assert main(argv + ["--runs-dir", str(tmp_path / "serial")]) == 0
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


def _obs_run(tmp_path, name, *extra):
    """``repro run --obs`` over a UM and a tensor-swap policy; returns the
    output and the per-policy trace paths."""
    trace = tmp_path / name / "t.json"
    trace.parent.mkdir(exist_ok=True)
    assert main(["run", "mobilenet", "--batch", "64", "--policies",
                 "um,deepum,vdnn", "--warmup", "1", "--measure", "1",
                 "--runs-dir", str(tmp_path / "runs"),
                 "--obs", str(trace), *extra]) == 0
    return trace.parent / "t-um.json", trace.parent / "t-deepum.json"


def test_run_obs_writes_the_same_sim_traces_at_every_worker_count(
        tmp_path, capsys):
    """Each worker records its own cell: the per-policy simulated
    timelines are byte-identical whatever the pool size."""
    one = _obs_run(tmp_path, "one")
    out = capsys.readouterr().out
    two = _obs_run(tmp_path, "two", "--workers", "2")
    assert re.search(r"vdnn \|.*no obs \(tensor-swap\)", out), out
    assert f"trace: {one[0]}" in out
    assert "um: per-kernel phase breakdown" in out
    assert "deepum: per-kernel phase breakdown" in out
    assert "vdnn: per-kernel" not in out
    assert not (tmp_path / "one" / "t-vdnn.json").exists()
    for a, b in zip(one, two):
        validate_chrome_trace(json.loads(a.read_text()))
        assert a.read_bytes() == b.read_bytes()


def test_obs_cells_bypass_the_result_cache(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    _obs_run(tmp_path, "first", *cache)
    capsys.readouterr()
    traces = _obs_run(tmp_path, "second", *cache)
    out = capsys.readouterr().out
    assert all(path.exists() for path in traces)
    assert "(cached)" not in out and "hits=" not in out
    assert not (tmp_path / "cache").exists()


def test_runs_resume_of_an_obs_run_prints_the_live_output(tmp_path,
                                                          capsys):
    from repro.exec import RunJournal, list_runs

    traces = _obs_run(tmp_path, "live")
    out = capsys.readouterr().out
    live = out[out.index("policy |"):]  # the table and the breakdowns
    (summary,) = list_runs(str(tmp_path / "runs"))
    resume = ["runs", "resume", summary["run_id"],
              "--runs-dir", str(tmp_path / "runs")]
    assert main(resume) == 0
    assert capsys.readouterr().out.endswith(live)
    # A re-executed recorded cell rewrites its trace.
    journal = RunJournal.load(summary["run_id"], str(tmp_path / "runs"))
    journal.reset(journal.keys())
    before = traces[0].read_bytes()
    traces[0].unlink()
    assert main(resume) == 0
    assert capsys.readouterr().out.endswith(live)
    assert traces[0].read_bytes() == before


# The cell-running commands at their default pool size of one worker.
ONE_WORKER = {
    "run": ["run", "mobilenet", "--batch", "64", "--policies", "um,deepum",
            "--warmup", "1", "--measure", "1"],
    "serve": ["serve", "dlrm", "--requests", "4", "--warmup", "1",
              "--policies", "um,deepum"],
    "sweep-degree": ["sweep-degree", "mobilenet", "--batch", "64",
                     "--degrees", "1,8", "--warmup", "1", "--measure", "1"],
}


@pytest.mark.parametrize("kind", sorted(ONE_WORKER))
def test_one_worker_honours_cache_dir_and_runs_dir(kind, tmp_path, capsys):
    argv = ONE_WORKER[kind] + ["--runs-dir", str(tmp_path / "runs"),
                               "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert "misses=2" in capsys.readouterr().out
    assert main(argv) == 0
    assert "cache: hits=2 misses=0" in capsys.readouterr().out
    assert main(["runs", "list", "--runs-dir", str(tmp_path / "runs")]) == 0
    listing = capsys.readouterr().out
    assert listing.count(f" {kind} ") == 2 and "ok=2" in listing


@pytest.mark.parametrize("mode", ["hang", "crash"])
@pytest.mark.parametrize("kind", sorted(ONE_WORKER))
def test_cells_ended_without_a_result_render_their_row(kind, mode, tmp_path,
                                                       capsys, monkeypatch):
    """A cell the executor times out, or whose worker dies, still gets
    its row in the command's table (named from its journaled request)."""
    from repro.exec import INJECT_ENV

    victim = {"run": "mobilenet@64/um", "serve": "serve-dlrm@160000/um",
              "sweep-degree": "mobilenet@64/deepum/N8"}[kind]
    monkeypatch.setenv(INJECT_ENV, json.dumps({victim: {"mode": mode}}))
    timeout = ["--cell-timeout", "5"] if mode == "hang" else []
    assert main(ONE_WORKER[kind] + ["--runs-dir", str(tmp_path),
                                    "--retries", "0", *timeout]) == 1
    out = capsys.readouterr().out
    status = "timeout" if mode == "hang" else "failed"
    label = "8" if kind == "sweep-degree" else "um"
    assert re.search(rf"^\s*{label} \|.*\| {status}: ", out, re.M), out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_serve_rejects_a_non_um_policy_before_any_cell(workers, tmp_path):
    with pytest.raises(SystemExit, match="serve: policy 'lms' is not a "
                                         "UM-family policy"):
        main(["serve", "dlrm", "--requests", "4", "--policies", "um,lms",
              "--workers", workers, "--runs-dir", str(tmp_path)])
    assert not any(tmp_path.iterdir())


def test_max_batch_honours_cell_timeout(capsys):
    assert main(["max-batch", "mobilenet", "--policies", "um",
                 "--cell-timeout", "0.001", "--retries", "0"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"does not run .*wall-clock timeout", out), out


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
