"""The process-pool executor: isolation, retries, timeouts, resume.

The load-bearing assertions here are the determinism ones: parallel and
killed-then-resumed runs must reproduce a serial run's simulated metrics
bit-for-bit. Fault tolerance is exercised with the ``REPRO_EXEC_INJECT``
hook (crash / sigkill / hang / flaky), never by hoping for real crashes.
"""

import json

import pytest

from repro.api import RunRequest, execute
from repro.exec import (
    INJECT_ENV,
    Executor,
    ExecutorConfig,
    JournalError,
    RunJournal,
    Task,
    experiment_task,
    list_runs,
    validate_state,
)
from repro.harness.experiment import calibrate_system

#: One calibration shared by every cell here (keeps the tests fast and
#: makes every request fully pinned up front).
SYSTEM = calibrate_system("mobilenet")

FAST = ExecutorConfig(workers=2, retries=1, backoff=0.01, poll_interval=0.005)


def tiny_request(policy="um", batch=64, seed=0):
    return RunRequest(model="mobilenet", policy=policy, batch=batch,
                      scale=0.5, warmup_iterations=1, measure_iterations=1,
                      seed=seed, system=SYSTEM)


def tiny_tasks(policies=("um", "deepum", "lms")):
    return [experiment_task(tiny_request(p)) for p in policies]


def inject(monkeypatch, spec):
    monkeypatch.setenv(INJECT_ENV, json.dumps(spec))


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        ExecutorConfig(workers=0)
    with pytest.raises(ValueError):
        ExecutorConfig(retries=-1)
    with pytest.raises(ValueError):
        ExecutorConfig(cell_timeout=0.0)
    assert ExecutorConfig(workers=3).to_dict()["workers"] == 3


def test_duplicate_task_keys_rejected():
    tasks = [experiment_task(tiny_request("um")),
             experiment_task(tiny_request("um"))]
    with pytest.raises(ValueError, match="duplicate"):
        Executor(FAST).run_tasks(tasks)


def test_unknown_task_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        Task(key="x", kind="mystery", payload={})


# ---------------------------------------------------- parallel == serial

def test_parallel_reproduces_serial_bit_for_bit():
    policies = ("um", "deepum", "lms")
    serial = {
        experiment_task(tiny_request(p)).key:
            execute(tiny_request(p)).snapshot
        for p in policies
    }
    results = Executor(ExecutorConfig(workers=3)).run_tasks(
        tiny_tasks(policies))
    assert set(results) == set(serial)
    for key, doc in results.items():
        assert doc["status"] == "ok"
        assert doc["snapshot"] == serial[key]


def test_oom_cell_degrades_not_aborts():
    tasks = [experiment_task(tiny_request("um")),
             experiment_task(tiny_request("um", batch=50_000))]
    results = Executor(FAST).run_tasks(tasks)
    by_key = {k.split("@")[1]: v for k, v in results.items()}
    assert by_key["64/um"]["status"] == "ok"
    assert by_key["50000/um"]["status"] in ("oom", "failed")
    assert by_key["50000/um"]["error"]


# --------------------------------------------------------------- journal

def test_journal_create_load_round_trip(tmp_path):
    journal = RunJournal.create(tiny_tasks(), kind="run",
                                meta={"note": "hi"},
                                executor=FAST.to_dict(),
                                runs_dir=str(tmp_path))
    again = RunJournal.load(journal.run_id, str(tmp_path))
    assert again.kind == "run"
    assert again.meta == {"note": "hi"}
    assert set(again.keys()) == set(journal.keys())
    assert again.unfinished() == sorted(
        journal.keys())  # state.json sorts keys
    assert again.counts() == {"pending": 3}


def test_journal_rejects_duplicates_and_empty(tmp_path):
    with pytest.raises(JournalError, match="no tasks"):
        RunJournal.create([], kind="run", runs_dir=str(tmp_path))
    tasks = [experiment_task(tiny_request("um")),
             experiment_task(tiny_request("um"))]
    with pytest.raises(JournalError, match="duplicate"):
        RunJournal.create(tasks, kind="run", runs_dir=str(tmp_path))


def test_journal_refuses_reused_run_id(tmp_path):
    RunJournal.create(tiny_tasks(), kind="run", runs_dir=str(tmp_path),
                      run_id="twice")
    with pytest.raises(JournalError, match="already exists"):
        RunJournal.create(tiny_tasks(), kind="run", runs_dir=str(tmp_path),
                          run_id="twice")


def test_validate_state_rejects_malformed(tmp_path):
    with pytest.raises(JournalError):
        validate_state([])
    with pytest.raises(JournalError, match="schema_version"):
        validate_state({"journal_schema_version": 99})
    good = RunJournal.create(
        tiny_tasks(), kind="run", runs_dir=str(tmp_path)).state
    bad = json.loads(json.dumps(good))
    bad["tasks"]["mobilenet@64/um"]["status"] = "exploded"
    with pytest.raises(JournalError, match="status"):
        validate_state(bad)


def test_journal_finish_requires_terminal_status(tmp_path):
    journal = RunJournal.create(tiny_tasks(), kind="run",
                                runs_dir=str(tmp_path))
    with pytest.raises(JournalError, match="non-terminal"):
        journal.finish("mobilenet@64/um", {"status": "running"})


def test_list_runs_summarizes(tmp_path):
    assert list_runs(str(tmp_path)) == []
    journal = RunJournal.create(tiny_tasks(), kind="sweep-degree",
                                runs_dir=str(tmp_path))
    (tmp_path / "not-a-run").mkdir()
    runs = list_runs(str(tmp_path))
    assert len(runs) == 1
    assert runs[0]["run_id"] == journal.run_id
    assert runs[0]["kind"] == "sweep-degree"
    assert runs[0]["counts"] == {"pending": 3}


# ---------------------------------------------------------------- resume

def test_killed_run_resumes_to_identical_results(tmp_path):
    policies = ("um", "deepum", "lms", "ideal")
    serial = {
        experiment_task(tiny_request(p)).key:
            execute(tiny_request(p)).snapshot
        for p in policies
    }
    journal = RunJournal.create(tiny_tasks(policies), kind="run",
                                runs_dir=str(tmp_path))
    # "Kill" the run after two cells finish.
    partial = Executor(ExecutorConfig(workers=1)).run_journal(
        journal, limit=2)
    assert len(partial) == 2
    reloaded = RunJournal.load(journal.run_id, str(tmp_path))
    assert len(reloaded.unfinished()) == 2
    # A fresh executor (fresh process, different worker count) finishes it.
    results = Executor(ExecutorConfig(workers=2)).run_journal(reloaded)
    assert {k: v["snapshot"] for k, v in results.items()} == serial
    assert reloaded.counts() == {"ok": 4}
    # Resuming a finished run re-executes nothing and returns the same.
    again = Executor(FAST).run_journal(
        RunJournal.load(journal.run_id, str(tmp_path)))
    assert {k: v["snapshot"] for k, v in again.items()} == serial


def test_interrupted_running_cells_are_rerun(tmp_path):
    journal = RunJournal.create(tiny_tasks(("um",)), kind="run",
                                runs_dir=str(tmp_path))
    # Simulate a cell that was in flight when the process died.
    journal.mark_running("mobilenet@64/um", 1)
    reloaded = RunJournal.load(journal.run_id, str(tmp_path))
    assert reloaded.unfinished() == ["mobilenet@64/um"]
    results = Executor(FAST).run_journal(reloaded)
    assert results["mobilenet@64/um"]["status"] == "ok"


def test_journal_reset_sends_cells_back_to_pending(tmp_path):
    journal = RunJournal.create(tiny_tasks(("um",)), kind="run",
                                runs_dir=str(tmp_path))
    journal.finish("mobilenet@64/um",
                   {"status": "failed", "error": "flaky infra"})
    assert journal.counts() == {"failed": 1}
    journal.reset(["mobilenet@64/um"])
    reloaded = RunJournal.load(journal.run_id, str(tmp_path))
    assert reloaded.counts() == {"pending": 1}
    assert reloaded.error("mobilenet@64/um") == ""


# ------------------------------------------------------- fault injection

def test_worker_crash_isolates_to_one_cell(monkeypatch):
    inject(monkeypatch, {"mobilenet@64/deepum": {"mode": "sigkill"}})
    config = ExecutorConfig(workers=2, retries=0, poll_interval=0.005)
    results = Executor(config).run_tasks(tiny_tasks(("um", "deepum")))
    assert results["mobilenet@64/um"]["status"] == "ok"
    crashed = results["mobilenet@64/deepum"]
    assert crashed["status"] == "failed"
    assert "worker crashed" in crashed["error"]


def test_clean_crash_reports_exit_code(monkeypatch):
    inject(monkeypatch,
           {"mobilenet@64/um": {"mode": "crash", "exit_code": 7}})
    config = ExecutorConfig(workers=1, retries=0, poll_interval=0.005)
    results = Executor(config).run_tasks(tiny_tasks(("um",)))
    assert results["mobilenet@64/um"]["status"] == "failed"
    assert "exit code 7" in results["mobilenet@64/um"]["error"]


class _LateConn:
    """A result pipe whose first poll() reports nothing although the
    worker has already sent its result and exited."""

    def __init__(self, conn, procs):
        self._conn = conn
        self._procs = procs
        self._polled = False

    def poll(self):
        if self._polled:
            return self._conn.poll()
        self._polled = True
        assert self._conn.poll(60.0)  # the result is in the pipe...
        worker = self._procs[-1]
        worker.join(60.0)
        assert not worker.is_alive()  # ...and its worker has exited
        return False

    def recv(self):
        return self._conn.recv()

    def close(self):
        self._conn.close()


class _LateContext:
    """A multiprocessing context whose pipes are :class:`_LateConn`."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.procs = []

    def Pipe(self, duplex=True):
        parent, child = self._ctx.Pipe(duplex=duplex)
        return _LateConn(parent, self.procs), child

    def Process(self, **kwargs):
        proc = self._ctx.Process(**kwargs)
        self.procs.append(proc)
        return proc


def test_result_sent_just_before_exit_is_not_a_crash():
    executor = Executor(FAST)
    executor._ctx = _LateContext(executor._ctx)
    doc = executor.run_tasks(tiny_tasks(("um",)))["mobilenet@64/um"]
    assert doc["status"] == "ok"
    assert doc["attempts"] == 1


def test_flaky_cell_succeeds_on_retry(monkeypatch, tmp_path):
    inject(monkeypatch,
           {"mobilenet@64/um": {"mode": "flaky", "ok_on_attempt": 2}})
    journal = RunJournal.create(tiny_tasks(("um",)), kind="run",
                                runs_dir=str(tmp_path))
    results = Executor(FAST).run_journal(journal)
    doc = results["mobilenet@64/um"]
    assert doc["status"] == "ok"
    assert doc["attempts"] == 2
    assert journal.attempts("mobilenet@64/um") == 2
    # The journaled snapshot equals a clean serial run: retries must not
    # perturb simulated metrics.
    assert doc["snapshot"] == execute(tiny_request("um")).snapshot


def test_retry_budget_exhausts_to_failed(monkeypatch):
    inject(monkeypatch,
           {"mobilenet@64/um": {"mode": "flaky", "ok_on_attempt": 99}})
    config = ExecutorConfig(workers=1, retries=2, backoff=0.01,
                            poll_interval=0.005)
    results = Executor(config).run_tasks(tiny_tasks(("um",)))
    doc = results["mobilenet@64/um"]
    assert doc["status"] == "failed"
    assert doc["attempts"] == 3  # 1 initial + 2 retries
    assert "injected flaky failure" in doc["error"]


def test_hung_cell_times_out_without_retry(monkeypatch):
    inject(monkeypatch,
           {"mobilenet@64/um": {"mode": "hang", "seconds": 60.0}})
    config = ExecutorConfig(workers=2, retries=3, cell_timeout=0.5,
                            backoff=0.01, poll_interval=0.005)
    results = Executor(config).run_tasks(tiny_tasks(("um", "deepum")))
    hung = results["mobilenet@64/um"]
    assert hung["status"] == "timeout"
    assert hung["attempts"] == 1  # timeouts are deterministic: no retry
    assert "wall-clock timeout" in hung["error"]
    assert results["mobilenet@64/deepum"]["status"] == "ok"


# ------------------------------------------------------------- telemetry

def test_executor_emits_exec_track_events():
    from repro.obs import TRACK_EXEC, SpanRecorder

    recorder = SpanRecorder()
    Executor(FAST, recorder=recorder).run_tasks(tiny_tasks(("um",)))
    spans = [s for s in recorder.spans if s.track == TRACK_EXEC]
    instants = [i for i in recorder.instants if i.track == TRACK_EXEC]
    assert any(s.name == "mobilenet@64/um" for s in spans)
    assert any(i.name == "start mobilenet@64/um" for i in instants)
    span = next(s for s in spans if s.name == "mobilenet@64/um")
    assert span.args["status"] == "ok"


def test_progress_lines_cover_every_cell():
    lines = []
    Executor(FAST, progress=lines.append).run_tasks(
        tiny_tasks(("um", "deepum")))
    text = "\n".join(lines)
    assert "mobilenet@64/um: ok" in text
    assert "mobilenet@64/deepum: ok" in text
