"""Fault injection, per-job retry, crash-safe resume, and cache bounds.

Every degradation path the engine promises to survive is exercised here
*on purpose* via the deterministic fault harness (``repro.engine.faults``):
worker crashes, job timeouts, transient exceptions, corrupt and
partially-written cache entries, and resuming after a simulated mid-run
crash.  The invariant under test throughout: faults and retries may
change where and when a simulation runs, but never what it computes —
reports stay byte-identical to a clean serial run.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    ExecutionEngine,
    FaultSpec,
    InjectedFault,
    NullStore,
    PoolReport,
    ResultStore,
    RetryPolicy,
    RunJournal,
    SimulationJob,
    attempt_parallel,
    default_retry_policy,
    parse_fault_plan,
    resolve_cache_dir,
    resolve_cache_limit,
)
from repro.errors import EngineError

#: Small enough that one simulation takes well under a second.
SMALL = 0.02

SUITE_NAMES = ("gzip", "ammp")

#: Fast, deterministic retry schedule for tests.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01)

CLI_BASE = ["figure7", "--scale", str(SMALL), "--benchmarks", *SUITE_NAMES]


def small_jobs():
    return [SimulationJob(name, scale=SMALL) for name in SUITE_NAMES]


def _sleepy_worker(job, attempt=1):
    """Module-level (picklable) worker that always outlives the timeout."""
    time.sleep(2)
    return None, 0.0


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir and a clean engine environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in (
        "REPRO_FAULTS",
        "REPRO_RETRIES",
        "REPRO_RETRY_DELAY",
        "REPRO_JOB_TIMEOUT",
        "REPRO_CACHE_MAX_MB",
        "REPRO_JOBS",
        "REPRO_BACKEND",
        "REPRO_HEARTBEAT",
        "REPRO_WATCHDOG",
        "REPRO_BREAKER_THRESHOLD",
        "REPRO_BREAKER_COOLDOWN",
    ):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


@pytest.fixture(scope="module")
def reference():
    """Clean serial outcomes to compare every faulted run against."""
    engine = ExecutionEngine(jobs=1, store=NullStore())
    return engine.run(small_jobs())


def assert_results_identical(a, b):
    """Bit-identical comparison of two annotated simulation results."""
    assert a.result.cycles == b.result.cycles
    assert a.result.instructions == b.result.instructions
    assert a.result.stall_cycles == b.result.stall_cycles
    for cache in ("l1i", "l1d"):
        va, vb = a.annotated_for(cache), b.annotated_for(cache)
        assert np.array_equal(va.intervals.lengths, vb.intervals.lengths)
        assert np.array_equal(va.intervals.kinds, vb.intervals.kinds)
        assert np.array_equal(va.nextline, vb.nextline)
        assert np.array_equal(va.stride, vb.stride)
        assert np.array_equal(va.tail, vb.tail)


class TestFaultGrammar:
    def test_round_trip(self):
        plan = parse_fault_plan(
            "raise:gzip@*:attempt=1, crash:ammp@0.02:seconds=1,"
            "timeout:*:attempt=*:seconds=2, corrupt:gzip, partial:*:times=2"
        )
        kinds = [spec.kind for spec in plan.specs]
        assert kinds == ["raise", "crash", "timeout", "corrupt", "partial"]
        reparsed = parse_fault_plan(plan.describe())
        assert reparsed.describe() == plan.describe()

    def test_matching(self):
        job = SimulationJob("gzip", scale=SMALL)
        assert FaultSpec("raise", "gzip", "*").matches(job, 1)
        assert FaultSpec("raise", "*", str(SMALL)).matches(job, 1)
        assert not FaultSpec("raise", "ammp", "*").matches(job, 1)
        assert not FaultSpec("raise", "gzip", "0.5").matches(job, 1)
        assert not FaultSpec("raise", "gzip", "*", attempt=2).matches(job, 1)
        assert FaultSpec("raise", "gzip", "*", attempt=None).matches(job, 7)

    def test_default_sleep_depends_on_kind(self):
        assert FaultSpec("timeout").sleep_seconds == 5.0
        assert FaultSpec("crash").sleep_seconds == 0.0
        assert FaultSpec("crash", seconds=1.5).sleep_seconds == 1.5

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:gzip",  # unknown kind
            "raise",  # no target
            "raise:gzip:attempt",  # option without value
            "raise:gzip:bogus=1",  # unknown option
            "raise:gzip@fast",  # non-numeric scale
            "raise:gzip:attempt=0",  # attempt below 1
            "corrupt:gzip:attempt=1",  # attempt on a store fault
            "raise:gzip:times=2",  # times on a worker fault
            "partition:left",  # network kinds no longer exist
            "  ,  ",  # empty plan
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(EngineError):
            parse_fault_plan(bad)

    def test_engine_inactive_by_default(self):
        engine = ExecutionEngine(jobs=1, store=NullStore())
        assert engine.faults is None

    def test_engine_activated_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise:gzip@*:attempt=1")
        engine = ExecutionEngine(jobs=1, store=NullStore())
        assert engine.faults is not None
        assert engine.telemetry.context["faults"] == "raise:gzip:attempt=1"


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0)
        assert policy.delay_before(1) == 0.0
        assert policy.delay_before(2) == pytest.approx(0.1)
        assert policy.delay_before(3) == pytest.approx(0.2)
        assert policy.delay_before(4) == pytest.approx(0.4)

    def test_max_delay_caps_backoff(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=3.0)
        assert policy.delay_before(3) == 3.0

    def test_retries_left(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.retries_left(1)
        assert not policy.retries_left(2)

    def test_invalid_rejected(self):
        with pytest.raises(EngineError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(EngineError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(EngineError):
            RetryPolicy(multiplier=0.5)

    def test_env_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_DELAY", "0.25")
        policy = default_retry_policy()
        assert policy.max_attempts == 5
        assert policy.base_delay == 0.25

    @pytest.mark.parametrize(
        ("var", "raw"),
        [
            ("REPRO_RETRIES", "many"),
            ("REPRO_RETRIES", "0"),
            ("REPRO_RETRY_DELAY", "soon"),
            ("REPRO_RETRY_DELAY", "-1"),
        ],
    )
    def test_env_validation(self, monkeypatch, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(EngineError, match=var):
            default_retry_policy()


class TestSerialRetry:
    def test_transient_fault_retried_then_succeeds(self, reference):
        engine = ExecutionEngine(
            jobs=1,
            store=NullStore(),
            retry=FAST_RETRY,
            faults=parse_fault_plan("raise:gzip@*:attempt=1"),
        )
        job = SimulationJob("gzip", scale=SMALL)
        outcome = engine.run_one(job)
        assert outcome.attempts == 2
        assert outcome.retried
        assert_results_identical(outcome.annotated, reference[job].annotated)
        assert len(engine.telemetry.retries) == 1
        record = engine.telemetry.retries[0]
        assert record["where"] == "serial"
        assert "InjectedFault" in record["reason"]
        assert any("retrying" in note for note in engine.telemetry.notes)

    def test_retries_exhausted_raises_and_is_recorded(self):
        engine = ExecutionEngine(
            jobs=1,
            store=NullStore(),
            retry=RetryPolicy(max_attempts=3, base_delay=0.0),
            faults=parse_fault_plan("raise:gzip@*:attempt=*"),
        )
        with pytest.raises(InjectedFault):
            engine.run_one(SimulationJob("gzip", scale=SMALL))
        assert engine.telemetry.failed == 1
        assert len(engine.telemetry.retries) == 2  # attempts 1 and 2 failed
        assert "InjectedFault" in engine.telemetry.failures[0]["error"]

    def test_untargeted_jobs_unaffected(self, reference):
        engine = ExecutionEngine(
            jobs=1,
            store=NullStore(),
            retry=FAST_RETRY,
            faults=parse_fault_plan("raise:gzip@0.5:attempt=*"),
        )
        job = SimulationJob("gzip", scale=SMALL)  # different scale: no match
        outcome = engine.run_one(job)
        assert outcome.attempts == 1
        assert_results_identical(outcome.annotated, reference[job].annotated)


class TestPoolFaults:
    def test_transient_worker_fault_retried_in_pool(self, reference, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "raise:gzip@*:attempt=1")
        engine = ExecutionEngine(jobs=2, store=NullStore(), retry=FAST_RETRY)
        outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "parallel"
        assert outcomes[gzip_job].attempts == 2
        assert any(r["where"] == "pool" for r in engine.telemetry.retries)
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_timeout_then_success_on_retry(self, reference, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", "timeout:gzip@*:attempt=1:seconds=3"
        )
        engine = ExecutionEngine(
            jobs=2, store=NullStore(), timeout=1.5, retry=FAST_RETRY
        )
        outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].attempts >= 2
        assert any(
            "timeout" in r["reason"] for r in engine.telemetry.retries
        )
        assert any(
            "exceeded the 1.5s timeout" in note
            for note in engine.telemetry.notes
        )
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_worker_crash_finishes_run_on_fallback(self, reference, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:gzip@*:attempt=1")
        engine = ExecutionEngine(jobs=2, store=NullStore(), retry=FAST_RETRY)
        outcomes = engine.run(small_jobs())
        assert any(
            "worker process died" in note for note in engine.telemetry.notes
        )
        # The pool's leftovers degrade to the subprocess backend, which
        # retries the job (the crash fault only fires on attempt 1).
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "subprocess-fallback"
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_finished_futures_harvested_when_pool_breaks(
        self, reference, monkeypatch
    ):
        # gzip's worker dies 2.5 s in, long after ammp finished: ammp's
        # already-completed future must be harvested, not re-simulated.
        monkeypatch.setenv("REPRO_FAULTS", "crash:gzip@*:attempt=1:seconds=2.5")
        engine = ExecutionEngine(jobs=2, store=NullStore(), retry=FAST_RETRY)
        outcomes = engine.run(small_jobs())
        ammp_job = SimulationJob("ammp", scale=SMALL)
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[ammp_job].source == "parallel"
        assert outcomes[gzip_job].source == "subprocess-fallback"
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_pool_abandoned_when_every_slot_is_stuck(self):
        report = attempt_parallel(
            small_jobs(),
            max_workers=2,
            timeout=0.2,
            worker=_sleepy_worker,
            policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        assert report.completed == {}
        assert set(report.leftovers) == set(small_jobs())
        assert any("stuck on timed-out jobs" in note for note in report.notes)

    def test_pool_report_shape(self):
        report = PoolReport()
        assert report.completed == {} and report.leftovers == []
        assert report.retries == [] and report.notes == []


class TestStoreFaults:
    def test_corrupt_entry_quarantined_and_recomputed(self, reference, tmp_path):
        cache = tmp_path / "store-corrupt"
        job = SimulationJob("gzip", scale=SMALL)
        engine = ExecutionEngine(
            jobs=1,
            store=ResultStore(cache),
            faults=parse_fault_plan("corrupt:gzip@*"),
        )
        engine.run_one(job)
        assert len(engine.telemetry.faults) == 1
        # The corrupted entry fails its checksum and is quarantined (moved
        # aside for forensics, never served).
        fresh = ResultStore(cache)
        assert fresh.get(job.key()) is None
        assert fresh.quarantined == 1
        assert fresh.evictions == 0
        assert not fresh.path_for(job.key()).exists()
        assert len(list(fresh.quarantine_dir.glob("*.pkl"))) == 1
        assert "checksum" in fresh.corruption_events[0]["reason"]
        # A clean engine recomputes transparently and repopulates the slot.
        engine2 = ExecutionEngine(jobs=1, store=ResultStore(cache))
        outcome = engine2.run_one(job)
        assert outcome.simulated
        assert_results_identical(outcome.annotated, reference[job].annotated)
        assert ResultStore(cache).get(job.key()) is not None

    def test_partial_write_ignored(self, reference, tmp_path):
        cache = tmp_path / "store-partial"
        job = SimulationJob("ammp", scale=SMALL)
        engine = ExecutionEngine(
            jobs=1,
            store=ResultStore(cache),
            faults=parse_fault_plan("partial:ammp@*"),
        )
        engine.run_one(job)
        assert len(engine.telemetry.faults) == 1
        fresh = ResultStore(cache)
        assert fresh.get(job.key()) is None
        outcome = ExecutionEngine(jobs=1, store=ResultStore(cache)).run_one(job)
        assert outcome.simulated
        assert_results_identical(outcome.annotated, reference[job].annotated)

    def test_times_bounds_store_injections(self, tmp_path):
        engine = ExecutionEngine(
            jobs=1,
            store=ResultStore(tmp_path / "store-times"),
            faults=parse_fault_plan("partial:*:times=1"),
        )
        engine.run(small_jobs())
        assert len(engine.telemetry.faults) == 1

    def test_null_store_is_left_alone(self):
        engine = ExecutionEngine(
            jobs=1,
            store=NullStore(),
            faults=parse_fault_plan("corrupt:*"),
        )
        engine.run_one(SimulationJob("gzip", scale=SMALL))
        assert engine.telemetry.faults == []


class TestResume:
    def test_resume_after_simulated_crash(self, reference, tmp_path):
        cache = tmp_path / "resume-cache"
        jobs = small_jobs()
        # First run completes gzip, then "crashes" (we simply stop).
        first = ExecutionEngine(
            jobs=1, store=ResultStore(cache), journal=RunJournal(cache, "r1")
        )
        first.run([jobs[0]])
        journal = RunJournal(cache, "r1")
        assert journal.exists()
        assert journal.load() == {jobs[0].key()}
        # The resumed run picks up the journal and only simulates the rest.
        second = ExecutionEngine(
            jobs=1,
            store=ResultStore(cache),
            journal=RunJournal(cache, "r1"),
            resume=True,
        )
        outcomes = second.run(jobs)
        assert outcomes[jobs[0]].source == "cached"
        assert outcomes[jobs[1]].simulated
        assert second.telemetry.context["resumed"] is True
        assert any("resuming run 'r1'" in note for note in second.telemetry.notes)
        assert RunJournal(cache, "r1").load() == {j.key() for j in jobs}
        for job in jobs:
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_torn_journal_line_skipped(self, tmp_path):
        cache = tmp_path / "torn"
        journal = RunJournal(cache, "torn-run")
        job = small_jobs()[0]
        journal.record(job)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "cafe')  # crash mid-append
        assert RunJournal(cache, "torn-run").load() == {job.key()}

    def test_journaled_but_evicted_entry_recomputed(self, reference, tmp_path):
        cache = tmp_path / "evicted"
        jobs = small_jobs()
        store = ResultStore(cache)
        first = ExecutionEngine(
            jobs=1, store=store, journal=RunJournal(cache, "r2")
        )
        first.run(jobs)
        store.evict(jobs[0].key())  # the cache lost an entry mid-crash
        second = ExecutionEngine(
            jobs=1,
            store=ResultStore(cache),
            journal=RunJournal(cache, "r2"),
            resume=True,
        )
        outcomes = second.run(jobs)
        assert outcomes[jobs[0]].simulated
        assert any(
            "missing from the cache; recomputing" in note
            for note in second.telemetry.notes
        )
        assert_results_identical(
            outcomes[jobs[0]].annotated, reference[jobs[0]].annotated
        )

    def test_bad_run_id_rejected(self, tmp_path):
        with pytest.raises(EngineError):
            RunJournal(tmp_path, "../escape")
        with pytest.raises(EngineError):
            RunJournal(tmp_path, "")


class TestCacheBound:
    def _filler(self, size=200_000):
        return b"x" * size

    def test_limit_resolution(self, monkeypatch):
        assert resolve_cache_limit() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "2")
        assert resolve_cache_limit() == 2 * 1024 * 1024
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "lots")
        with pytest.raises(EngineError, match="REPRO_CACHE_MAX_MB"):
            resolve_cache_limit()
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "-1")
        with pytest.raises(EngineError, match="REPRO_CACHE_MAX_MB"):
            resolve_cache_limit()

    def test_lru_eviction_by_mtime(self, tmp_path):
        store = ResultStore(tmp_path / "bounded", max_mb=0.5)
        now = time.time()
        store.put("aaaa", self._filler())
        os.utime(store.path_for("aaaa"), (now - 100, now - 100))
        store.put("bbbb", self._filler())
        os.utime(store.path_for("bbbb"), (now - 50, now - 50))
        store.put("cccc", self._filler())  # pushes total over 0.5 MB
        assert not store.path_for("aaaa").exists()  # oldest went first
        assert store.path_for("bbbb").exists()
        assert store.path_for("cccc").exists()
        assert store.evictions >= 1

    def test_reads_refresh_recency(self, tmp_path):
        store = ResultStore(tmp_path / "touched", max_mb=0.5)
        now = time.time()
        store.put("aaaa", self._filler())
        os.utime(store.path_for("aaaa"), (now - 100, now - 100))
        store.put("bbbb", self._filler())
        os.utime(store.path_for("bbbb"), (now - 50, now - 50))
        assert store.get("aaaa") is not None  # touch: aaaa is now the hottest
        store.put("cccc", self._filler())
        assert store.path_for("aaaa").exists()
        assert not store.path_for("bbbb").exists()

    def test_just_written_entry_is_protected(self, tmp_path):
        store = ResultStore(tmp_path / "protected", max_mb=0.1)
        store.put("big1", self._filler(200_000))  # alone over the limit
        assert store.path_for("big1").exists()

    def test_unbounded_by_default(self, tmp_path):
        store = ResultStore(tmp_path / "unbounded")
        assert store.max_bytes is None
        for index in range(5):
            store.put(f"key{index}", self._filler(50_000))
        assert store.info()["entries"] == 5
        assert store.evictions == 0


class TestCliCacheCommands:
    def test_cache_info_and_clear(self, capsys):
        store = ResultStore()  # resolves the isolated REPRO_CACHE_DIR
        store.put("feed", [1, 2, 3])
        store.put("f00d", [4, 5, 6])
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries:         2" in out
        assert str(resolve_cache_dir()) in out
        assert "unbounded" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "entries:         0" in capsys.readouterr().out

    def test_cache_info_reports_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        assert main(["cache", "info"]) == 0
        assert "1.00 MB" in capsys.readouterr().out

    def test_unknown_cache_action_rejected(self, capsys):
        assert main(["cache", "shrink"]) == 2
        assert "shrink" in capsys.readouterr().err

    def test_subaction_rejected_for_experiments(self, capsys):
        assert main(["table1", "info"]) == 2
        assert "cache" in capsys.readouterr().err


class TestCliResume:
    def _clean_report(self, capsys):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        return capsys.readouterr().out

    def test_resume_report_byte_identical(self, capsys, monkeypatch):
        clean = self._clean_report(capsys)
        cache = resolve_cache_dir()
        # Interrupted run: one benchmark journaled, then the "crash".
        first = ExecutionEngine(
            jobs=1,
            store=ResultStore(cache),
            journal=RunJournal(cache, "crashy"),
        )
        first.run([SimulationJob("gzip", scale=SMALL)])
        assert main([*CLI_BASE, "--resume", "crashy"]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean
        assert "run journal:" in captured.err
        manifest_path = RunJournal(cache, "crashy").manifest_path
        manifest = json.loads(manifest_path.read_text())
        assert manifest["engine"]["resumed"] is True
        assert manifest["engine"]["run_id"] == "crashy"
        assert manifest["totals"]["cached"] >= 1
        assert any("resuming run" in note for note in manifest["notes"])

    def test_run_id_then_resume_lifecycle_errors(self, capsys):
        assert main([*CLI_BASE, "--resume", "never-started"]) == 2
        assert "no journal" in capsys.readouterr().err
        assert main([*CLI_BASE, "--jobs", "1", "--run-id", "done"]) == 0
        capsys.readouterr()
        assert main([*CLI_BASE, "--run-id", "done"]) == 2
        assert "--resume done" in capsys.readouterr().err
        assert main([*CLI_BASE, "--run-id", "x", "--no-cache"]) == 2
        assert "no-cache" in capsys.readouterr().err
        assert main([*CLI_BASE, "--run-id", "a", "--resume", "b"]) == 2
        assert "conflicts" in capsys.readouterr().err

    def test_completed_run_resumes_to_identical_report(self, capsys):
        clean = self._clean_report(capsys)
        assert main([*CLI_BASE, "--jobs", "1", "--run-id", "full"]) == 0
        assert capsys.readouterr().out == clean
        assert main([*CLI_BASE, "--resume", "full"]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean
        assert "cached" in captured.err


class TestByteIdenticalUnderFaults:
    """The acceptance criterion: faults never change the report."""

    def test_faulted_parallel_run_matches_clean_serial(self, capsys, monkeypatch):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
        monkeypatch.setenv(
            "REPRO_FAULTS", "raise:gzip@*:attempt=1,corrupt:ammp@*"
        )
        manifest_path = resolve_cache_dir().parent / "faulted-manifest.json"
        assert (
            main([*CLI_BASE, "--jobs", "2", "--manifest", str(manifest_path)])
            == 0
        )
        faulted = capsys.readouterr()
        assert faulted.out == clean
        manifest = json.loads(manifest_path.read_text())
        assert manifest["totals"]["retries"] >= 1
        assert manifest["totals"]["faults_injected"] == 1
        assert manifest["retries"] and manifest["faults"]
        # ammp's corrupted entry is quarantined on the next run: the
        # report is still identical and the run recomputes transparently.
        monkeypatch.delenv("REPRO_FAULTS")
        assert main([*CLI_BASE, "--jobs", "1"]) == 0
        assert capsys.readouterr().out == clean


#: The CI chaos matrix sets REPRO_CHAOS_BACKEND to pool/subprocess/serial;
#: locally the default exercises the full degradation chain.
CHAOS_BACKEND = os.environ.get("REPRO_CHAOS_BACKEND", "pool")


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="chaos sweep only runs with REPRO_CHAOS=1 (CI chaos job)",
)
class TestChaos:
    """End-to-end chaos: every fault kind at once, report still identical."""

    def test_chaos_run_matches_clean(self, capsys, monkeypatch):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "1.5")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "timeout:gzip@*:attempt=1:seconds=3,"
            "raise:ammp@*:attempt=1,"
            "partial:gzip@*,corrupt:ammp@*",
        )
        manifest_path = resolve_cache_dir().parent / "chaos-manifest.json"
        assert (
            main(
                [
                    *CLI_BASE,
                    "--jobs",
                    "2",
                    "--backend",
                    CHAOS_BACKEND,
                    "--manifest",
                    str(manifest_path),
                ]
            )
            == 0
        )
        chaos = capsys.readouterr()
        assert chaos.out == clean
        manifest = json.loads(manifest_path.read_text())
        # The serial path only sees the raise fault; the worker backends
        # additionally retry the injected timeout.
        min_retries = 1 if CHAOS_BACKEND == "serial" else 2
        assert manifest["totals"]["retries"] >= min_retries
        assert manifest["totals"]["faults_injected"] == 2
        assert manifest["notes"]
        # Survivors of the chaos run are corrupt on disk; a clean rerun
        # quarantines them and still reproduces the same report.
        monkeypatch.delenv("REPRO_FAULTS")
        assert main([*CLI_BASE, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == clean

    def test_chaos_degradation_matches_clean(self, capsys, monkeypatch):
        """Hangs, flapping workers, and garbage results on every backend.

        On the worker backends the heartbeat watchdog kills the hang,
        the flapping worker is respawned, and the validation gate
        quarantines the garbage result; the serial backend never sees
        the worker-side faults at all.  Either way the report must be
        byte-identical to a clean run.
        """
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_WATCHDOG", "1.0")
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "hang:gzip@*:attempt=1:seconds=4,"
            "flap:ammp@*:attempt=1,"
            "garbage:gzip@*:attempt=2",
        )
        manifest_path = resolve_cache_dir().parent / "degrade-manifest.json"
        assert (
            main(
                [
                    *CLI_BASE,
                    "--jobs",
                    "2",
                    "--backend",
                    CHAOS_BACKEND,
                    "--no-cache",
                    "--manifest",
                    str(manifest_path),
                ]
            )
            == 0
        )
        chaotic = capsys.readouterr()
        assert chaotic.out == clean
        manifest = json.loads(manifest_path.read_text())
        assert manifest["engine"]["backend"] == CHAOS_BACKEND
        assert manifest["engine"]["backend_chain"][-1] == "serial"
        if CHAOS_BACKEND != "serial":
            # The run survived *something*: a within-backend retry or a
            # cross-backend fallback (degradation logs no retry record).
            totals = manifest["totals"]
            assert totals["retries"] + totals["fallbacks"] >= 1
            assert totals["quarantined_results"] >= 1
            assert manifest["quarantine"]
