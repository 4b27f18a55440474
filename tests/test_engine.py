"""Tests for repro.engine — jobs, store, parallelism, robustness, telemetry."""

import json
import time

import numpy as np
import pytest

from repro.cli import main
from repro.cpu.pipeline import PipelineConfig
from repro.engine import (
    MANIFEST_VERSION,
    SCHEMA_VERSION,
    SOURCE_CACHED,
    SOURCE_SUBPROCESS_FALLBACK,
    ExecutionEngine,
    NullStore,
    ResultStore,
    RetryPolicy,
    RunTelemetry,
    SimulationJob,
    attempt_parallel,
    resolve_cache_dir,
    resolve_worker_count,
)
from repro.errors import EngineError, ExperimentError
from repro.experiments.runner import run_all
from repro.experiments.suite import SuiteRunner

#: Small enough that one simulation takes well under a second.
SMALL = 0.02

#: Two benchmarks keep fan-out meaningful while the suite stays fast.
SUITE_NAMES = ("gzip", "ammp")


def small_jobs():
    return [SimulationJob(name, scale=SMALL) for name in SUITE_NAMES]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A cache directory warmed by one serial engine pass."""
    directory = tmp_path_factory.mktemp("engine-cache")
    engine = ExecutionEngine(jobs=1, store=ResultStore(directory))
    outcomes = engine.run(small_jobs())
    return directory, outcomes


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


class TestJobs:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(EngineError):
            SimulationJob("perlbmk")

    def test_bad_scale_rejected(self):
        with pytest.raises(EngineError):
            SimulationJob("gzip", scale=0)

    def test_key_is_stable(self):
        assert SimulationJob("gzip", 0.5).key() == SimulationJob("gzip", 0.5).key()

    def test_key_separates_parameters(self):
        keys = {
            SimulationJob("gzip", 0.5).key(),
            SimulationJob("gzip", 0.25).key(),
            SimulationJob("ammp", 0.5).key(),
            SimulationJob("gzip", 0.5, PipelineConfig(width=2, base_cpi=0.65)).key(),
        }
        assert len(keys) == 4

    def test_jobs_are_hashable_cache_keys(self):
        assert SimulationJob("gzip", 0.5) == SimulationJob("gzip", 0.5)
        assert len({SimulationJob("gzip", 0.5), SimulationJob("gzip", 0.5)}) == 1


class TestParallelEquivalence:
    def test_parallel_matches_serial_bit_for_bit(self, warm_store):
        _, serial = warm_store
        parallel = ExecutionEngine(jobs=2, store=NullStore()).run(small_jobs())
        for job in small_jobs():
            assert parallel[job].source == "parallel"
            assert_results_identical(parallel[job].annotated, serial[job].annotated)

    def test_duplicate_jobs_deduplicated(self):
        job = SimulationJob("gzip", scale=SMALL)
        engine = ExecutionEngine(jobs=1, store=NullStore())
        outcomes = engine.run([job, job, job])
        assert len(outcomes) == 1
        assert engine.telemetry.jobs == 1


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("k" * 64) is None
        assert store.put("k" * 64, {"hello": [1, 2, 3]})
        assert store.get("k" * 64) == {"hello": [1, 2, 3]}
        assert store.hits == 1 and store.misses == 1

    def test_version_bump_evicts_stale_entry(self, tmp_path):
        old = ResultStore(tmp_path, schema_version=SCHEMA_VERSION)
        old.put("deadbeef", "payload")
        bumped = ResultStore(tmp_path, schema_version=SCHEMA_VERSION + 1)
        assert bumped.get("deadbeef") is None
        assert bumped.evictions == 1
        assert not bumped.path_for("deadbeef").exists()

    def test_corrupted_entry_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("cafe", [1, 2, 3])
        path = store.path_for("cafe")
        path.write_bytes(path.read_bytes()[:-7] + b"garbage")
        assert store.get("cafe") is None
        assert not path.exists()

    def test_truncated_entry_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("beef", list(range(100)))
        path = store.path_for("beef")
        path.write_bytes(path.read_bytes()[:10])
        assert store.get("beef") is None
        assert not path.exists()

    def test_unwritable_directory_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "cache")
        assert not store.put("abcd", "value")
        assert store.write_errors == 1
        assert store.get("abcd") is None

    def test_cache_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir() == tmp_path / "env"
        assert resolve_cache_dir(tmp_path / "arg") == tmp_path / "arg"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert resolve_cache_dir().name == "repro-leakage"

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("one", 1)
        store.put("two", 2)
        assert store.clear() == 2
        assert store.get("one") is None


class TestEngineCaching:
    def test_warm_cache_skips_all_simulation(self, warm_store):
        directory, serial = warm_store
        engine = ExecutionEngine(jobs=2, store=ResultStore(directory))
        outcomes = engine.run(small_jobs())
        assert all(o.source == SOURCE_CACHED for o in outcomes.values())
        assert engine.telemetry.cached == engine.telemetry.jobs == len(outcomes)
        assert engine.telemetry.simulated == 0
        for job in small_jobs():
            assert_results_identical(outcomes[job].annotated, serial[job].annotated)

    def test_corrupted_cache_entry_recomputed(self, warm_store, tmp_path):
        directory, serial = warm_store
        # Work on a copy so the module-scoped warm store stays intact.
        store = ResultStore(tmp_path / "cache")
        job = small_jobs()[0]
        payload = ResultStore(directory).get(job.key())
        store.put(job.key(), payload)
        store.path_for(job.key()).write_bytes(b'{"schema_version": 1}\njunk')
        engine = ExecutionEngine(jobs=1, store=store)
        outcome = engine.run_one(job)
        assert outcome.simulated
        assert_results_identical(outcome.annotated, serial[job].annotated)
        # The slot was repopulated with a valid entry.
        fresh = ResultStore(tmp_path / "cache")
        assert fresh.get(job.key()) is not None

    def test_no_cache_store_always_simulates(self):
        job = SimulationJob("gzip", scale=SMALL)
        engine = ExecutionEngine(jobs=1, store=NullStore())
        assert engine.run_one(job).simulated
        assert engine.run_one(job).simulated
        assert engine.telemetry.simulated == 2


def _slow_worker(job, attempt=1):
    # Long enough to trip a 0.2s timeout, short enough that the orphaned
    # workers (the pool cannot kill them) don't delay interpreter exit.
    time.sleep(2)
    return None, 0.0  # pragma: no cover


def _crashing_worker(job, attempt=1):
    raise ValueError("boom")


class TestRobustness:
    def test_timeout_exhausts_retries_then_leaves_serial_work(self):
        jobs = small_jobs()
        report = attempt_parallel(
            jobs,
            max_workers=2,
            timeout=0.2,
            worker=_slow_worker,
            policy=RetryPolicy(max_attempts=1),
        )
        assert report.completed == {}
        assert report.leftovers == jobs
        assert any("timeout" in note for note in report.notes)

    def test_worker_exception_retried_then_left_for_serial(self):
        jobs = small_jobs()
        report = attempt_parallel(
            jobs,
            max_workers=2,
            timeout=None,
            worker=_crashing_worker,
            policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        assert report.completed == {}
        assert set(report.leftovers) == set(jobs)
        assert any("raised in a worker" in note for note in report.notes)
        assert any("retries exhausted" in note for note in report.notes)
        # One retry per job was attempted before giving up.
        assert len(report.retries) == len(jobs)
        assert all(r["where"] == "pool" for r in report.retries)
        assert all(report.attempts[job] == 2 for job in jobs)

    def test_pool_failure_falls_back_to_subprocess(self, monkeypatch):
        import repro.engine.robustness as robustness_module
        from repro.engine import PoolReport

        def broken_pool(
            jobs, max_workers, timeout, worker=None, policy=None, **kwargs
        ):
            return PoolReport(
                leftovers=list(jobs),
                notes=["worker pool failed to start (test)"],
            )

        monkeypatch.setattr(robustness_module, "attempt_parallel", broken_pool)
        engine = ExecutionEngine(jobs=2, store=NullStore())
        outcomes = engine.run(small_jobs())
        assert all(
            o.source == SOURCE_SUBPROCESS_FALLBACK for o in outcomes.values()
        )
        assert engine.telemetry.fallbacks == len(outcomes)
        assert any("failed to start" in note for note in engine.telemetry.notes)

    def test_timeout_env_validation(self, monkeypatch):
        from repro.engine import default_job_timeout

        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2.5")
        assert default_job_timeout() == 2.5
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "zero")
        with pytest.raises(EngineError):
            default_job_timeout()
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "-1")
        with pytest.raises(EngineError):
            default_job_timeout()


class TestWorkerCount:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_worker_count(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_worker_count() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_worker_count() >= 1

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(EngineError):
            resolve_worker_count(0)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(EngineError, match="REPRO_JOBS"):
            resolve_worker_count()

    def test_env_validation_names_the_variable(self, monkeypatch):
        for raw in ("0", "-3", "2.5", "all"):
            monkeypatch.setenv("REPRO_JOBS", raw)
            with pytest.raises(EngineError, match="REPRO_JOBS"):
                resolve_worker_count()


class TestTelemetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_simulating_local_run_writes_no_fault_domains(self, jobs, tmp_path):
        """A cold local run simulates on one rung and never descends, so
        the manifest has no ``fault_domains`` section (nor any other
        section of a subsystem that did not run)."""
        engine = ExecutionEngine(jobs=jobs, store=ResultStore(tmp_path / "c"))
        engine.run(small_jobs())
        manifest = engine.telemetry.manifest()
        assert manifest["totals"]["simulated"] == len(SUITE_NAMES)
        for section in ("service", "coordination", "heartbeats", "fault_domains"):
            assert section not in manifest

    def test_forced_descent_writes_the_local_ladder(self, monkeypatch):
        """A pool that strands its jobs descends to the subprocess rung;
        ``fault_domains`` records that local ladder and nothing else."""
        import repro.engine.robustness as robustness_module
        from repro.engine import PoolReport

        def broken_pool(
            jobs, max_workers, timeout, worker=None, policy=None, **kwargs
        ):
            return PoolReport(
                leftovers=list(jobs),
                infra_failures=["worker pool failed to start (test)"],
            )

        monkeypatch.setattr(robustness_module, "attempt_parallel", broken_pool)
        engine = ExecutionEngine(jobs=2, store=NullStore(), backend="pool")
        engine.run(small_jobs())
        domains = engine.telemetry.manifest()["fault_domains"]
        assert set(domains) == {"ladder", "rungs_used", "final_rung"}
        assert [(d["from"], d["to"]) for d in domains["ladder"]] == [
            ("pool", "subprocess")
        ]
        assert domains["rungs_used"] == ["subprocess"]
        assert domains["final_rung"] == "subprocess"

    def test_manifest_schema(self, warm_store, tmp_path):
        directory, _ = warm_store
        engine = ExecutionEngine(jobs=2, store=ResultStore(directory))
        engine.run(small_jobs())
        path = engine.telemetry.write_manifest(tmp_path / "manifest.json")
        manifest = json.loads(open(path, encoding="utf-8").read())
        assert manifest["manifest_version"] == MANIFEST_VERSION == 11
        # A plain CLI-style run: no daemon, no watchdog event, no descent.
        for section in ("service", "coordination", "heartbeats", "fault_domains"):
            assert section not in manifest
        assert "hosts" not in manifest["engine"]
        substrate = manifest["substrate"]
        assert set(substrate) == {"kernel_mode", "residual_impl"}
        assert substrate["kernel_mode"] in ("scalar", "batched", "compiled")
        assert substrate["residual_impl"] in ("python", "compiled", "scalar")
        for row in manifest["jobs"]:
            assert row["residual_impl"] in ("", "python", "compiled", "scalar")
        assert manifest["retries"] == []
        assert manifest["faults"] == []
        assert manifest["quarantine"] == []
        assert manifest["totals"]["heartbeat_events"] == 0
        totals = manifest["totals"]
        for field in (
            "jobs",
            "cached",
            "simulated",
            "failed",
            "serial_fallbacks",
            "fallbacks",
            "retries",
            "retried_jobs",
            "faults_injected",
            "quarantined_results",
            "cache_quarantined",
            "heartbeat_events",
            "breaker_trips",
            "cache_hits_from_earlier_runs",
            "cache_hits_from_this_run",
            "wall_seconds",
            "instructions",
            "simulated_instructions",
            "instructions_per_second",
            "fast_path_accesses",
            "slow_path_accesses",
            "fast_path_share",
        ):
            assert field in totals
        assert totals["jobs"] == len(SUITE_NAMES)
        assert totals["cached"] == totals["jobs"]
        # The warm store was filled by an earlier engine instance, so every
        # hit counts as shared from an earlier run.
        assert totals["cache_hits_from_earlier_runs"] == totals["jobs"]
        assert totals["cache_hits_from_this_run"] == 0
        assert manifest["store"]["hits"] == totals["jobs"]
        assert manifest["engine"]["max_workers"] == 2
        for row in manifest["jobs"]:
            assert row["benchmark"] in SUITE_NAMES
            assert row["source"] == SOURCE_CACHED
            assert len(row["key"]) == 64
            assert row["instructions"] > 0 and row["cycles"] > 0
            assert row["attempts"] == 1

    def test_summary_reports_counts(self, warm_store):
        directory, _ = warm_store
        engine = ExecutionEngine(jobs=1, store=ResultStore(directory))
        engine.run(small_jobs())
        summary = engine.telemetry.summary()
        assert "2 jobs" in summary and "2 cached" in summary

    def test_empty_summary(self):
        assert "no simulation jobs" in RunTelemetry().summary()


class TestRunnerValidation:
    def test_run_all_rejects_unknown_names_up_front(self):
        with pytest.raises(ExperimentError) as excinfo:
            run_all(names=["table1", "figure99", "nope"])
        message = str(excinfo.value)
        assert "figure99" in message and "nope" in message

    def test_suite_runner_rejects_unknown_benchmarks(self):
        with pytest.raises(ExperimentError) as excinfo:
            SuiteRunner(scale=SMALL, benchmarks=["gzip", "perlbmk"])
        assert "perlbmk" in str(excinfo.value)


class TestCliEngine:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        return tmp_path

    def test_unknown_benchmarks_rejected_before_running(self, capsys):
        assert main(["all", "--benchmarks", "gzip", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err and "gzip" in err

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["table1"])
        assert args.jobs is None
        assert not args.no_cache
        assert args.manifest is None

    def test_parallel_report_matches_serial_and_cache_warms(
        self, isolated_cache, capsys
    ):
        base = [
            "figure7",
            "--scale",
            str(SMALL),
            "--benchmarks",
            *SUITE_NAMES,
        ]
        assert main([*base, "--jobs", "1", "--no-cache"]) == 0
        serial_report = capsys.readouterr().out
        manifest_path = isolated_cache / "manifest.json"
        assert (
            main([*base, "--jobs", "2", "--manifest", str(manifest_path)]) == 0
        )
        cold = capsys.readouterr()
        assert cold.out == serial_report
        cold_manifest = json.loads(manifest_path.read_text())
        assert cold_manifest["totals"]["simulated"] == len(SUITE_NAMES)
        # Warm rerun: identical report, zero simulations.
        assert (
            main([*base, "--jobs", "2", "--manifest", str(manifest_path)]) == 0
        )
        warm = capsys.readouterr()
        assert warm.out == serial_report
        assert "cached" in warm.err
        warm_manifest = json.loads(manifest_path.read_text())
        assert warm_manifest["totals"]["simulated"] == 0
        assert (
            warm_manifest["totals"]["cached"] == warm_manifest["totals"]["jobs"]
        )
