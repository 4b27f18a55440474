"""Supervised multi-backend execution: chains, breakers, watchdogs, gate.

The engine promises that the *backend* — process pool, subprocess
workers, or in-process serial — never changes *what* a run computes,
only where it runs and how it survives infrastructure failure.  This
module pins that promise down:

* every backend produces bit-identical results and labels its sources;
* the supervisor degrades pool -> subprocess -> serial, with per-backend
  circuit breakers (closed -> open -> half-open) deciding who gets work;
* the subprocess backend's heartbeat watchdog detects and kills hung
  workers independently of any job timeout;
* the invariant-validation gate quarantines garbage results before they
  can reach the cache, on every path;
* corrupt cache entries are quarantined (moved aside), surfaced in
  ``cache info``, and cleaned by ``cache clear``.
"""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.engine import (
    CircuitBreaker,
    ExecutionEngine,
    InvalidResultError,
    NullStore,
    PoolReport,
    ResultStore,
    RetryPolicy,
    RunJournal,
    SimulationJob,
    Supervisor,
    WorkerBackend,
    build_chain,
    check_result,
    default_breaker_cooldown,
    default_breaker_threshold,
    default_heartbeat_interval,
    default_watchdog,
    parse_fault_plan,
    resolve_backend_name,
    resolve_cache_dir,
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
    """Clean serial outcomes to compare every supervised run against."""
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


class TestBackendSelection:
    def test_argument_env_default_precedence(self, monkeypatch):
        assert resolve_backend_name() == "pool"
        monkeypatch.setenv("REPRO_BACKEND", "subprocess")
        assert resolve_backend_name() == "subprocess"
        assert resolve_backend_name("serial") == "serial"  # argument wins

    def test_invalid_backend_rejected(self, monkeypatch):
        with pytest.raises(EngineError, match="REPRO_BACKEND"):
            resolve_backend_name("quantum")
        with pytest.raises(EngineError, match="'remote'"):
            resolve_backend_name("remote")
        monkeypatch.setenv("REPRO_BACKEND", "cloud")
        with pytest.raises(EngineError, match="cloud"):
            ExecutionEngine(jobs=1, store=NullStore())

    def test_chain_shapes(self):
        assert [b.name for b in build_chain("pool", 2)] == [
            "pool",
            "subprocess",
        ]
        assert [b.name for b in build_chain("subprocess", 2)] == ["subprocess"]
        assert build_chain("serial", 2) == []

    def test_heartbeat_env(self, monkeypatch):
        assert default_heartbeat_interval() == 0.5
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.2")
        assert default_heartbeat_interval() == 0.2
        monkeypatch.setenv("REPRO_HEARTBEAT", "fast")
        with pytest.raises(EngineError, match="REPRO_HEARTBEAT"):
            default_heartbeat_interval()
        monkeypatch.setenv("REPRO_HEARTBEAT", "-1")
        with pytest.raises(EngineError, match="REPRO_HEARTBEAT"):
            default_heartbeat_interval()

    def test_watchdog_env(self, monkeypatch):
        assert default_watchdog() is None
        monkeypatch.setenv("REPRO_WATCHDOG", "0")
        assert default_watchdog() is None  # 0 = use the backend default
        monkeypatch.setenv("REPRO_WATCHDOG", "2.5")
        assert default_watchdog() == 2.5
        monkeypatch.setenv("REPRO_WATCHDOG", "soon")
        with pytest.raises(EngineError, match="REPRO_WATCHDOG"):
            default_watchdog()

    def test_breaker_env(self, monkeypatch):
        assert default_breaker_threshold() == 3
        assert default_breaker_cooldown() == 30.0
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "2")
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN", "0.5")
        assert default_breaker_threshold() == 2
        assert default_breaker_cooldown() == 0.5
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "0")
        with pytest.raises(EngineError, match="REPRO_BREAKER_THRESHOLD"):
            default_breaker_threshold()
        monkeypatch.setenv("REPRO_BREAKER_COOLDOWN", "-1")
        with pytest.raises(EngineError, match="REPRO_BREAKER_COOLDOWN"):
            default_breaker_cooldown()

    def test_cli_rejects_unknown_backend(self, capsys):
        assert main([*CLI_BASE, "--backend", "quantum"]) == 2
        assert "invalid choice" in capsys.readouterr().err


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        ("backend", "source"),
        [("serial", "serial"), ("pool", "parallel"), ("subprocess", "subprocess")],
    )
    def test_identical_results_and_sources(self, backend, source, reference):
        engine = ExecutionEngine(jobs=2, store=NullStore(), backend=backend)
        outcomes = engine.run(small_jobs())
        assert engine.telemetry.context["backend"] == backend
        assert engine.telemetry.context["backend_chain"][-1] == "serial"
        for job in small_jobs():
            assert outcomes[job].source == source
            assert outcomes[job].attempts == 1
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_single_job_skips_the_pool(self):
        # One pending job is not worth a pool: plain serial, no fallback.
        engine = ExecutionEngine(jobs=4, store=NullStore(), backend="pool")
        outcome = engine.run_one(SimulationJob("gzip", scale=SMALL))
        assert outcome.source == "serial"
        assert engine.telemetry.fallbacks == 0


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker("pool", threshold=2, cooldown=60.0)
        breaker.record(["worker died"])
        assert breaker.state == "closed" and breaker.allow()
        breaker.record(["worker died again"])
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.transitions[-1]["to"] == "open"

    def test_one_dispatch_can_trip_it(self):
        breaker = CircuitBreaker("pool", threshold=3, cooldown=60.0)
        breaker.record(["w1 died", "w2 died", "w3 died"])
        assert breaker.state == "open"

    def test_clean_dispatch_resets_the_count(self):
        breaker = CircuitBreaker("pool", threshold=2, cooldown=60.0)
        breaker.record(["worker died"])
        breaker.record([])
        breaker.record(["worker died"])
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 1

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker("pool", threshold=1, cooldown=0.0)
        breaker.record(["worker died"])
        assert breaker.state == "open"
        assert breaker.allow()  # cooldown elapsed: probe allowed
        assert breaker.state == "half-open"
        breaker.record([])
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker("pool", threshold=1, cooldown=0.0)
        breaker.record(["worker died"])
        assert breaker.allow()
        breaker.record(["still dying"])
        assert breaker.state == "open"
        assert "probe failed" in breaker.transitions[-1]["reason"]


class TestBreakerBackoffEscalation:
    def test_failed_probe_escalates_instead_of_resetting(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            "b", threshold=2, cooldown=10.0, clock=lambda: clock["now"]
        )
        breaker.record(["boom"])
        breaker.record(["boom"])
        assert breaker.state == "open"
        assert breaker.current_cooldown() == 10.0
        clock["now"] = 10.0
        assert breaker.allow()  # half-open probe
        assert breaker.state == "half-open"
        breaker.record(["still broken"])  # failed probe
        assert breaker.state == "open"
        # The next wait is the *next* backoff step, not the base again.
        assert breaker.current_cooldown() == 20.0
        clock["now"] = 20.0
        assert not breaker.allow()  # base cooldown is no longer enough
        clock["now"] = 30.0
        assert breaker.allow()
        breaker.record(["worse"])
        assert breaker.current_cooldown() == 40.0
        # A successful probe closes in one step and resets the schedule.
        clock["now"] = 70.0
        assert breaker.allow()
        breaker.record([])
        assert breaker.state == "closed"
        assert breaker.current_cooldown() == 10.0

    def test_backoff_exponent_is_capped(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            "b", threshold=1, cooldown=1.0, clock=lambda: clock["now"]
        )
        breaker.record(["boom"])
        for _ in range(10):
            clock["now"] += breaker.current_cooldown()
            assert breaker.allow()
            breaker.record(["boom"])
        assert breaker.current_cooldown() == 2.0**6


class _ScriptedBackend(WorkerBackend):
    """A chain stage with programmable behavior, recording what it saw."""

    def __init__(self, name, behavior):
        self.name = name
        self.source = name
        self.fallback_source = f"{name}-fallback"
        self.behavior = behavior
        self.calls = []

    def run(self, jobs, start_attempts, policy):
        self.calls.append((list(jobs), dict(start_attempts)))
        return self.behavior(jobs, start_attempts, policy)


def _completes(jobs, start_attempts, policy):
    return PoolReport(
        completed={job: (f"value:{job}", 0.1) for job in jobs},
        attempts={job: start_attempts.get(job, 0) + 1 for job in jobs},
    )


def _broken(jobs, start_attempts, policy):
    return PoolReport(
        leftovers=list(jobs),
        attempts={job: start_attempts.get(job, 0) + 1 for job in jobs},
        infra_failures=["backend exploded"],
        notes=["backend exploded"],
    )


class TestSupervisor:
    def test_degrades_to_next_backend_with_attempts_intact(self):
        alpha = _ScriptedBackend("alpha", _broken)
        beta = _ScriptedBackend("beta", _completes)
        supervisor = Supervisor(
            [alpha, beta], FAST_RETRY, threshold=5, cooldown=60.0
        )
        out = supervisor.dispatch(["j1", "j2"])
        assert out.engaged
        assert out.leftovers == []
        # Beta saw the attempt each job burned on alpha.
        assert beta.calls[0][1] == {"j1": 1, "j2": 1}
        for job in ("j1", "j2"):
            assert out.completed[job].source == "beta-fallback"
            assert out.completed[job].attempts == 2

    def test_open_breaker_skips_a_backend(self):
        alpha = _ScriptedBackend("alpha", _broken)
        beta = _ScriptedBackend("beta", _completes)
        supervisor = Supervisor(
            [alpha, beta], FAST_RETRY, threshold=1, cooldown=60.0
        )
        supervisor.dispatch(["j1"])
        assert supervisor.breakers["alpha"].state == "open"
        out = supervisor.dispatch(["j2"])
        assert len(alpha.calls) == 1  # skipped the second time
        assert out.completed["j2"].source == "beta-fallback"
        assert any("circuit breaker is open" in note for note in out.notes)
        snapshot = supervisor.snapshot()
        assert snapshot["states"]["alpha"] == "open"
        assert snapshot["trips"] == 1

    def test_half_open_probe_recovers_the_backend(self):
        alpha = _ScriptedBackend("alpha", _broken)
        beta = _ScriptedBackend("beta", _completes)
        supervisor = Supervisor(
            [alpha, beta], FAST_RETRY, threshold=1, cooldown=0.0
        )
        supervisor.dispatch(["j1"])
        alpha.behavior = _completes  # the host got healthy again
        out = supervisor.dispatch(["j2"])
        assert out.completed["j2"].source == "alpha"  # primary again
        assert supervisor.breakers["alpha"].state == "closed"
        transitions = [t["to"] for t in supervisor.transitions]
        assert transitions == ["open", "half-open", "closed"]

    def test_exhausted_jobs_skip_remaining_backends(self):
        def exhausts(jobs, start_attempts, policy):
            return PoolReport(
                leftovers=list(jobs),
                exhausted=list(jobs),
                attempts={job: policy.max_attempts for job in jobs},
            )

        alpha = _ScriptedBackend("alpha", exhausts)
        beta = _ScriptedBackend("beta", _completes)
        supervisor = Supervisor(
            [alpha, beta], FAST_RETRY, threshold=5, cooldown=60.0
        )
        out = supervisor.dispatch(["j1"])
        assert beta.calls == []  # no point: the retry budget is gone
        assert out.leftovers == [("j1", FAST_RETRY.max_attempts)]
        assert out.engaged


class TestSubprocessBackend:
    def test_hung_worker_detected_killed_and_requeued(
        self, reference, monkeypatch
    ):
        # The hang outlives any test patience (8 s); only the heartbeat
        # watchdog (1 s) brings the run home fast.
        monkeypatch.setenv("REPRO_FAULTS", "hang:gzip@*:attempt=1:seconds=8")
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setenv("REPRO_WATCHDOG", "1.0")
        engine = ExecutionEngine(
            jobs=2, store=NullStore(), retry=FAST_RETRY, backend="subprocess"
        )
        outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "subprocess"
        assert outcomes[gzip_job].attempts == 2
        events = engine.telemetry.heartbeats
        assert any(e["kind"] == "hang" for e in events)
        assert any("went silent" in note for note in engine.telemetry.notes)
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )

    def test_flapping_worker_respawned_transparently(
        self, reference, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "flap:gzip@*:attempt=1")
        engine = ExecutionEngine(
            jobs=2, store=NullStore(), retry=FAST_RETRY, backend="subprocess"
        )
        outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "subprocess"
        assert outcomes[gzip_job].attempts == 2
        assert any("died (exit 86)" in note for note in engine.telemetry.notes)
        assert_results_identical(
            outcomes[gzip_job].annotated, reference[gzip_job].annotated
        )

    def test_persistent_flapping_trips_breaker_then_serial(
        self, reference, monkeypatch
    ):
        # gzip kills its worker on *every* attempt: the retry budget is
        # exhausted on the subprocess backend (3 worker deaths = breaker
        # threshold) and the terminal serial path finishes the job.
        monkeypatch.setenv("REPRO_FAULTS", "flap:gzip@*")
        engine = ExecutionEngine(
            jobs=2, store=NullStore(), retry=FAST_RETRY, backend="subprocess"
        )
        outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        ammp_job = SimulationJob("ammp", scale=SMALL)
        assert outcomes[ammp_job].source == "subprocess"
        assert outcomes[gzip_job].source == "serial-fallback"
        assert outcomes[gzip_job].attempts == FAST_RETRY.max_attempts + 1
        assert engine.telemetry.breakers["states"]["subprocess"] == "open"
        assert engine.telemetry.breaker_trips == 1
        for job in small_jobs():
            assert_results_identical(
                outcomes[job].annotated, reference[job].annotated
            )


class TestValidationGate:
    def test_clean_result_passes(self, reference):
        job = SimulationJob("gzip", scale=SMALL)
        assert check_result(reference[job].annotated) == []

    def test_never_raises_on_alien_payloads(self):
        assert check_result(object()) == [
            "payload carries no simulation result"
        ]

    def test_negative_cycles_caught(self, reference):
        job = SimulationJob("gzip", scale=SMALL)
        good = reference[job].annotated
        bad = replace(good, result=replace(good.result, cycles=-1))
        assert any("cycles" in v for v in check_result(bad))

    def test_overlapping_flags_caught(self, reference):
        job = SimulationJob("gzip", scale=SMALL)
        good = reference[job].annotated
        # Constructor validation forbids overlapping flags, but pickling
        # bypasses __post_init__ — sneak past it the same way a corrupt
        # payload would.
        everywhere = np.ones(len(good.l1i.nextline), dtype=bool)
        poisoned = copy.copy(good.l1i)
        object.__setattr__(poisoned, "nextline", everywhere)
        object.__setattr__(poisoned, "stride", everywhere)
        bad = replace(good, l1i=poisoned)
        assert any("overlap" in v for v in check_result(bad))

    def test_garbage_result_quarantined_and_retried(self, reference, tmp_path):
        cache = tmp_path / "gate-cache"
        engine = ExecutionEngine(
            jobs=1,
            store=ResultStore(cache),
            retry=FAST_RETRY,
            faults=parse_fault_plan("garbage:gzip@*:attempt=1"),
        )
        job = SimulationJob("gzip", scale=SMALL)
        outcome = engine.run_one(job)
        assert outcome.attempts == 2
        quarantine = engine.telemetry.quarantines
        assert len(quarantine) == 1
        assert quarantine[0]["where"] == "serial"
        assert any("cycles" in v for v in quarantine[0]["violations"])
        # Only the clean retry reached the cache, and it passes the gate.
        cached = ResultStore(cache).get(job.key())
        assert cached is not None and check_result(cached) == []
        assert_results_identical(outcome.annotated, reference[job].annotated)

    def test_persistent_garbage_never_cached(self, tmp_path):
        cache = tmp_path / "poisoned"
        engine = ExecutionEngine(
            jobs=1,
            store=ResultStore(cache),
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            faults=parse_fault_plan("garbage:gzip@*:attempt=*"),
        )
        job = SimulationJob("gzip", scale=SMALL)
        with pytest.raises(InvalidResultError):
            engine.run_one(job)
        assert engine.telemetry.failed == 1
        assert len(engine.telemetry.quarantines) == 2  # one per attempt
        assert ResultStore(cache).get(job.key()) is None
        assert not ResultStore(cache).path_for(job.key()).exists()

    def test_gate_covers_subprocess_completions(self, reference, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "garbage:gzip@*:attempt=1")
        engine = ExecutionEngine(
            jobs=2, store=NullStore(), retry=FAST_RETRY, backend="subprocess"
        )
        outcomes = engine.run(small_jobs())
        gzip_job = SimulationJob("gzip", scale=SMALL)
        assert outcomes[gzip_job].source == "serial-fallback"
        assert outcomes[gzip_job].attempts == 2
        quarantine = engine.telemetry.quarantines
        assert quarantine and quarantine[0]["where"] == "subprocess"
        assert_results_identical(
            outcomes[gzip_job].annotated, reference[gzip_job].annotated
        )


class TestStoreQuarantine:
    def _poison(self, store, key):
        path = store.path_for(key)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] + b"\xde\xad\xbe\xef")

    def test_cache_info_reports_quarantined_entries(self, capsys):
        store = ResultStore()  # resolves the isolated REPRO_CACHE_DIR
        store.put("feed", [1, 2, 3])
        self._poison(store, "feed")
        fresh = ResultStore()
        assert fresh.get("feed") is None
        assert fresh.quarantined == 1
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "quarantined:     1 corrupt entry" in out
        assert str(fresh.quarantine_dir) in out

    def test_cache_clear_sweeps_quarantine(self, capsys):
        store = ResultStore()
        store.put("feed", [1, 2, 3])
        self._poison(store, "feed")
        ResultStore().get("feed")
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "quarantined:     0" in capsys.readouterr().out

    def test_quarantine_lands_in_the_run_manifest(self, tmp_path):
        cache = tmp_path / "manifested"
        job = SimulationJob("gzip", scale=SMALL)
        seed = ExecutionEngine(jobs=1, store=ResultStore(cache))
        seed.run_one(job)
        self._poison(seed.store, job.key())
        engine = ExecutionEngine(jobs=1, store=ResultStore(cache))
        engine.run_one(job)
        manifest = engine.telemetry.manifest()
        assert manifest["totals"]["cache_quarantined"] == 1
        assert manifest["store"]["quarantined"] == 1
        assert manifest["store"]["corruption_events"][0]["key"] == job.key()


class TestResumeAfterMidWriteCrash:
    def test_truncated_final_journal_line_tolerated_on_resume(self, capsys):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        cache = resolve_cache_dir()
        first = ExecutionEngine(
            jobs=1,
            store=ResultStore(cache),
            journal=RunJournal(cache, "torn"),
        )
        first.run([SimulationJob("gzip", scale=SMALL)])
        # The crash hit mid-append: the final journal line is truncated.
        journal_path = RunJournal(cache, "torn").path
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "dead')
        assert main([*CLI_BASE, "--resume", "torn"]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean
        manifest = json.loads(
            RunJournal(cache, "torn").manifest_path.read_text()
        )
        assert manifest["engine"]["resumed"] is True
        assert manifest["totals"]["cached"] >= 1


class TestGracefulDegradation:
    """The acceptance criterion: a tripped pool never changes the report."""

    def test_degraded_run_report_byte_identical(self, capsys, monkeypatch):
        assert main([*CLI_BASE, "--jobs", "1", "--no-cache"]) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1")
        monkeypatch.setenv("REPRO_FAULTS", "crash:gzip@*:attempt=1")
        manifest_path = resolve_cache_dir().parent / "degraded-manifest.json"
        assert (
            main(
                [
                    *CLI_BASE,
                    "--jobs",
                    "2",
                    "--backend",
                    "pool",
                    "--no-cache",
                    "--manifest",
                    str(manifest_path),
                ]
            )
            == 0
        )
        degraded = capsys.readouterr()
        assert degraded.out == clean
        manifest = json.loads(manifest_path.read_text())
        assert manifest["engine"]["backend_chain"] == [
            "pool",
            "subprocess",
            "serial",
        ]
        assert manifest["totals"]["fallbacks"] >= 1
        assert manifest["totals"]["breaker_trips"] >= 1
        transitions = manifest["breakers"]["transitions"]
        assert any(
            t["backend"] == "pool" and t["to"] == "open" for t in transitions
        )
        assert any(
            row["source"] == "subprocess-fallback" for row in manifest["jobs"]
        )
