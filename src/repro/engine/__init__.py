"""Execution engine: supervised, multi-backend, cache-aware simulation.

The substrate under every experiment.  Jobs (:mod:`~repro.engine.jobs`)
name deterministic simulation points; :class:`ExecutionEngine`
(:mod:`~repro.engine.parallel`) resolves them through a content-addressed
on-disk cache (:mod:`~repro.engine.store`) and a supervised backend
chain (:mod:`~repro.engine.backends`,
:mod:`~repro.engine.supervise`): the worker-process pool, then
heartbeat-watched subprocess workers, then in-process serial execution,
with per-job retry (:mod:`~repro.engine.retry`), per-backend circuit
breakers, an invariant-validation gate on every fresh result
(:mod:`~repro.engine.validate`), crash-safe run checkpoints
(:mod:`~repro.engine.checkpoint`), and run telemetry
(:mod:`~repro.engine.telemetry`).  A deterministic fault-injection
harness (:mod:`~repro.engine.faults`, off unless ``REPRO_FAULTS`` is
set) makes every degradation path testable on purpose.

Quickstart::

    from repro.engine import ExecutionEngine, SimulationJob

    engine = ExecutionEngine(jobs=4, backend="subprocess")
    outcomes = engine.run([SimulationJob("gzip", scale=0.25),
                           SimulationJob("ammp", scale=0.25)])
    print(engine.telemetry.summary())
"""

from .backends import (
    BACKEND_CHAINS,
    BACKEND_NAMES,
    ENV_BACKEND,
    ENV_HEARTBEAT,
    ENV_WATCHDOG,
    PoolBackend,
    SubprocessBackend,
    WorkerBackend,
    build_chain,
    default_heartbeat_interval,
    default_watchdog,
    resolve_backend_name,
)
from .checkpoint import (
    RUNS_SUBDIR,
    SWEEPS_SUBDIR,
    RunJournal,
    atomic_write_json,
    collect_sharing_stats,
    iter_run_manifests,
    validate_run_id,
)
from .faults import (
    CRASH_EXIT_CODE,
    ENV_FAULTS,
    FLAP_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    apply_store_fault,
    parse_fault_plan,
)
from .jobs import (
    SCHEMA_VERSION,
    SOURCE_CACHED,
    SOURCE_FALLBACK,
    SOURCE_PARALLEL,
    SOURCE_SERIAL,
    SOURCE_SUBPROCESS,
    SOURCE_SUBPROCESS_FALLBACK,
    JobOutcome,
    SimulationJob,
    execute_job,
)
from .parallel import (
    ENV_JOBS,
    EngineFleet,
    ExecutionEngine,
    resolve_worker_count,
)
from .retry import (
    ENV_RETRIES,
    ENV_RETRY_DELAY,
    RetryPolicy,
    default_retry_policy,
)
from .robustness import (
    ENV_JOB_TIMEOUT,
    PoolReport,
    attempt_parallel,
    default_job_timeout,
)
from .store import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    ENV_CACHE_MAX_MB,
    NullStore,
    ResultStore,
    resolve_cache_dir,
    resolve_cache_limit,
)
from .supervise import (
    ENV_BREAKER_COOLDOWN,
    ENV_BREAKER_THRESHOLD,
    CircuitBreaker,
    Supervisor,
    default_breaker_cooldown,
    default_breaker_threshold,
    merge_breaker_snapshots,
)
from .telemetry import MANIFEST_VERSION, JobRecord, RunTelemetry, Stopwatch
from .validate import InvalidResultError, check_result

__all__ = [
    "BACKEND_CHAINS",
    "BACKEND_NAMES",
    "CRASH_EXIT_CODE",
    "CircuitBreaker",
    "DEFAULT_CACHE_DIR",
    "ENV_BACKEND",
    "ENV_BREAKER_COOLDOWN",
    "ENV_BREAKER_THRESHOLD",
    "ENV_CACHE_DIR",
    "ENV_CACHE_MAX_MB",
    "ENV_FAULTS",
    "ENV_HEARTBEAT",
    "ENV_JOBS",
    "ENV_JOB_TIMEOUT",
    "ENV_RETRIES",
    "ENV_RETRY_DELAY",
    "ENV_WATCHDOG",
    "EngineFleet",
    "ExecutionEngine",
    "FLAP_EXIT_CODE",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InvalidResultError",
    "JobOutcome",
    "JobRecord",
    "MANIFEST_VERSION",
    "NullStore",
    "PoolBackend",
    "PoolReport",
    "ResultStore",
    "RUNS_SUBDIR",
    "RunJournal",
    "RunTelemetry",
    "RetryPolicy",
    "SCHEMA_VERSION",
    "SOURCE_CACHED",
    "SOURCE_FALLBACK",
    "SOURCE_PARALLEL",
    "SOURCE_SERIAL",
    "SOURCE_SUBPROCESS",
    "SOURCE_SUBPROCESS_FALLBACK",
    "SWEEPS_SUBDIR",
    "SimulationJob",
    "Stopwatch",
    "SubprocessBackend",
    "Supervisor",
    "WorkerBackend",
    "active_plan",
    "apply_store_fault",
    "atomic_write_json",
    "attempt_parallel",
    "build_chain",
    "check_result",
    "collect_sharing_stats",
    "default_breaker_cooldown",
    "default_breaker_threshold",
    "default_connect_timeout",
    "default_heartbeat_interval",
    "default_job_timeout",
    "default_retry_policy",
    "default_watchdog",
    "execute_job",
    "iter_run_manifests",
    "merge_breaker_snapshots",
    "parse_fault_plan",
    "resolve_backend_name",
    "resolve_cache_dir",
    "resolve_cache_limit",
    "resolve_worker_count",
    "validate_run_id",
]
