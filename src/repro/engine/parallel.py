"""The execution engine: cache-aware, parallel, fault-tolerant job runs.

:class:`ExecutionEngine` is the single entry point the experiment layer
uses to obtain simulation results.  For every requested job it

1. consults the on-disk :class:`~repro.engine.store.ResultStore`
   (content-addressed by job parameters — a warm cache run performs zero
   simulations);
2. hands the misses to a :class:`~repro.engine.supervise.Supervisor`
   that dispatches them down a backend chain
   (:mod:`~repro.engine.backends`, selected by ``--backend`` /
   ``REPRO_BACKEND``): the process pool, then heartbeat-supervised
   subprocess workers, then — always — the in-process serial executor,
   with per-backend circuit breakers and per-job retry backoff
   (:mod:`~repro.engine.retry`) deciding how work degrades;
3. passes every fresh result through the invariant-validation gate
   (:mod:`~repro.engine.validate`) — a result that violates the model's
   own accounting identities is quarantined and recomputed, never
   cached;
4. writes validated results back to the store, journals them in the run
   checkpoint when one is attached (:mod:`~repro.engine.checkpoint`),
   and records everything — outcomes, retries, injected faults,
   heartbeat/watchdog events, breaker transitions, quarantines — in a
   :class:`~repro.engine.telemetry.RunTelemetry`.

Because :func:`~repro.engine.jobs.execute_job` is deterministic, serial,
parallel, subprocess, retried, resumed, and fault-injected runs all
produce bit-identical results; the engine only changes *when* and
*where* simulations run, never what they compute.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.kernel import resolve_kernel_mode
from ..errors import EngineError
from .backends import build_chain, default_watchdog, resolve_backend_name
from .checkpoint import RunJournal
from .faults import FaultPlan, active_plan, apply_store_fault
from .jobs import (
    SOURCE_CACHED,
    SOURCE_FALLBACK,
    SOURCE_SERIAL,
    JobOutcome,
    SimulationJob,
    execute_job,
)
from .retry import RetryPolicy, default_retry_policy
from .robustness import default_job_timeout
from .store import ResultStore
from .supervise import Supervisor, merge_breaker_snapshots
from .telemetry import RunTelemetry, Stopwatch
from .validate import InvalidResultError, check_result

#: Environment variable supplying the default worker count.
ENV_JOBS = "REPRO_JOBS"


def resolve_worker_count(value: Optional[int] = None) -> int:
    """Worker count from the argument, ``REPRO_JOBS``, or the CPU count.

    ``REPRO_JOBS`` is validated like the other engine environment knobs:
    a non-integer or non-positive value raises a clear
    :class:`~repro.errors.EngineError` naming the variable.
    """
    if value is None:
        raw = os.environ.get(ENV_JOBS)
        if raw:
            try:
                value = int(raw)
            except ValueError:
                raise EngineError(
                    f"{ENV_JOBS} must be an integer worker count, got {raw!r}"
                ) from None
            if value < 1:
                raise EngineError(
                    f"{ENV_JOBS} must be positive, got {value!r}"
                )
    if value is None:
        value = os.cpu_count() or 1
    value = int(value)
    if value < 1:
        raise EngineError(f"worker count must be at least 1, got {value!r}")
    return value


class ExecutionEngine:
    """Runs simulation jobs through the cache, the pool, and telemetry."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[object] = None,
        timeout: Optional[float] = None,
        telemetry: Optional[RunTelemetry] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        journal: Optional[RunJournal] = None,
        resume: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        self.max_workers = resolve_worker_count(jobs)
        self.store = store if store is not None else ResultStore()
        self.timeout = timeout if timeout is not None else default_job_timeout()
        self.telemetry = telemetry if telemetry is not None else RunTelemetry()
        self.retry = retry if retry is not None else default_retry_policy()
        self.faults = faults if faults is not None else active_plan()
        self.backend = resolve_backend_name(backend)
        self.supervisor = Supervisor(
            build_chain(
                self.backend,
                self.max_workers,
                self.timeout,
                watchdog=default_watchdog(),
            ),
            self.retry,
        )
        self.journal = journal
        self._journaled: set = set()
        if journal is not None and resume:
            self._journaled = journal.load()
            self.telemetry.note(
                f"resuming run {journal.run_id!r}: "
                f"{len(self._journaled)} job(s) already journaled"
            )
        self.kernel_mode = resolve_kernel_mode()
        self.telemetry.context.update(
            {
                "max_workers": self.max_workers,
                "backend": self.backend,
                "backend_chain": self.supervisor.describe_chain() + ["serial"],
                "cache_dir": self.store.describe(),
                "timeout_seconds": self.timeout,
                "retry": self.retry.describe(),
                "faults": None if self.faults is None else self.faults.describe(),
                "run_id": None if journal is None else journal.run_id,
                "resumed": bool(journal is not None and resume),
                "kernel_mode": self.kernel_mode,
            }
        )
        from ..cache.kernel import resolve_residual_impl

        self.telemetry.record_substrate(
            {
                "kernel_mode": self.kernel_mode,
                "residual_impl": (
                    "scalar"
                    if self.kernel_mode == "scalar"
                    else resolve_residual_impl(
                        "compiled"
                        if self.kernel_mode == "compiled"
                        else "python"
                    )
                ),
            }
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self, jobs: Sequence[SimulationJob]
    ) -> Dict[SimulationJob, JobOutcome]:
        """Obtain every job's result; cache first, then parallel, then serial.

        Results are keyed by job and independent of execution order, so
        callers see identical outputs whatever path produced them —
        including runs that retried, resumed, or survived injected
        faults.
        """
        ordered = self._deduplicate(jobs)
        run_start = time.perf_counter()
        outcomes: Dict[SimulationJob, JobOutcome] = {}

        pending: List[SimulationJob] = []
        for job in ordered:
            with Stopwatch() as sw:
                hit = self.store.get(job.key())
            if hit is not None:
                outcomes[job] = JobOutcome(job, hit, SOURCE_CACHED, sw.seconds)
                self.telemetry.emit(
                    "job-cached", job=job.describe(), key=job.key()
                )
                self._journal_record(job)
            else:
                if job.key() in self._journaled:
                    # The interrupted run finished this job but its cache
                    # entry is gone or corrupt: recompute transparently.
                    self.telemetry.note(
                        f"resume: journaled job {job.describe()} is missing "
                        "from the cache; recomputing"
                    )
                pending.append(job)

        if pending:
            self._run_pending(pending, outcomes)

        self.telemetry.add_wall(time.perf_counter() - run_start)
        for job in ordered:
            self.telemetry.record_outcome(outcomes[job])
        self.telemetry.record_store(self.store)
        return outcomes

    def run_one(self, job: SimulationJob) -> JobOutcome:
        """Convenience wrapper: run a single job."""
        return self.run([job])[job]

    def run_streaming(
        self,
        jobs: Sequence[SimulationJob],
        callback,
    ) -> Dict[SimulationJob, JobOutcome]:
        """:meth:`run` with a progress callback subscribed for its duration.

        ``callback`` receives every telemetry event of the run (cache
        hits, dispatches, completions, retries, quarantines, degradation
        notes) as a dict with an ``"event"`` key.  This is the
        async-friendly submit seam: callers owning an event loop hand
        ``run_streaming`` to an executor thread and marshal the events
        back with ``loop.call_soon_threadsafe`` — the service daemon's
        SSE ticket streams are exactly this.
        """
        self.telemetry.subscribe(callback)
        try:
            return self.run(jobs)
        finally:
            self.telemetry.unsubscribe(callback)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _deduplicate(jobs: Sequence[SimulationJob]) -> List[SimulationJob]:
        seen = set()
        ordered = []
        for job in jobs:
            if job not in seen:
                seen.add(job)
                ordered.append(job)
        return ordered

    def _run_pending(
        self,
        pending: List[SimulationJob],
        outcomes: Dict[SimulationJob, JobOutcome],
    ) -> None:
        for job in pending:
            self.telemetry.emit(
                "job-started", job=job.describe(), key=job.key()
            )
        dispatch = self.supervisor.dispatch(pending)
        for note in dispatch.notes:
            self.telemetry.note(note)
        for entry in dispatch.retries:
            self.telemetry.record_retry(entry)
        for entry in dispatch.heartbeats:
            self.telemetry.record_heartbeat(entry)

        # Serial work: (job, attempts already consumed, outcome source).
        base_source = SOURCE_FALLBACK if dispatch.engaged else SOURCE_SERIAL
        serial_work: List[Tuple[SimulationJob, int, str]] = [
            (job, start, base_source) for job, start in dispatch.leftovers
        ]
        for job, completion in dispatch.completed.items():
            violations = check_result(completion.annotated)
            if violations:
                # Never cache an invalid result: quarantine it and give
                # the job to the serial path, where the gate re-checks.
                self.telemetry.record_quarantine(
                    job, violations, where=completion.source
                )
                self.telemetry.note(
                    f"job {job.describe()} result failed the validation "
                    f"gate ({violations[0]}); quarantined, re-running "
                    "serially"
                )
                serial_work.append((job, completion.attempts, SOURCE_FALLBACK))
                continue
            outcomes[job] = JobOutcome(
                job,
                completion.annotated,
                completion.source,
                completion.wall_seconds,
                attempts=completion.attempts,
            )
            self.telemetry.emit(
                "job-validated",
                job=job.describe(),
                key=job.key(),
                source=completion.source,
                attempts=completion.attempts,
            )
            self._commit(job, completion.annotated)

        try:
            for job, start, source in serial_work:
                annotated, seconds, attempts = self._execute_serial(
                    job, start_attempt=start
                )
                outcomes[job] = JobOutcome(
                    job, annotated, source, seconds, attempts=attempts
                )
                self.telemetry.emit(
                    "job-validated",
                    job=job.describe(),
                    key=job.key(),
                    source=source,
                    attempts=attempts,
                )
                self._commit(job, annotated)
        finally:
            self.telemetry.record_breakers(self.supervisor.snapshot())
            if dispatch.descents or dispatch.rungs_used:
                self.telemetry.record_fault_domains(
                    {
                        "ladder": dispatch.descents,
                        "rungs_used": dispatch.rungs_used,
                        "final_rung": (
                            dispatch.rungs_used[-1]
                            if dispatch.rungs_used
                            else None
                        ),
                    }
                )

    def _execute_serial(
        self, job: SimulationJob, start_attempt: int = 0
    ) -> Tuple[object, float, int]:
        """One job in-process, retried per the policy; raises when exhausted.

        ``start_attempt`` continues the global attempt numbering of
        whatever backends already tried this job, so deterministic fault
        schedules and the retry budget span the degradation path; the
        returned attempt count is the global total.
        """
        attempt = start_attempt
        while True:
            attempt += 1
            try:
                if self.faults is not None:
                    self.faults.inject_serial(job, attempt)
                with Stopwatch() as sw:
                    annotated = execute_job(job)
                if self.faults is not None:
                    annotated = self.faults.mangle_result(
                        job, attempt, annotated
                    )
                violations = check_result(annotated)
                if violations:
                    self.telemetry.record_quarantine(
                        job, violations, where="serial"
                    )
                    raise InvalidResultError(
                        f"result for {job.describe()} failed the "
                        f"validation gate: {violations[0]}"
                    )
                return annotated, sw.seconds, attempt
            except Exception as error:
                if self.retry.retries_left(attempt):
                    delay = self.retry.delay_before(attempt + 1)
                    self.telemetry.record_retry(
                        {
                            "job": job.describe(),
                            "key": job.key(),
                            "failed_attempt": attempt,
                            "next_attempt": attempt + 1,
                            "reason": f"{type(error).__name__}: {error}",
                            "backoff_seconds": delay,
                            "where": "serial",
                        }
                    )
                    self.telemetry.note(
                        f"job {job.describe()} failed serially "
                        f"({type(error).__name__}); retrying "
                        f"(attempt {attempt + 1}/{self.retry.max_attempts}) "
                        f"in {delay:g}s"
                    )
                    time.sleep(delay)
                    continue
                self.telemetry.record_failure(job, error)
                raise

    def _commit(self, job: SimulationJob, annotated: object) -> None:
        """Persist one fresh result: cache write, fault hooks, journal."""
        wrote = self.store.put(job.key(), annotated)
        if wrote and self.faults is not None:
            for spec in self.faults.take_store_faults(job):
                description = apply_store_fault(self.store, job.key(), spec)
                if description:
                    self.telemetry.record_fault(description)
        self._journal_record(job)

    def _journal_record(self, job: SimulationJob) -> None:
        if self.journal is not None:
            self.journal.record(job)


class EngineFleet:
    """N single-slot engines sharing one store and one telemetry.

    :class:`ExecutionEngine` is built for one caller at a time — its
    :class:`~repro.engine.supervise.Supervisor` mutates breaker state
    per dispatch and is not thread-safe.  A daemon that wants to run
    several WorkItems *concurrently* therefore cannot funnel them
    through one engine; it checks a slot engine out of this fleet per
    item instead.  Every slot shares the fleet's result store (so cache
    hits, coalescing and the coordination layer's guarded publishes see
    one source of truth) and the fleet's :class:`RunTelemetry` (which is
    lock-protected for exactly this arrangement); each slot owns its
    own supervisor, journal-free and one worker wide.

    Slots are created lazily and recycled, so a mostly-idle daemon pays
    for one engine, a saturated one for ``slots``.
    """

    def __init__(
        self,
        slots: int,
        store: Optional[object] = None,
        telemetry: Optional[RunTelemetry] = None,
        backend: Optional[str] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if slots < 1:
            raise EngineError(f"fleet slots must be at least 1, got {slots!r}")
        self.slots = int(slots)
        self.store = store if store is not None else ResultStore()
        self.telemetry = telemetry if telemetry is not None else RunTelemetry()
        self.backend = backend
        self.timeout = timeout
        self.retry = retry
        self.faults = faults
        self._idle: List[ExecutionEngine] = []
        self._all: List[ExecutionEngine] = []
        self._lock = threading.Lock()

    def _build_slot(self) -> ExecutionEngine:
        return ExecutionEngine(
            jobs=1,
            store=self.store,
            telemetry=self.telemetry,
            backend=self.backend,
            timeout=self.timeout,
            retry=self.retry,
            faults=self.faults,
        )

    def acquire(self) -> ExecutionEngine:
        """Check out an idle slot engine, creating one when none is free.

        Callers are expected to bound their concurrency to
        :attr:`slots` (the service daemon does, with a semaphore); the
        fleet itself never blocks — an over-subscribed caller simply
        grows extra slots rather than deadlocking.
        """
        with self._lock:
            if self._idle:
                return self._idle.pop()
            engine = self._build_slot()
            self._all.append(engine)
            return engine

    def release(self, engine: ExecutionEngine) -> None:
        """Return a slot engine to the idle pool."""
        with self._lock:
            self._idle.append(engine)

    def run_one(self, job: SimulationJob) -> JobOutcome:
        """Run one job on a checked-out slot (acquire/run/release)."""
        engine = self.acquire()
        try:
            return engine.run_one(job)
        finally:
            self.release(engine)

    @property
    def engines(self) -> List[ExecutionEngine]:
        with self._lock:
            return list(self._all)

    def breaker_snapshot(self) -> Dict:
        """Every slot's breaker state merged into one manifest section."""
        return merge_breaker_snapshots(
            [engine.supervisor.snapshot() for engine in self.engines]
        )

    def finalize(self) -> None:
        """Record merged breakers + store counters into the telemetry."""
        self.telemetry.record_breakers(self.breaker_snapshot())
        self.telemetry.record_store(self.store)
