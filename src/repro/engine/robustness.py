"""Fault tolerance for the parallel path: a retrying pool supervisor.

The engine must never be *less* reliable than the serial code it
replaced, so parallel-infrastructure failures are contained at the
smallest possible scope and everything that remains degrades to
in-process serial execution instead of propagating:

* the worker pool cannot start (sandboxed environment, fork limits,
  missing ``/dev/shm``) — every job runs serially;
* a job exceeds the per-job timeout — **only that job** is requeued
  with deterministic backoff (:class:`~repro.engine.retry.RetryPolicy`);
  the stuck worker's slot is written off (workers cannot be force-killed
  portably) but the rest of the pool keeps running.  Should the stuck
  worker finish late anyway, its slot — and even its result — are
  reclaimed;
* a job *raises* inside a worker — it is requeued with backoff; once
  its attempts are exhausted it falls to the serial path, where a final
  in-process attempt surfaces a genuine error with a clean traceback;
* a worker process dies (``BrokenProcessPool``) — the pool itself is
  broken, so after harvesting every future that already finished the
  remaining jobs run serially;
* every worker slot ends up stuck on timed-out jobs — the pool can make
  no progress, so it is abandoned and the remainder runs serially.

Simulation is deterministic in the job parameters and backoff delays
are jitter-free, so a retried or serially-finished run is always
equivalent — robustness never changes results, only where and when they
are computed.  Every requeue is reported as a structured retry record
plus a human-readable note so the manifest shows exactly what happened.
"""

from __future__ import annotations

import heapq
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import EngineError
from .faults import active_plan
from .jobs import SimulationJob, execute_job
from .retry import RetryPolicy, default_retry_policy

#: Environment variable supplying a default per-job timeout in seconds.
ENV_JOB_TIMEOUT = "REPRO_JOB_TIMEOUT"

#: How often the supervisor re-checks stuck workers for late results.
_ZOMBIE_POLL_SECONDS = 0.1


def default_job_timeout() -> Optional[float]:
    """Per-job timeout from ``REPRO_JOB_TIMEOUT``, or ``None`` (no limit)."""
    raw = os.environ.get(ENV_JOB_TIMEOUT)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise EngineError(
            f"{ENV_JOB_TIMEOUT} must be a number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise EngineError(
            f"{ENV_JOB_TIMEOUT} must be positive, got {value!r}"
        )
    return value


def _worker(job: SimulationJob, attempt: int = 1):
    """Pool worker: simulate one job and time it (module-level: picklable).

    Fault injection reads ``REPRO_FAULTS`` from the environment the
    worker inherited, so injected crashes/timeouts/raises happen inside
    the worker exactly as real ones would.
    """
    plan = active_plan()
    if plan is not None:
        plan.inject_worker(job, attempt)
    start = time.perf_counter()
    annotated = execute_job(job)
    wall = time.perf_counter() - start
    if plan is not None:
        annotated = plan.mangle_result(job, attempt, annotated)
    return annotated, wall


@dataclass
class PoolReport:
    """Everything one :func:`attempt_parallel` call did and left behind.

    ``completed[job]`` is an ``(annotated_result, worker_wall_seconds)``
    pair; ``leftovers`` must be run by the next backend (or serially by
    the caller); ``attempts`` counts attempts per job (so later stages
    can continue the global numbering); ``retries`` are structured
    records for telemetry and ``notes`` are the matching human-readable
    degradation messages.

    For the supervisor, ``exhausted`` lists jobs whose retry budget is
    spent (they should skip straight to the terminal serial attempt),
    ``infra_failures`` describes *infrastructure* breakdowns — worker
    deaths, a broken pool, watchdog stalls, as opposed to per-job
    errors — which feed the backend's circuit breaker, and
    ``heartbeats`` carries watchdog/heartbeat-gap records for the run
    manifest.
    """

    completed: Dict[SimulationJob, Tuple[object, float]] = field(
        default_factory=dict
    )
    leftovers: List[SimulationJob] = field(default_factory=list)
    attempts: Dict[SimulationJob, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    retries: List[Dict] = field(default_factory=list)
    exhausted: List[SimulationJob] = field(default_factory=list)
    infra_failures: List[str] = field(default_factory=list)
    heartbeats: List[Dict] = field(default_factory=list)


def attempt_parallel(
    jobs: Sequence[SimulationJob],
    max_workers: int,
    timeout: Optional[float] = None,
    worker: Callable = _worker,
    policy: Optional[RetryPolicy] = None,
    watchdog: Optional[float] = None,
) -> PoolReport:
    """Run jobs on a process pool, retrying per job and surviving the pool.

    A failed or timed-out job is requeued by itself (deterministic
    exponential backoff, ``policy.max_attempts`` total tries); the pool
    is only given up when it breaks (a worker died), when every slot is
    stuck on a timed-out job, when the ``watchdog`` (seconds without any
    job finishing while work is in flight) declares it stalled, or when
    nothing retryable remains.  On the way out every future that already
    finished is harvested so no completed work is re-simulated serially.

    Pool workers cannot emit heartbeats (``ProcessPoolExecutor`` owns
    their stdio), so the watchdog here is progress-based; per-worker
    heartbeats need the subprocess backend.
    """
    policy = policy if policy is not None else default_retry_policy()
    report = PoolReport()
    pool_size = min(max_workers, len(jobs))
    try:
        executor = ProcessPoolExecutor(max_workers=pool_size)
    except (OSError, ValueError, PermissionError) as error:
        report.notes.append(
            f"worker pool failed to start ({error}); running serially"
        )
        report.infra_failures.append(f"pool failed to start: {error}")
        report.leftovers = list(jobs)
        return report

    ready = deque((job, 1) for job in jobs)
    delayed: List[Tuple[float, int, SimulationJob, int]] = []  # backoff heap
    sequence = 0
    in_flight: Dict[object, Tuple[SimulationJob, int, Optional[float]]] = {}
    zombies: Dict[object, SimulationJob] = {}  # timed-out but still running
    broken = False

    def record_retry(job: SimulationJob, attempt: int, reason: str, delay: float):
        report.retries.append(
            {
                "job": job.describe(),
                "key": job.key(),
                "failed_attempt": attempt,
                "next_attempt": attempt + 1,
                "reason": reason,
                "backoff_seconds": delay,
                "where": "pool",
            }
        )

    def requeue(job: SimulationJob, attempt: int, reason: str, what: str) -> None:
        nonlocal sequence
        if policy.retries_left(attempt):
            delay = policy.delay_before(attempt + 1)
            sequence += 1
            heapq.heappush(
                delayed, (time.monotonic() + delay, sequence, job, attempt + 1)
            )
            record_retry(job, attempt, reason, delay)
            report.notes.append(
                f"job {job.describe()} {what}; retrying "
                f"(attempt {attempt + 1}/{policy.max_attempts}) in {delay:g}s"
            )
        else:
            report.exhausted.append(job)
            report.notes.append(
                f"job {job.describe()} {what}; retries exhausted after "
                f"{attempt} attempt(s), finishing serially"
            )

    last_progress = time.monotonic()
    try:
        while ready or delayed or in_flight:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, _, job, attempt = heapq.heappop(delayed)
                ready.append((job, attempt))
            # A stuck worker that finished after its timeout was declared
            # frees its slot — and its result is still perfectly good.
            for future in [f for f in zombies if f.done()]:
                job = zombies.pop(future)
                try:
                    annotated, wall = future.result()
                except Exception:
                    continue  # its retry is already scheduled
                if job not in report.completed:
                    report.completed[job] = (annotated, wall)
                    last_progress = time.monotonic()
                    report.notes.append(
                        f"job {job.describe()} finished after its timeout; "
                        "late result harvested"
                    )
            free = pool_size - len(in_flight) - len(zombies)
            while ready and free > 0:
                job, attempt = ready.popleft()
                if job in report.completed:
                    continue  # a late zombie result beat the retry to it
                try:
                    future = executor.submit(worker, job, attempt)
                except BrokenProcessPool as error:
                    report.notes.append(
                        f"worker pool broke on submit ({error}); "
                        "finishing serially"
                    )
                    report.infra_failures.append(
                        f"pool broke on submit: {error}"
                    )
                    broken = True
                    break
                report.attempts[job] = max(attempt, report.attempts.get(job, 0))
                deadline = now + timeout if timeout is not None else None
                in_flight[future] = (job, attempt, deadline)
                free -= 1
            if broken:
                break
            if not in_flight:
                if delayed:  # only backoff waits remain: sleep them out
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                    continue
                if ready and free <= 0:
                    report.notes.append(
                        f"all {pool_size} worker slot(s) are stuck on "
                        "timed-out jobs; abandoning the pool and finishing "
                        "serially"
                    )
                    report.infra_failures.append(
                        f"all {pool_size} worker slot(s) stuck on "
                        "timed-out jobs"
                    )
                    break
                if not ready:
                    break
                continue
            horizon = [
                deadline
                for (_, _, deadline) in in_flight.values()
                if deadline is not None
            ]
            if delayed:
                horizon.append(delayed[0][0])
            if zombies:
                horizon.append(time.monotonic() + _ZOMBIE_POLL_SECONDS)
            if watchdog is not None:
                horizon.append(last_progress + watchdog)
            wait_timeout = (
                max(0.0, min(horizon) - time.monotonic()) if horizon else None
            )
            done, _ = wait(
                list(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )
            if done:
                last_progress = time.monotonic()
            for future in done:
                job, attempt, _ = in_flight.pop(future)
                try:
                    annotated, wall = future.result()
                except BrokenProcessPool:
                    report.notes.append(
                        "a worker process died; harvesting finished results "
                        "and finishing serially"
                    )
                    report.infra_failures.append(
                        f"worker process died running {job.describe()}"
                    )
                    broken = True
                    continue
                except Exception as error:
                    requeue(
                        job,
                        attempt,
                        f"{type(error).__name__}: {error}",
                        f"raised in a worker ({type(error).__name__})",
                    )
                    continue
                if job not in report.completed:
                    report.completed[job] = (annotated, wall)
            if broken:
                break
            now = time.monotonic()
            if (
                watchdog is not None
                and in_flight
                and now - last_progress >= watchdog
            ):
                gap = now - last_progress
                stuck = sorted(
                    job.describe() for (job, _, _) in in_flight.values()
                )
                report.notes.append(
                    f"pool made no progress for {gap:.1f}s (watchdog "
                    f"{watchdog:g}s) with {len(stuck)} job(s) in flight; "
                    "abandoning the pool and finishing elsewhere"
                )
                report.infra_failures.append(
                    f"watchdog stall: no progress for {gap:.1f}s"
                )
                report.heartbeats.append(
                    {
                        "backend": "pool",
                        "kind": "stall",
                        "gap_seconds": round(gap, 3),
                        "jobs": stuck,
                    }
                )
                broken = True
                break
            for future in [
                f
                for f, (_, _, deadline) in in_flight.items()
                if deadline is not None and deadline <= now
            ]:
                job, attempt, _ = in_flight.pop(future)
                if not future.cancel():
                    # Already running: the slot is burned until the worker
                    # returns on its own (it cannot be killed portably).
                    zombies[future] = job
                requeue(
                    job,
                    attempt,
                    f"timeout after {timeout:g}s",
                    f"exceeded the {timeout:g}s timeout",
                )
    finally:
        # Harvest completed-but-unread futures before walking away so no
        # finished work is thrown out and re-simulated serially.
        for future, (job, _, _) in list(in_flight.items()):
            if future.done():
                try:
                    annotated, wall = future.result()
                except Exception:
                    continue
                if job not in report.completed:
                    report.completed[job] = (annotated, wall)
        executor.shutdown(wait=False, cancel_futures=True)
    report.leftovers = [job for job in jobs if job not in report.completed]
    return report
