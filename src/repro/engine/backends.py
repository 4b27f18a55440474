"""Pluggable worker backends behind the ``SimulationJob`` abstraction.

A :class:`WorkerBackend` turns a batch of pending jobs into a
:class:`~repro.engine.robustness.PoolReport` — completions, leftovers,
retries, infrastructure failures — without caring who calls it.  The
:class:`~repro.engine.supervise.Supervisor` chains backends so a run
degrades gracefully instead of failing:

``pool``
    the existing ``ProcessPoolExecutor`` path
    (:func:`~repro.engine.robustness.attempt_parallel`).  Fast and
    battle-tested, but its workers cannot be killed portably and do not
    beat — a hung worker burns its slot until ``REPRO_JOB_TIMEOUT`` or
    the progress watchdog gives the pool up.
``subprocess``
    pipe-connected ``python -m repro.engine.worker`` processes
    (:mod:`~repro.engine.worker`).  Each worker emits heartbeats every
    ``REPRO_HEARTBEAT`` seconds, so the backend detects a hung or dead
    worker *independently of any job timeout*, kills exactly that
    process, requeues its job through the retry backoff, and respawns a
    replacement.
``serial``
    no chain at all — the engine's in-process executor runs every job.
    Always available, and always the terminal fallback of the others.

Every backend runs the same deterministic
:func:`~repro.engine.jobs.execute_job`, so results are bit-identical
whichever backend — or degradation path — produced them.
"""

from __future__ import annotations

import heapq
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import EngineError
from . import robustness
from .jobs import (
    SOURCE_FALLBACK,
    SOURCE_PARALLEL,
    SOURCE_SUBPROCESS,
    SOURCE_SUBPROCESS_FALLBACK,
    SimulationJob,
)
from .retry import RetryPolicy, _env_float
from .robustness import PoolReport
from .worker import DEFAULT_HEARTBEAT_SECONDS, read_frame, write_frame

#: Environment variable selecting the primary backend.
ENV_BACKEND = "REPRO_BACKEND"

#: Environment variable: subprocess-worker heartbeat interval (seconds;
#: 0 disables heartbeats and with them hang detection).
ENV_HEARTBEAT = "REPRO_HEARTBEAT"

#: Environment variable: watchdog patience in seconds — how long a
#: backend tolerates silence (no heartbeat / no progress) before it
#: declares a worker hung.  0 or unset leaves each backend's default.
ENV_WATCHDOG = "REPRO_WATCHDOG"

#: The degradation chain each primary backend choice builds, in
#: dispatch order.  The engine's in-process serial executor always runs
#: after the chain, so the full ladder is pool -> subprocess -> serial.
BACKEND_CHAINS: Dict[str, Tuple[str, ...]] = {
    "pool": ("pool", "subprocess"),
    "subprocess": ("subprocess",),
    "serial": (),
}

#: Valid ``--backend`` / ``REPRO_BACKEND`` values, in degradation order.
BACKEND_NAMES = tuple(BACKEND_CHAINS)

#: Grace period for a worker to exit after the "exit" frame.
_EXIT_GRACE_SECONDS = 0.5


def resolve_backend_name(value: Optional[str] = None) -> str:
    """Backend name from the argument, ``REPRO_BACKEND``, or ``pool``."""
    if value is None:
        value = os.environ.get(ENV_BACKEND) or None
    if value is None:
        return "pool"
    name = str(value).strip().lower()
    if name not in BACKEND_NAMES:
        raise EngineError(
            f"{ENV_BACKEND} / --backend must be one of "
            f"{', '.join(BACKEND_NAMES)}, got {value!r}"
        )
    return name


def default_heartbeat_interval() -> float:
    """Heartbeat interval from ``REPRO_HEARTBEAT`` (default 0.5 s)."""
    value = _env_float(ENV_HEARTBEAT, minimum=0.0)
    return DEFAULT_HEARTBEAT_SECONDS if value is None else value


def default_watchdog() -> Optional[float]:
    """Watchdog patience from ``REPRO_WATCHDOG``; ``None`` when unset."""
    value = _env_float(ENV_WATCHDOG, minimum=0.0)
    return None if not value else value


class WorkerBackend:
    """One way to execute pending jobs; chained by the supervisor.

    ``source`` labels completions when the backend ran as the primary,
    ``fallback_source`` when it picked up another backend's leftovers.
    ``run`` receives ``start_attempts`` — attempts each job already
    consumed upstream — and must continue that global numbering in the
    ``PoolReport`` it returns, so deterministic fault schedules and the
    retry budget span the whole degradation path.
    """

    name: str = "backend"
    source: str = SOURCE_PARALLEL
    fallback_source: str = SOURCE_FALLBACK

    def worth_starting(self, pending: int) -> bool:
        """Whether spinning this backend up beats running serially."""
        return True

    def run(
        self,
        jobs: Sequence[SimulationJob],
        start_attempts: Dict[SimulationJob, int],
        policy: RetryPolicy,
    ) -> PoolReport:
        raise NotImplementedError


class PoolBackend(WorkerBackend):
    """The ``ProcessPoolExecutor`` path, wrapped as a backend."""

    name = "pool"
    source = SOURCE_PARALLEL
    fallback_source = SOURCE_PARALLEL  # the pool is only ever primary

    def __init__(
        self,
        max_workers: int,
        timeout: Optional[float] = None,
        watchdog: Optional[float] = None,
    ) -> None:
        self.max_workers = max_workers
        self.timeout = timeout
        self.watchdog = watchdog

    def worth_starting(self, pending: int) -> bool:
        return self.max_workers > 1 and pending > 1

    def run(self, jobs, start_attempts, policy) -> PoolReport:
        # Attribute lookup keeps the tests' monkeypatch seam on
        # robustness.attempt_parallel working.
        return robustness.attempt_parallel(
            jobs,
            self.max_workers,
            self.timeout,
            policy=policy,
            watchdog=self.watchdog,
        )


class _Worker:
    """One pipe-connected subprocess worker and its reader thread."""

    def __init__(
        self, heartbeat: float, inbox: "queue.Queue"
    ) -> None:
        # -c instead of -m: runpy would re-execute repro.engine.worker
        # on top of the already-imported module and warn about it.
        command = [
            sys.executable,
            "-u",
            "-c",
            "import sys; from repro.engine.worker import main; "
            "sys.exit(main(sys.argv[1:]))",
            "--heartbeat",
            str(heartbeat),
        ]
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        self.proc = subprocess.Popen(  # noqa: S603 — our own interpreter
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        #: ``(job, attempt, dispatched_at)`` while busy, else ``None``.
        self.current: Optional[Tuple[SimulationJob, int, float]] = None
        self.last_seen = time.monotonic()
        self.dead = False
        reader = threading.Thread(
            target=self._read_loop,
            args=(inbox,),
            name=f"worker-reader-{self.proc.pid}",
            daemon=True,
        )
        reader.start()

    def _read_loop(self, inbox: "queue.Queue") -> None:
        while True:
            frame = read_frame(self.proc.stdout)
            if frame is None:
                inbox.put((self, "eof", None))
                return
            self.last_seen = time.monotonic()
            inbox.put((self, frame[0], frame[1]))

    def send_job(self, job: SimulationJob, attempt: int) -> bool:
        self.current = (job, attempt, time.monotonic())
        self.last_seen = time.monotonic()
        try:
            write_frame(self.proc.stdin, "job", (job, attempt))
        except (OSError, ValueError):
            self.current = None
            return False
        return True

    def kill(self) -> None:
        """Hard-kill the worker (unlike pool workers, we can)."""
        self.dead = True
        self.current = None
        try:
            self.proc.kill()
        except OSError:
            pass

    def close(self) -> None:
        self.dead = True
        if self.proc.poll() is None:
            try:
                write_frame(self.proc.stdin, "exit")
                self.proc.stdin.close()
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=_EXIT_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                self.kill()
        try:
            self.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:  # pragma: no cover — kernel lag
            pass


class SubprocessBackend(WorkerBackend):
    """Heartbeat-supervised subprocess workers over a frame protocol.

    The supervision loop mirrors :func:`attempt_parallel` — a ready
    queue, a deterministic backoff heap, per-job requeue — but because
    each worker is an ordinary child process with its own pipes, the
    backend can *watch* and *kill* individual workers: a worker whose
    heartbeat goes silent for ``watchdog`` seconds (default
    ``max(8 × heartbeat, 4 s)``) is declared hung, killed, its job
    requeued, and a replacement spawned.  Worker deaths are contained
    and respawned instead of abandoning the whole backend, but each one
    is reported as an infrastructure failure so the circuit breaker
    still opens on a genuinely sick host.
    """

    name = "subprocess"
    source = SOURCE_SUBPROCESS
    fallback_source = SOURCE_SUBPROCESS_FALLBACK

    def __init__(
        self,
        max_workers: int,
        timeout: Optional[float] = None,
        heartbeat: Optional[float] = None,
        watchdog: Optional[float] = None,
    ) -> None:
        self.max_workers = max(1, max_workers)
        self.timeout = timeout
        self.heartbeat = (
            heartbeat if heartbeat is not None else default_heartbeat_interval()
        )
        if watchdog is not None:
            self.hang_after: Optional[float] = watchdog
        elif self.heartbeat > 0:
            self.hang_after = max(8.0 * self.heartbeat, 4.0)
        else:
            self.hang_after = None  # no beats, no hang detection

    def run(self, jobs, start_attempts, policy) -> PoolReport:
        report = PoolReport()
        by_key = {job.key(): job for job in jobs}
        inbox: "queue.Queue" = queue.Queue()
        ready: deque = deque(
            (job, start_attempts.get(job, 0) + 1) for job in jobs
        )
        delayed: List[Tuple[float, int, SimulationJob, int]] = []
        sequence = 0
        workers: List[_Worker] = []
        # Bounds respawns: every legitimate dispatch plus one initial
        # worker per slot; a crash-looping host cannot fork forever.
        spawn_budget = policy.max_attempts * len(jobs) + self.max_workers

        def spawn() -> Optional[_Worker]:
            nonlocal spawn_budget
            if spawn_budget <= 0:
                report.notes.append(
                    "subprocess worker respawn budget exhausted; "
                    "finishing elsewhere"
                )
                report.infra_failures.append("respawn budget exhausted")
                return None
            spawn_budget -= 1
            try:
                worker = _Worker(self.heartbeat, inbox)
            except (OSError, ValueError) as error:
                report.notes.append(
                    f"subprocess worker failed to start ({error}); "
                    "finishing elsewhere"
                )
                report.infra_failures.append(
                    f"worker failed to start: {error}"
                )
                return None
            workers.append(worker)
            return worker

        def record_retry(job, attempt, reason, delay) -> None:
            report.retries.append(
                {
                    "job": job.describe(),
                    "key": job.key(),
                    "failed_attempt": attempt,
                    "next_attempt": attempt + 1,
                    "reason": reason,
                    "backoff_seconds": delay,
                    "where": "subprocess",
                }
            )

        def requeue(job, attempt, reason, what) -> None:
            nonlocal sequence
            if policy.retries_left(attempt):
                delay = policy.delay_before(attempt + 1)
                sequence += 1
                heapq.heappush(
                    delayed,
                    (time.monotonic() + delay, sequence, job, attempt + 1),
                )
                record_retry(job, attempt, reason, delay)
                report.notes.append(
                    f"job {job.describe()} {what}; retrying "
                    f"(attempt {attempt + 1}/{policy.max_attempts}) "
                    f"in {delay:g}s"
                )
            else:
                report.exhausted.append(job)
                report.notes.append(
                    f"job {job.describe()} {what}; retries exhausted after "
                    f"{attempt} attempt(s), finishing serially"
                )

        def alive() -> List[_Worker]:
            return [w for w in workers if not w.dead]

        for _ in range(min(self.max_workers, len(jobs))):
            if spawn() is None:
                break
        if not alive():
            report.leftovers = list(jobs)
            return report

        try:
            while ready or delayed or any(w.current for w in alive()):
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, job, attempt = heapq.heappop(delayed)
                    ready.append((job, attempt))
                for worker in alive():
                    if not ready:
                        break
                    if worker.current is not None:
                        continue
                    job, attempt = ready.popleft()
                    if job in report.completed:
                        continue  # a killed worker's result raced in late
                    if worker.send_job(job, attempt):
                        report.attempts[job] = max(
                            attempt, report.attempts.get(job, 0)
                        )
                    else:
                        # The pipe is gone: the worker is dead in all but
                        # name.  Put the job back (its attempt never ran).
                        worker.dead = True
                        report.infra_failures.append(
                            f"worker {worker.proc.pid} pipe closed before "
                            f"{job.describe()} could be dispatched"
                        )
                        ready.appendleft((job, attempt))
                busy = [w for w in alive() if w.current is not None]
                if not busy:
                    if ready:
                        # Jobs want slots but every worker died: respawn
                        # (bounded by the budget) or give up.
                        if alive() and len(alive()) >= min(
                            self.max_workers, len(ready)
                        ):
                            continue
                        if spawn() is None and not alive():
                            break
                        continue
                    if delayed:  # only backoff waits remain
                        time.sleep(
                            max(0.0, delayed[0][0] - time.monotonic())
                        )
                        continue
                    break
                horizon: List[float] = []
                if self.timeout is not None:
                    horizon.extend(
                        w.current[2] + self.timeout for w in busy
                    )
                if self.hang_after is not None:
                    horizon.extend(
                        w.last_seen + self.hang_after for w in busy
                    )
                if delayed:
                    horizon.append(delayed[0][0])
                block = (
                    max(0.0, min(horizon) - time.monotonic()) + 0.01
                    if horizon
                    else None
                )
                try:
                    sender, kind, payload = inbox.get(timeout=block)
                except queue.Empty:
                    pass
                else:
                    self._handle_frame(
                        sender, kind, payload, by_key, report, requeue, spawn
                    )
                self._watchdog_pass(report, requeue, spawn, workers)
        finally:
            for worker in workers:
                worker.close()
        report.leftovers = [
            job for job in jobs if job not in report.completed
        ]
        return report

    def _handle_frame(
        self, sender, kind, payload, by_key, report, requeue, spawn
    ) -> None:
        if kind == "result":
            job = by_key.get(payload.get("key"))
            if job is not None and job not in report.completed:
                report.completed[job] = (
                    payload["payload"],
                    payload["wall"],
                )
            if sender.current is not None and sender.current[0] is job:
                sender.current = None
        elif kind == "error":
            if sender.current is None:
                return  # raced with a watchdog kill; already requeued
            job, attempt, _ = sender.current
            sender.current = None
            requeue(
                job,
                attempt,
                f"{payload.get('kind')}: {payload.get('message')}",
                f"raised in a worker ({payload.get('kind')})",
            )
        elif kind == "eof":
            if sender.dead:
                return  # killed on purpose; its job is already requeued
            sender.dead = True
            try:
                # EOF on the pipe can precede process teardown; wait
                # briefly so the note carries the real exit code.
                exit_code = sender.proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                exit_code = sender.proc.poll()
            if sender.current is not None:
                job, attempt, _ = sender.current
                sender.current = None
                report.infra_failures.append(
                    f"worker {sender.proc.pid} died "
                    f"(exit {exit_code}) running {job.describe()}"
                )
                report.notes.append(
                    f"worker {sender.proc.pid} died (exit {exit_code}) "
                    f"running {job.describe()}; respawning and requeuing"
                )
                requeue(
                    job,
                    attempt,
                    f"worker died (exit {exit_code})",
                    "lost its worker",
                )
                spawn()
        # "ready" and "heartbeat" frames only refresh last_seen, which
        # the reader thread already did.

    def _watchdog_pass(self, report, requeue, spawn, workers) -> None:
        now = time.monotonic()
        for worker in workers:
            if worker.dead or worker.current is None:
                continue
            job, attempt, dispatched = worker.current
            gap = now - worker.last_seen
            if self.hang_after is not None and gap >= self.hang_after:
                report.heartbeats.append(
                    {
                        "backend": self.name,
                        "kind": "hang",
                        "worker": worker.proc.pid,
                        "gap_seconds": round(gap, 3),
                        "job": job.describe(),
                    }
                )
                report.notes.append(
                    f"worker {worker.proc.pid} went silent for {gap:.1f}s "
                    f"running {job.describe()}; killing it and requeuing"
                )
                report.infra_failures.append(
                    f"worker {worker.proc.pid} heartbeat lost "
                    f"({gap:.1f}s) running {job.describe()}"
                )
                worker.kill()
                requeue(
                    job,
                    attempt,
                    f"heartbeat lost for {gap:.1f}s",
                    "went silent (hung worker killed)",
                )
                spawn()
            elif (
                self.timeout is not None
                and now - dispatched >= self.timeout
            ):
                # A job-level timeout, not an infrastructure failure —
                # and this backend can actually reclaim the slot.
                worker.kill()
                requeue(
                    job,
                    attempt,
                    f"timeout after {self.timeout:g}s",
                    f"exceeded the {self.timeout:g}s timeout",
                )
                spawn()


def build_chain(
    name: str,
    max_workers: int,
    timeout: Optional[float] = None,
    heartbeat: Optional[float] = None,
    watchdog: Optional[float] = None,
) -> List[WorkerBackend]:
    """The degradation chain for a primary backend choice.

    One backend per rung of :data:`BACKEND_CHAINS`: ``pool`` degrades
    through ``subprocess``; ``subprocess`` stands alone; ``serial`` is
    the empty chain.  The engine's in-process serial executor is always
    the terminal stage after the chain.
    """
    rungs = {
        "pool": lambda: PoolBackend(max_workers, timeout, watchdog=watchdog),
        "subprocess": lambda: SubprocessBackend(
            max_workers, timeout, heartbeat=heartbeat, watchdog=watchdog
        ),
    }
    name = resolve_backend_name(name)
    return [rungs[rung]() for rung in BACKEND_CHAINS[name]]
