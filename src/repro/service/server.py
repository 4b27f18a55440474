"""The leakage-analysis daemon: one engine, many clients, zero re-work.

``repro-leakage serve`` starts a long-lived asyncio process that owns a
single :class:`~repro.engine.ExecutionEngine` — and with it the
content-addressed result store, the supervised backend chain, circuit
breakers, validation gate and fault harness — and serves it over a
hand-rolled HTTP/1.1 interface (stdlib only, ``asyncio.start_server``):

====================================  =================================
``POST /v1/jobs``                     job batch → per-item cached result
                                      or ticket (429 when the admission
                                      queue is full)
``POST /v1/sweeps``                   a ``SweepSpec`` → one sweep ticket
``GET /v1/tickets/<id>``              poll a ticket (state, events,
                                      result)
``GET /v1/tickets/<id>/events``       live SSE progress stream
``GET /v1/status``                    full status document (shared
                                      serializer with the CLI ``--json``
                                      outputs)
``GET /v1/metricz``                   flat ``name value`` counters
``POST /v1/drain``                    stop admitting, keep serving reads
``POST /v1/gc``                       prune old tickets, leases, markers
``POST /v1/shutdown``                 graceful drain + exit
====================================  =================================

The serving discipline:

* **Admission** (:mod:`repro.service.admission`): new computations take
  bounded queue slots, full queues answer 429 + ``Retry-After``, and a
  stride scheduler keyed by the ``X-Client`` header keeps one client
  from starving the rest.
* **Coalescing** (:mod:`repro.service.coalesce`): concurrent requests
  for one content address share one computation; cached answers return
  inline at admission time.
* **Durability** (:mod:`repro.service.tickets`): every ticket persists
  its state machine to disk.  SIGTERM drains — in-flight work finishes,
  queued tickets stay journaled — and a restarted daemon resumes them,
  the content-addressed store guaranteeing nothing is lost or computed
  twice.
* **Telemetry**: engine lifecycle events stream onto tickets via the
  telemetry observer seam; shutdown records a ``ServiceProfile`` and a
  ``CoordinationProfile`` into the manifest (v7) under
  ``<cache>/service/manifest.json``.
* **Coordination** (:mod:`repro.service.coordinate`): N daemons — each
  ``repro-leakage serve --peer-id`` — share one cache directory.  A
  content address is computed under an exclusive, heartbeat-refreshed
  lease; a key leased by a peer is *watched* (the local ticket resolves
  when the peer's result lands in the shared store, so coalescing spans
  the fleet); stale leases are reclaimed deterministically and fencing
  tokens make double-publication impossible even when a "dead" peer
  resumes mid-write.

Up to ``--jobs`` work items execute concurrently: the scheduler pops in
deterministic stride order and dispatches each item onto its own
engine-fleet slot (one single-worker engine per slot, shared store and
telemetry), bounded by a semaphore.  Because results are pure functions
of their content address, concurrency — like every other execution
choice in this codebase — changes only *when* answers arrive, never
what they are.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..engine import (
    BACKEND_CHAINS,
    EngineFleet,
    ResultStore,
    SimulationJob,
    atomic_write_json,
    resolve_backend_name,
    resolve_worker_count,
)
from ..errors import ReproError
from ..sweep import ShardAssignment, SweepCoordinator, SweepSpec, expand
from ..sweep import merge as sweep_merge
from .admission import AdmissionFull, AdmissionQueue, WorkItem
from .coalesce import CoalesceRegistry
from .coordinate import (
    COORDINATION_SUBDIR,
    DEFAULT_LEASE_TTL,
    CoordinationLog,
    LeaseManager,
    LeasedStore,
)
from .protocol import (
    CLIENT_HEADER,
    DEFAULT_CLIENT,
    PROTOCOL_VERSION,
    ProtocolError,
    cache_info_payload,
    dumps_stable,
    error_payload,
    execution_payload,
    flatten_counters,
    job_result_payload,
    job_spec_payload,
    parse_job_batch,
    parse_job_spec,
    render_metricz,
)
from .tickets import KIND_JOB, KIND_SWEEP, Ticket, TicketRegistry

#: Subdirectory of the cache dir owning service state (tickets, manifest).
SERVICE_SUBDIR = "service"

#: Default TCP port (no registered meaning; "LEAK" on a phone pad is long
#: gone, so: the paper's 70 nm node x 119).
DEFAULT_PORT = 8330

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Everything ``repro-leakage serve`` configures."""

    host: str = "127.0.0.1"
    port: Optional[int] = None  #: ``None`` with no socket -> DEFAULT_PORT.
    socket: Optional[str] = None  #: Unix-socket path (instead of TCP).
    jobs: Optional[int] = None
    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    max_queue: int = 256
    #: Floor for the 429 ``Retry-After`` hint, seconds.
    retry_after: float = 1.0
    #: Per-client fairness weights (unlisted clients weigh 1.0).
    client_weights: Dict[str, float] = field(default_factory=dict)
    #: This daemon's identity in a shared cache directory
    #: (``None`` -> ``peer-<pid>``).
    peer_id: Optional[str] = None
    #: Lease heartbeat TTL, seconds: a peer silent this long is dead.
    lease_ttl: float = DEFAULT_LEASE_TTL
    #: How often a remote-watched key polls the shared store, seconds.
    poll_interval: float = 0.25
    #: Age past which ``gc`` prunes terminal tickets (and coordination
    #: droppings), seconds.
    ticket_ttl: float = 3600.0
    #: SSE keepalive comment interval, seconds (also the disconnect
    #: detection cadence).
    sse_keepalive: float = 5.0


class _SweepState:
    """In-memory bookkeeping for one live sweep ticket."""

    __slots__ = (
        "spec",
        "pending",
        "jobs",
        "journal",
        "cached",
        "queued",
        "coalesced",
        "finalizing",
    )

    def __init__(self, spec: SweepSpec, journal) -> None:
        self.spec = spec
        self.pending: set = set()
        self.jobs: Dict[str, SimulationJob] = {}
        self.journal = journal
        self.cached = 0
        self.queued = 0
        self.coalesced = 0
        self.finalizing = False


class ServiceDaemon:
    """The daemon: admission, coalescing, scheduling, tickets, HTTP."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.peer_id = self.config.peer_id or f"peer-{os.getpid()}"
        base_store = ResultStore(self.config.cache_dir)
        self.service_dir = base_store.directory / SERVICE_SUBDIR
        coordination_dir = self.service_dir / COORDINATION_SUBDIR
        self.coordination_log = CoordinationLog(
            coordination_dir / "log", self.peer_id
        )
        self.leases = LeaseManager(
            coordination_dir,
            self.peer_id,
            ttl=self.config.lease_ttl,
            log=self.coordination_log,
        )
        self.store = LeasedStore(
            base_store, self.leases, log=self.coordination_log
        )
        self.slots = resolve_worker_count(self.config.jobs)
        self.backend = resolve_backend_name(self.config.backend)
        self.fleet = EngineFleet(
            self.slots,
            store=self.store,
            backend=self.config.backend,
        )
        self.telemetry = self.fleet.telemetry
        self.tickets = TicketRegistry(self.service_dir / "tickets")
        self.queue = AdmissionQueue(
            self.config.max_queue, self.config.client_weights
        )
        self.coalesce = CoalesceRegistry()
        self._sweeps: Dict[str, _SweepState] = {}
        self._ticket_waiters: Dict[str, List[asyncio.Event]] = {}
        #: Executor-thread id -> the ticket whose computation runs there
        #: (the telemetry observer routes engine events by this map).
        self._thread_tickets: Dict[int, Ticket] = {}
        self._draining = False
        self._started = time.monotonic()
        self.port: Optional[int] = None  #: Bound TCP port once serving.
        #: Lifetime counters (ServiceProfile + /v1/metricz).
        self.requests: Dict[str, int] = {}
        self.immediate_cache_hits = 0
        self.computed_jobs = 0
        self.compute_seconds = 0.0
        self.resumed_tickets = 0
        self.remote_resolved = 0
        self.reclaimed_takeovers = 0
        self.sse_keepalives = 0
        self.sse_reaped = 0
        self.gc_runs = 0
        self.gc_pruned_tickets = 0
        self.gc_pruned_leases = 0
        self.gc_pruned_markers = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._scheduler_task: Optional[asyncio.Task] = None
        self._slot_gate: Optional[asyncio.Semaphore] = None
        self._inflight: set = set()
        self._work: Optional[asyncio.Event] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self.telemetry.subscribe(self._engine_event)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Resume journaled tickets, start the scheduler and listeners."""
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._shutdown_requested = asyncio.Event()
        self._slot_gate = asyncio.Semaphore(self.slots)
        self._resume_tickets()
        self._scheduler_task = asyncio.create_task(self._scheduler())
        if self.config.socket:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket
            )
            self._servers.append(server)
            where = f"unix:{self.config.socket}"
        else:
            port = (
                DEFAULT_PORT if self.config.port is None else self.config.port
            )
            server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=port
            )
            self._servers.append(server)
            self.port = server.sockets[0].getsockname()[1]
            where = f"http://{self.config.host}:{self.port}"
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        print(
            f"repro-leakage service: serving on {where} "
            f"(peer {self.peer_id}, cache {self.store.describe()}, "
            f"backend {self.backend}, {self.slots} slot(s), "
            f"queue limit {self.queue.limit})",
            file=sys.stderr,
        )

    async def run(self) -> None:
        """Serve until SIGTERM/SIGINT or ``POST /v1/shutdown``."""
        await self.start()
        await self._shutdown_requested.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (signal handlers and ``/v1/shutdown``)."""
        self.initiate_drain("shutdown requested")
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    def initiate_drain(self, reason: str) -> None:
        """Stop admitting work; reads keep serving, POSTs get 503."""
        if not self._draining:
            self._draining = True
            self.telemetry.note(f"service drain: {reason}")
        if self._work is not None:
            self._work.set()

    async def stop(self) -> None:
        """Drain, finish every in-flight item, journal the rest, exit."""
        self.initiate_drain("stopping")
        if self._scheduler_task is not None:
            await self._scheduler_task
        queued = [t for t in self.tickets.all() if t.state == "queued"]
        self.telemetry.record_service(self.service_profile())
        self.telemetry.record_coordination(self.coordination_profile())
        self.fleet.finalize()
        atomic_write_json(
            self.service_dir / "manifest.json",
            self.telemetry.manifest(),
        )
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        print(
            f"repro-leakage service: drained "
            f"({len(queued)} queued ticket(s) journaled for resume); "
            f"manifest: {self.service_dir / 'manifest.json'}",
            file=sys.stderr,
        )

    # ------------------------------------------------------------------
    # Restart resume
    # ------------------------------------------------------------------
    def _resume_tickets(self) -> None:
        """Re-admit every journaled non-terminal ticket, in order.

        Resume admission is *internal* — the bound never refuses work the
        daemon already promised.  A ticket whose computation actually
        finished before the crash resolves instantly from the cache;
        duplicates coalesce; nothing runs twice.
        """
        for ticket in self.tickets.load():
            self.resumed_tickets += 1
            try:
                if ticket.kind == KIND_SWEEP:
                    spec = SweepSpec.from_dict(ticket.spec)
                    self._admit_sweep(ticket, spec, internal=True)
                else:
                    job = parse_job_spec(ticket.spec)
                    ticket.coalesced_with = None
                    self._admit_job_ticket(ticket, job, internal=True)
            except ReproError as error:
                self.tickets.transition(
                    ticket, "failed", error=f"resume failed: {error}"
                )
                continue
            self._publish(ticket, {"event": "resumed"})

    # ------------------------------------------------------------------
    # Admission (event-loop only)
    # ------------------------------------------------------------------
    def _retry_after(self) -> float:
        """The 429 hint: queue depth x observed seconds per computation."""
        average = (
            self.compute_seconds / self.computed_jobs
            if self.computed_jobs
            else 2.0
        )
        return max(
            float(self.config.retry_after),
            (self.queue.depth + 1) * average,
        )

    def _classify(self, job: SimulationJob) -> Tuple[str, object]:
        """What admitting this job would do: coalesce, hit, or compute."""
        key = job.key()
        leader = self.coalesce.leader_for(key)
        if leader is not None:
            return "coalesce", leader
        hit = self.store.get(key)
        if hit is not None:
            return "cached", hit
        return "new", None

    def _admit_job_ticket(
        self, ticket: Ticket, job: SimulationJob, internal: bool = False
    ) -> str:
        """Queue or coalesce an existing ticket; returns its disposition."""
        key = job.key()
        leader = self.coalesce.leader_for(key)
        if leader is not None and leader != ticket.id:
            ticket.coalesced_with = leader
            self.coalesce.attach(key, ticket.id)
            self._publish(ticket, {"event": "coalesced", "leader": leader})
            return "coalesced"
        hit = self.store.get(key)
        if hit is not None:
            self.immediate_cache_hits += 1
            result = job_result_payload(job, hit)
            self.tickets.transition(
                ticket,
                "done",
                result={
                    "result": result,
                    "execution": {
                        "source": "cached",
                        "attempts": 0,
                        "wall_seconds": 0.0,
                        "coalesced": False,
                    },
                },
            )
            self._publish(ticket, {"event": "cache-hit", "key": key})
            self._notify_waiters(ticket.id)
            return "cached"
        if ticket.state != "queued":
            self.tickets.transition(ticket, "queued")
        self.coalesce.begin(key, ticket.id)
        self.queue.admit(
            WorkItem(ticket.id, key, ticket.client, internal=internal)
        )
        self._publish(ticket, {"event": "admitted", "key": key})
        if self._work is not None:
            self._work.set()
        return "queued"

    def submit_jobs(self, jobs: List[SimulationJob], client: str) -> Dict:
        """Admit one job batch; per-item cached results or tickets.

        Whole-batch admission: either every new computation in the batch
        gets a slot, or the entire request is refused with
        :class:`AdmissionFull` — a half-admitted batch is a promise the
        client cannot reason about.
        """
        plans = [(job, self._classify(job)) for job in jobs]
        new_keys = {
            job.key()
            for job, (disposition, _) in plans
            if disposition == "new"
        }
        if new_keys and not self.queue.can_admit(len(new_keys)):
            self.queue.reject_batch(client, len(new_keys))
            raise AdmissionFull(
                f"admission queue cannot take {len(new_keys)} more "
                f"computation(s) ({self.queue.depth}/{self.queue.limit} "
                "slots used)",
                depth=self.queue.depth,
                limit=self.queue.limit,
            )
        items = []
        for job, (disposition, extra) in plans:
            key = job.key()
            # Re-classify inside the batch: an earlier duplicate item may
            # have become this key's leader.
            leader = self.coalesce.leader_for(key)
            if disposition == "cached":
                self.immediate_cache_hits += 1
                items.append(
                    {
                        "status": "cached",
                        "key": key,
                        "spec": job_spec_payload(job),
                        "result": job_result_payload(job, extra),
                        "execution": {
                            "source": "cached",
                            "attempts": 0,
                            "wall_seconds": 0.0,
                            "coalesced": False,
                        },
                    }
                )
                continue
            if leader is not None:
                ticket = self.tickets.create(
                    KIND_JOB,
                    job_spec_payload(job),
                    key,
                    client,
                    coalesced_with=leader,
                )
                self.coalesce.attach(key, ticket.id)
                self._publish(
                    ticket, {"event": "coalesced", "leader": leader}
                )
                items.append(
                    {
                        "status": "coalesced",
                        "key": key,
                        "spec": job_spec_payload(job),
                        "ticket": ticket.id,
                        "leader": leader,
                    }
                )
                continue
            ticket = self.tickets.create(
                KIND_JOB, job_spec_payload(job), key, client
            )
            self.coalesce.begin(key, ticket.id)
            self.queue.admit(WorkItem(ticket.id, key, client))
            self._publish(ticket, {"event": "admitted", "key": key})
            items.append(
                {
                    "status": "queued",
                    "key": key,
                    "spec": job_spec_payload(job),
                    "ticket": ticket.id,
                }
            )
        if self._work is not None:
            self._work.set()
        return {"items": items}

    def submit_sweep(self, spec: SweepSpec, client: str) -> Dict:
        """Admit a whole sweep; returns its single ticket."""
        points = expand(spec)
        new_keys = set()
        for point in points:
            disposition, _ = self._classify(point.job)
            if disposition == "new":
                new_keys.add(point.key())
        if new_keys and not self.queue.can_admit(len(new_keys)):
            self.queue.reject_batch(client, len(new_keys))
            raise AdmissionFull(
                f"admission queue cannot take the sweep's {len(new_keys)} "
                f"new computation(s) ({self.queue.depth}/{self.queue.limit} "
                "slots used)",
                depth=self.queue.depth,
                limit=self.queue.limit,
            )
        ticket = self.tickets.create(
            KIND_SWEEP, spec.to_dict(), spec.fingerprint(), client
        )
        try:
            self._admit_sweep(ticket, spec, internal=False)
        except ReproError as error:  # e.g. spec fingerprint conflict
            self.tickets.transition(ticket, "failed", error=str(error))
            self._notify_waiters(ticket.id)
            raise
        state = self._sweeps.get(ticket.id)
        return {
            "ticket": ticket.id,
            "sweep": spec.name,
            "spec_fingerprint": spec.fingerprint(),
            "points": len(points),
            "queued": state.queued if state else 0,
            "cached": state.cached if state else 0,
            "coalesced": state.coalesced if state else 0,
        }

    def _admit_sweep(
        self, ticket: Ticket, spec: SweepSpec, internal: bool
    ) -> None:
        """Expand a sweep ticket into watched points + a finalize step."""
        coordinator = SweepCoordinator(spec, self.store.directory)
        coordinator.ensure_spec()
        journal = coordinator.shard_journal(ShardAssignment())
        if journal.exists():
            journal.load()  # resumed sweep: keep the journal duplicate-free
        state = _SweepState(spec, journal)
        self._sweeps[ticket.id] = state
        if ticket.state != "running":
            self.tickets.transition(ticket, "running")
        for point in expand(spec):
            job = point.job
            key = point.key()
            state.jobs[key] = job
            disposition, _ = self._classify(job)
            if disposition == "cached":
                state.cached += 1
                journal.record(job)
                continue
            state.pending.add(key)
            self.coalesce.watch(key, ticket.id)
            if disposition == "coalesce":
                state.coalesced += 1
                continue
            leader = self.tickets.create(
                KIND_JOB, job_spec_payload(job), key, ticket.client
            )
            self.coalesce.begin(key, leader.id)
            self.queue.admit(
                WorkItem(leader.id, key, ticket.client, internal=internal)
            )
            self._publish(leader, {"event": "admitted", "key": key})
            state.queued += 1
        self._publish(
            ticket,
            {
                "event": "sweep-admitted",
                "points": len(state.jobs),
                "pending": len(state.pending),
                "cached": state.cached,
                "coalesced": state.coalesced,
            },
        )
        if not state.pending:
            self._enqueue_finalize(ticket, state)
        elif self._work is not None:
            self._work.set()

    def _enqueue_finalize(self, ticket: Ticket, state: _SweepState) -> None:
        if state.finalizing:
            return
        state.finalizing = True
        self.queue.admit(
            WorkItem(ticket.id, ticket.key, ticket.client, internal=True)
        )
        self._publish(ticket, {"event": "finalize-queued"})
        if self._work is not None:
            self._work.set()

    # ------------------------------------------------------------------
    # Scheduler (stride-ordered dispatch onto bounded concurrent slots)
    # ------------------------------------------------------------------
    async def _scheduler(self) -> None:
        """Pop in stride order, dispatch each item as its own task.

        The semaphore bounds *computations* to ``--jobs`` slots; a slot
        is acquired before the pop so the stride scheduler stays the
        single authority on dispatch order right up to the moment a slot
        frees.  Remote-watched keys release their slot immediately —
        waiting on a peer costs polling, not capacity.  Drain stops
        dispatching, then waits for every in-flight task.
        """
        while not self._draining:
            await self._slot_gate.acquire()
            if self._draining:
                self._slot_gate.release()
                break
            item = self.queue.pop()
            if item is None:
                self._slot_gate.release()
                self._work.clear()
                if self._draining:
                    break
                await self._work.wait()
                continue
            task = asyncio.create_task(self._run_item(item))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)

    async def _run_item(self, item: WorkItem) -> None:
        """One dispatched WorkItem; owns a slot until compute finishes."""
        held_slot = True
        try:
            ticket = self.tickets.get(item.ticket_id)
            if ticket is None or ticket.terminal:
                return
            if ticket.kind == KIND_SWEEP:
                await self._run_sweep_finalize(ticket)
                return
            try:
                job = parse_job_spec(ticket.spec)
            except ReproError as error:
                self.tickets.transition(ticket, "failed", error=str(error))
                self._notify_waiters(ticket.id)
                return
            key = ticket.key
            # A concurrent local computation of this key cannot exist
            # (the coalescer guarantees one leader per key), but a PEER
            # may hold its lease: claim or watch.
            lease = await self._loop.run_in_executor(
                None, self.leases.acquire, key
            )
            if lease is None:
                self._slot_gate.release()
                held_slot = False
                self.coalesce.remote_begin(key)
                self.tickets.transition(ticket, "running")
                self._publish(
                    ticket, {"event": "remote-wait", "key": key}
                )
                await self._watch_remote(ticket, job)
                return
            await self._compute_owned(ticket, job, lease)
        finally:
            if held_slot:
                self._slot_gate.release()

    async def _compute_owned(self, ticket: Ticket, job, lease) -> None:
        """Compute a key under a held lease, heartbeating throughout."""
        key = ticket.key
        if ticket.state != "running":
            self.tickets.transition(ticket, "running")
        self._publish(ticket, {"event": "computing", "key": key})
        self.store.claim(key, lease)
        beat = asyncio.create_task(self._heartbeat_lease(lease))
        start = time.perf_counter()
        try:
            outcome = await self._loop.run_in_executor(
                None, self._compute_in_thread, ticket, job
            )
        except Exception as error:
            self._fail_computation(
                ticket, f"{type(error).__name__}: {error}"
            )
            return
        finally:
            beat.cancel()
            self.store.disclaim(key)
            await self._loop.run_in_executor(
                None, self.leases.release, lease
            )
        self.compute_seconds += time.perf_counter() - start
        self.computed_jobs += 1
        result = job_result_payload(job, outcome.annotated)
        execution = execution_payload(outcome)
        self.tickets.transition(
            ticket, "done", result={"result": result, "execution": execution}
        )
        self._publish(ticket, {"event": "done", "source": outcome.source})
        self._notify_waiters(ticket.id)
        self._complete_key(key, job, result, execution)

    def _compute_in_thread(self, ticket: Ticket, job):
        """Executor-thread body: route telemetry events to this ticket."""
        ident = threading.get_ident()
        self._thread_tickets[ident] = ticket
        try:
            return self.fleet.run_one(job)
        finally:
            self._thread_tickets.pop(ident, None)

    async def _heartbeat_lease(self, lease) -> None:
        """Refresh a lease's mtime while its computation runs."""
        interval = max(self.leases.ttl / 3.0, 0.05)
        try:
            while True:
                await asyncio.sleep(interval)
                alive = await self._loop.run_in_executor(
                    None, self.leases.heartbeat, lease
                )
                if not alive:
                    # Reclaimed under us: the publish guard will fence
                    # the write; nothing else to do here.
                    return
        except asyncio.CancelledError:
            return

    async def _watch_remote(self, ticket: Ticket, job) -> None:
        """Resolve a peer-leased key from the shared store, or take over.

        Polls until the peer's result appears (fleet-wide coalescing:
        the local ticket, its followers and sweep watchers all resolve
        from the peer's bytes), the peer's lease goes stale (reclaim and
        compute here), or the daemon drains (the ticket stays journaled
        for restart resume).
        """
        key = ticket.key
        while True:
            hit = self.store.get(key)
            if hit is not None:
                self.coalesce.remote_done(key)
                self.remote_resolved += 1
                result = job_result_payload(job, hit)
                execution = {
                    "source": "remote",
                    "attempts": 0,
                    "wall_seconds": 0.0,
                    "coalesced": True,
                }
                self.tickets.transition(
                    ticket,
                    "done",
                    result={"result": result, "execution": execution},
                )
                self._publish(ticket, {"event": "done", "source": "remote"})
                self._notify_waiters(ticket.id)
                self._complete_key(key, job, result, execution)
                return
            holder = self.leases.holder(key)
            if holder is None or holder.get("stale"):
                # The peer died (or finished without publishing — a
                # crash mid-compute): try to take the lease over.
                lease = await self._loop.run_in_executor(
                    None, self.leases.acquire, key
                )
                if lease is not None:
                    self.coalesce.remote_done(key)
                    self.reclaimed_takeovers += 1
                    self._publish(
                        ticket,
                        {"event": "lease-takeover", "key": key},
                    )
                    await self._slot_gate.acquire()
                    try:
                        await self._compute_owned(ticket, job, lease)
                    finally:
                        self._slot_gate.release()
                    return
            if self._draining:
                return  # stays queued/running; restart resumes it
            await asyncio.sleep(self.config.poll_interval)

    def _complete_key(
        self, key: str, job: SimulationJob, result: Dict, execution: Dict
    ) -> None:
        """Resolve followers and sweep watchers of a finished key."""
        watchers = self.coalesce.watchers(key)
        followers = self.coalesce.complete(key)
        for follower_id in followers:
            follower = self.tickets.get(follower_id)
            if follower is None or follower.terminal:
                continue
            shared = dict(execution)
            shared["coalesced"] = True
            self.tickets.transition(
                follower,
                "done",
                result={"result": result, "execution": shared},
            )
            self._publish(follower, {"event": "done", "coalesced": True})
            self._notify_waiters(follower.id)
        for sweep_id in watchers:
            sweep = self.tickets.get(sweep_id)
            state = self._sweeps.get(sweep_id)
            if sweep is None or state is None or sweep.terminal:
                continue
            state.pending.discard(key)
            state.journal.record(job)
            self._publish(
                sweep,
                {
                    "event": "point-completed",
                    "job": job.describe(),
                    "remaining": len(state.pending),
                },
            )
            if not state.pending:
                self._enqueue_finalize(sweep, state)

    def _fail_computation(self, ticket: Ticket, error: str) -> None:
        """A computation exhausted every backend and retry: fail fan-out."""
        key = ticket.key
        self.tickets.transition(ticket, "failed", error=error)
        self._publish(ticket, {"event": "failed", "error": error})
        self._notify_waiters(ticket.id)
        watchers = self.coalesce.watchers(key)
        for follower_id in self.coalesce.complete(key):
            follower = self.tickets.get(follower_id)
            if follower is None or follower.terminal:
                continue
            self.tickets.transition(follower, "failed", error=error)
            self._publish(follower, {"event": "failed", "error": error})
            self._notify_waiters(follower.id)
        for sweep_id in watchers:
            sweep = self.tickets.get(sweep_id)
            if sweep is None or sweep.terminal:
                continue
            self.tickets.transition(
                sweep, "failed", error=f"sweep point failed: {error}"
            )
            self._publish(sweep, {"event": "failed", "error": error})
            self._notify_waiters(sweep.id)
            self._sweeps.pop(sweep_id, None)

    async def _run_sweep_finalize(self, ticket: Ticket) -> None:
        state = self._sweeps.get(ticket.id)
        if state is None:
            self.tickets.transition(
                ticket, "failed", error="sweep state lost"
            )
            self._notify_waiters(ticket.id)
            return
        self._publish(ticket, {"event": "finalizing"})

        def _merge():
            ident = threading.get_ident()
            self._thread_tickets[ident] = ticket
            engine = self.fleet.acquire()
            try:
                return sweep_merge(
                    state.spec,
                    cache_dir=self.store.directory,
                    engine=engine,
                )
            finally:
                self.fleet.release(engine)
                self._thread_tickets.pop(ident, None)

        try:
            outcome = await self._loop.run_in_executor(None, _merge)
        except Exception as error:
            self._sweeps.pop(ticket.id, None)
            self.tickets.transition(
                ticket,
                "failed",
                error=f"merge failed: {type(error).__name__}: {error}",
            )
            self._publish(ticket, {"event": "failed", "error": str(error)})
            self._notify_waiters(ticket.id)
            return
        state.journal.write_manifest(self.telemetry.manifest())
        self._sweeps.pop(ticket.id, None)
        self.tickets.transition(
            ticket,
            "done",
            result={
                "report": outcome.report,
                "report_sha256": outcome.manifest["report_sha256"],
                "grid_jobs": outcome.manifest["grid_jobs"],
                "cached_at_submit": state.cached,
                "computed": state.queued,
                "coalesced": state.coalesced,
            },
        )
        self._publish(
            ticket,
            {
                "event": "done",
                "report_sha256": outcome.manifest["report_sha256"],
            },
        )
        self._notify_waiters(ticket.id)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _engine_event(self, payload: Dict) -> None:
        """Telemetry observer: marshal engine events onto the loop.

        Events are emitted synchronously on the executor thread running
        that slot's computation, so the emitting thread id *is* the
        ticket attribution — concurrent slots never cross streams.
        """
        loop = self._loop
        ticket = self._thread_tickets.get(threading.get_ident())
        if loop is None or ticket is None:
            return
        try:
            loop.call_soon_threadsafe(self._publish, ticket, payload)
        except RuntimeError:
            pass  # loop already closed during shutdown

    def _publish(self, ticket: Ticket, event: Dict) -> None:
        if ticket.terminal and event.get("event") not in ("done", "failed"):
            return
        self.tickets.add_event(ticket, event)
        self._notify_waiters(ticket.id)

    def _notify_waiters(self, ticket_id: str) -> None:
        for waiter in self._ticket_waiters.pop(ticket_id, []):
            waiter.set()

    # ------------------------------------------------------------------
    # Status documents
    # ------------------------------------------------------------------
    def status_payload(self) -> Dict:
        total = self.store.hits + self.store.misses
        return {
            "protocol_version": PROTOCOL_VERSION,
            "service": {
                "draining": self._draining,
                "uptime_seconds": round(time.monotonic() - self._started, 3),
                "peer_id": self.peer_id,
                "engine": {
                    "backend": self.backend,
                    "chain": self._backend_chain(),
                    "max_workers": self.slots,
                    "slots": self.slots,
                },
                "admission": self.queue.snapshot(),
                "coalesce": self.coalesce.snapshot(),
                "coordination": self.coordination_profile(),
                "tickets": self.tickets.counts(),
                "requests": {
                    name: self.requests[name]
                    for name in sorted(self.requests)
                },
                "immediate_cache_hits": self.immediate_cache_hits,
                "computed_jobs": self.computed_jobs,
                "compute_seconds": round(self.compute_seconds, 6),
                "resumed_tickets": self.resumed_tickets,
                "sse_keepalives": self.sse_keepalives,
                "sse_reaped": self.sse_reaped,
                "store": {
                    "hits": self.store.hits,
                    "misses": self.store.misses,
                    "hit_rate": self.store.hits / total if total else 0.0,
                },
                "breakers": self.fleet.breaker_snapshot()["states"],
                "heartbeat_events": len(self.telemetry.heartbeats),
            },
            "cache": cache_info_payload(self.store),
        }

    def _backend_chain(self) -> List[str]:
        # The ladder every slot builds, whether or not one exists yet.
        return list(BACKEND_CHAINS[self.backend]) + ["serial"]

    def service_profile(self) -> Dict:
        """The ``ServiceProfile`` manifest section (since v6)."""
        return {
            "draining": self._draining,
            "peer_id": self.peer_id,
            "admission": self.queue.snapshot(),
            "coalesce": self.coalesce.snapshot(),
            "tickets": self.tickets.counts(),
            "requests": {
                name: self.requests[name] for name in sorted(self.requests)
            },
            "immediate_cache_hits": self.immediate_cache_hits,
            "computed_jobs": self.computed_jobs,
            "compute_seconds": round(self.compute_seconds, 6),
            "resumed_tickets": self.resumed_tickets,
            "sse_keepalives": self.sse_keepalives,
            "sse_reaped": self.sse_reaped,
        }

    def coordination_profile(self) -> Dict:
        """The manifest-v7 ``CoordinationProfile`` section."""
        return {
            "peer_id": self.peer_id,
            "leases": self.leases.snapshot(),
            "publishes": self.store.snapshot(),
            "remote_resolved": self.remote_resolved,
            "reclaimed_takeovers": self.reclaimed_takeovers,
            "gc": {
                "runs": self.gc_runs,
                "pruned_tickets": self.gc_pruned_tickets,
                "pruned_leases": self.gc_pruned_leases,
                "pruned_markers": self.gc_pruned_markers,
            },
        }

    def collect_garbage(self, ttl: Optional[float] = None) -> Dict:
        """Prune old terminal tickets plus coordination droppings.

        ``ttl`` defaults to ``--ticket-ttl``.  Orphaned leases (a dead,
        never-contended peer's), broken-lease tombstones, spent fencing
        tokens and satisfied publish markers age out on the same clock.
        Counted in ``/v1/metricz`` under ``...coordination.gc.*``.
        """
        age = float(self.config.ticket_ttl if ttl is None else ttl)
        tickets = self.tickets.prune(age)
        leases = self.leases.sweep(age)
        markers = self.store.sweep_markers(age)
        self.gc_runs += 1
        self.gc_pruned_tickets += tickets
        self.gc_pruned_leases += leases["orphaned"] + leases["broken"]
        self.gc_pruned_markers += markers
        return {
            "ttl": age,
            "tickets": tickets,
            "leases": leases,
            "markers": markers,
        }

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            self.requests[f"{method} {path.split('?')[0]}"] = (
                self.requests.get(f"{method} {path.split('?')[0]}", 0) + 1
            )
            await self._route(reader, writer, method, path, headers, body)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,
        ):
            pass
        except ProtocolError as error:
            await self._respond_json(writer, 400, error_payload(str(error)))
        except Exception as error:  # never kill the daemon on one request
            try:
                await self._respond_json(
                    writer,
                    500,
                    error_payload(f"{type(error).__name__}: {error}"),
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_request(reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ProtocolError(f"malformed request line {line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0") or "0"
        try:
            length = int(length_raw)
        except ValueError:
            raise ProtocolError(
                f"bad Content-Length {length_raw!r}"
            ) from None
        body = await reader.readexactly(length) if length > 0 else b""
        return method.upper(), target, headers, body

    async def _route(
        self, reader, writer, method, target, headers, body
    ) -> None:
        path = target.split("?", 1)[0]
        client = headers.get(CLIENT_HEADER.lower(), "") or DEFAULT_CLIENT
        if path == "/v1/jobs" and method == "POST":
            await self._handle_jobs(writer, client, body)
        elif path == "/v1/sweeps" and method == "POST":
            await self._handle_sweeps(writer, client, body)
        elif path.startswith("/v1/tickets/") and method == "GET":
            rest = path[len("/v1/tickets/"):]
            if rest.endswith("/events"):
                await self._handle_events(
                    reader, writer, rest[: -len("/events")]
                )
            else:
                await self._handle_ticket(writer, rest)
        elif path == "/v1/status" and method == "GET":
            await self._respond_json(writer, 200, self.status_payload())
        elif path == "/v1/metricz" and method == "GET":
            counters = flatten_counters(
                self.status_payload()["service"], prefix="repro_service."
            )
            await self._respond(
                writer,
                200,
                render_metricz(counters).encode("utf-8"),
                content_type="text/plain; charset=utf-8",
            )
        elif path == "/v1/drain" and method == "POST":
            self.initiate_drain("drain requested over HTTP")
            await self._respond_json(writer, 202, {"draining": True})
        elif path == "/v1/gc" and method == "POST":
            ttl = None
            if body:
                document = self._parse_body(body)
                if "ttl" in document:
                    try:
                        ttl = float(document["ttl"])
                    except (TypeError, ValueError):
                        raise ProtocolError(
                            f"gc ttl must be a number, got "
                            f"{document['ttl']!r}"
                        ) from None
            swept = await self._loop.run_in_executor(
                None, self.collect_garbage, ttl
            )
            await self._respond_json(writer, 200, swept)
        elif path == "/v1/shutdown" and method == "POST":
            await self._respond_json(writer, 202, {"stopping": True})
            self.request_shutdown()
        elif path in (
            "/v1/jobs",
            "/v1/sweeps",
            "/v1/status",
            "/v1/metricz",
            "/v1/drain",
            "/v1/gc",
            "/v1/shutdown",
        ):
            await self._respond_json(
                writer,
                405,
                error_payload(f"{method} not allowed on {path}"),
            )
        else:
            await self._respond_json(
                writer, 404, error_payload(f"unknown path {path!r}")
            )

    def _parse_body(self, body: bytes) -> Dict:
        if not body:
            raise ProtocolError("request body is empty")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ProtocolError(
                f"request body is not valid JSON: {error}"
            ) from None

    async def _handle_jobs(self, writer, client: str, body: bytes) -> None:
        if self._draining:
            await self._respond_json(
                writer, 503, error_payload("service is draining")
            )
            return
        jobs = parse_job_batch(self._parse_body(body))
        try:
            response = self.submit_jobs(jobs, client)
        except AdmissionFull as error:
            await self._respond_429(writer, str(error))
            return
        await self._respond_json(writer, 200, response)

    async def _handle_sweeps(self, writer, client: str, body: bytes) -> None:
        if self._draining:
            await self._respond_json(
                writer, 503, error_payload("service is draining")
            )
            return
        try:
            spec = SweepSpec.from_dict(self._parse_body(body))
        except ReproError as error:
            await self._respond_json(writer, 400, error_payload(str(error)))
            return
        try:
            response = self.submit_sweep(spec, client)
        except AdmissionFull as error:
            await self._respond_429(writer, str(error))
            return
        except ReproError as error:  # e.g. spec fingerprint conflict
            await self._respond_json(writer, 409, error_payload(str(error)))
            return
        await self._respond_json(writer, 200, response)

    async def _handle_ticket(self, writer, ticket_id: str) -> None:
        ticket = self.tickets.get(ticket_id)
        if ticket is None:
            await self._respond_json(
                writer, 404, error_payload(f"no ticket {ticket_id!r}")
            )
            return
        await self._respond_json(writer, 200, ticket.payload())

    def _discard_waiter(self, ticket_id: str, waiter: asyncio.Event) -> None:
        """Unregister one SSE waiter (keepalive wakeups, reaped clients)."""
        waiters = self._ticket_waiters.get(ticket_id)
        if not waiters:
            return
        try:
            waiters.remove(waiter)
        except ValueError:
            pass
        if not waiters:
            self._ticket_waiters.pop(ticket_id, None)

    async def _handle_events(self, reader, writer, ticket_id: str) -> None:
        """SSE: stream ticket events until terminal or the client leaves.

        Idle streams carry a ``: keepalive`` comment every
        ``--sse-keepalive`` seconds so middleboxes don't cut them, and a
        background read on the connection detects the client closing its
        end — a disconnected client's stream task (and its waiter
        registration) is reaped instead of parked forever.
        """
        ticket = self.tickets.get(ticket_id)
        if ticket is None:
            await self._respond_json(
                writer, 404, error_payload(f"no ticket {ticket_id!r}")
            )
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        # SSE clients never send another byte: a completed read means the
        # peer closed (or broke) the connection.
        closed = asyncio.ensure_future(reader.read())
        sent = 0
        waiter: Optional[asyncio.Event] = None
        wait_task: Optional[asyncio.Task] = None
        try:
            while True:
                events = ticket.events[sent:]
                for event in events:
                    data = json.dumps(event, sort_keys=True)
                    writer.write(f"data: {data}\n\n".encode("utf-8"))
                sent += len(events)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    self.sse_reaped += 1
                    return
                if ticket.terminal:
                    closing = json.dumps(
                        {"state": ticket.state}, sort_keys=True
                    )
                    writer.write(
                        f"event: end\ndata: {closing}\n\n".encode()
                    )
                    await writer.drain()
                    return
                waiter = asyncio.Event()
                self._ticket_waiters.setdefault(ticket.id, []).append(
                    waiter
                )
                if len(ticket.events) > sent or ticket.terminal:
                    # Appended between snapshot and registration.
                    self._discard_waiter(ticket.id, waiter)
                    waiter = None
                    continue
                wait_task = asyncio.ensure_future(waiter.wait())
                done, _ = await asyncio.wait(
                    {wait_task, closed},
                    timeout=self.config.sse_keepalive,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                self._discard_waiter(ticket.id, waiter)
                waiter = None
                if closed in done:
                    self.sse_reaped += 1
                    return
                if not done:  # idle interval: prove the stream is alive
                    self.sse_keepalives += 1
                    writer.write(b": keepalive\n\n")
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        self.sse_reaped += 1
                        return
        finally:
            if waiter is not None:
                self._discard_waiter(ticket_id, waiter)
            if wait_task is not None:
                wait_task.cancel()
            closed.cancel()

    async def _respond_429(self, writer, message: str) -> None:
        hint = self._retry_after()
        await self._respond_json(
            writer,
            429,
            error_payload(message, retry_after=hint),
            extra_headers={"Retry-After": str(int(math.ceil(hint)))},
        )

    async def _respond_json(
        self, writer, status: int, payload: Dict, extra_headers=None
    ) -> None:
        await self._respond(
            writer,
            status,
            dumps_stable(payload).encode("utf-8"),
            extra_headers=extra_headers,
        )

    async def _respond(
        self,
        writer,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


class ServiceThread:
    """Run a daemon on a background thread (tests, benchmarks, embedding).

    ``start()`` blocks until the daemon is listening; ``stop()`` requests
    graceful shutdown and joins.  The bound TCP port is ``self.port``
    (pass ``port=0`` in the config for an ephemeral one).
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.daemon: Optional[ServiceDaemon] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)

    def start(self, timeout: float = 30.0) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ReproError("service thread did not become ready")
        if self.error is not None:
            raise ReproError(f"service failed to start: {self.error}")
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # surface startup failures
            self.error = error
            self._ready.set()

    async def _amain(self) -> None:
        self.daemon = ServiceDaemon(self.config)
        await self.daemon.start()
        self.port = self.daemon.port
        self._ready.set()
        await self.daemon._shutdown_requested.wait()
        await self.daemon.stop()

    def stop(self, timeout: float = 30.0) -> None:
        daemon = self.daemon
        if daemon is not None and daemon._loop is not None:
            try:
                daemon._loop.call_soon_threadsafe(daemon.request_shutdown)
            except RuntimeError:
                pass
        self._thread.join(timeout)
