"""Run telemetry: where the time and the simulated cycles went.

The engine records one :class:`JobRecord` per job outcome plus run-level
wall time, and :class:`RunTelemetry` turns them into

* a JSON *manifest* (``--manifest PATH``) for tooling, and
* a one-paragraph *summary footer* for humans.

Timers are monotonic and deliberately lightweight (one ``perf_counter``
pair per job); they add nothing measurable to multi-second simulations.

Telemetry is also the engine's *streaming* seam: observers subscribed
via :meth:`RunTelemetry.subscribe` receive every lifecycle event —
cache hits, dispatches, completions, retries, quarantines, degradation
notes — the moment it is recorded.  The service daemon
(:mod:`repro.service`) turns this stream into per-ticket SSE events;
observers that raise are dropped from the event, never from the run.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .jobs import SOURCE_CACHED, JobOutcome

#: Version of the manifest JSON layout, independent of the result cache's
#: payload schema version.  Version 2 added per-job attempts plus the
#: ``retries`` and ``faults`` sections; version 3 added the ``store``
#: section and the cross-run cache-sharing totals
#: (``cache_hits_from_earlier_runs`` / ``cache_hits_from_this_run``);
#: version 4 added the simulation-kernel profile: per-job
#: ``kernel_mode`` / ``fast_path_accesses`` / ``slow_path_accesses`` /
#: ``stage_seconds`` and the run-level fast-path totals; version 5 added
#: supervised multi-backend execution: the ``quarantine`` (invalid
#: results + corrupt cache entries), ``heartbeats`` (watchdog events)
#: and ``breakers`` (circuit-breaker states and transitions) sections,
#: their totals, and cache-quarantine counts in the ``store`` section;
#: version 6 added the ``service`` section (the ``ServiceProfile`` a
#: daemon run records: admission, coalescing, per-client and ticket
#: counters — empty for plain CLI runs); version 7 added the
#: ``coordination`` section (the ``CoordinationProfile`` of a
#: multi-daemon fleet: peer id, lease acquire/reclaim/fence counters,
#: guarded-publish outcomes, remote-coalescing and GC totals — empty
#: outside a coordinating daemon); version 8 added the ``substrate``
#: section (the run's resolved simulation substrate) plus per-job
#: ``residual_impl`` (which residual-loop implementation — ``python``,
#: ``compiled`` or ``scalar`` — produced the result); version 9 added
#: the ``fault_domains`` section (the ``FaultDomainProfile`` of a
#: remote-capable run: per-host dispatch/retry/breaker-transition
#: counters, degradation-ladder descents in order, the rungs that
#: completed work and the final rung); version 10 writes a section only
#: for a subsystem that ran: ``service`` and ``coordination`` only when a
#: daemon recorded them, ``heartbeats`` only when non-empty, and
#: ``fault_domains`` only when a host-aware backend ran or a dispatch
#: descended a rung, and ``substrate`` keeps only the kernel mode and
#: residual implementation (its two trace-dispatch keys are gone);
#: version 11 drops the remote backend: ``context`` loses ``hosts``, and
#: ``fault_domains`` keeps only ``ladder``, ``rungs_used`` and
#: ``final_rung`` (no per-host counters), written only when a dispatch
#: descended a rung of the local pool -> subprocess -> serial ladder.
MANIFEST_VERSION = 11


class Stopwatch:
    """Context-manager wall timer: ``with Stopwatch() as sw: ...``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        self._start = None


@dataclass(frozen=True)
class JobRecord:
    """One job's telemetry row."""

    benchmark: str
    scale: float
    key: str
    source: str
    wall_seconds: float
    instructions: int
    cycles: int
    attempts: int = 1
    #: Simulation-kernel profile ("batched"/"scalar"; empty for results
    #: cached before profiles existed).
    kernel_mode: str = ""
    #: Residual-loop implementation ("python"/"compiled"/"scalar"; empty
    #: for results cached before manifest v8).
    residual_impl: str = ""
    fast_path_accesses: int = 0
    slow_path_accesses: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def instructions_per_second(self) -> float:
        """Simulation throughput of this job (0 for instant cache hits)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def fast_path_share(self) -> float:
        """Fraction of this job's L1 accesses resolved on the fast path."""
        total = self.fast_path_accesses + self.slow_path_accesses
        return self.fast_path_accesses / total if total else 0.0


@dataclass
class RunTelemetry:
    """Accumulates job records and run wall time across engine runs."""

    records: List[JobRecord] = field(default_factory=list)
    failures: List[Dict] = field(default_factory=list)
    retries: List[Dict] = field(default_factory=list)
    faults: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    quarantines: List[Dict] = field(default_factory=list)
    heartbeats: List[Dict] = field(default_factory=list)
    breakers: Dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    context: Dict = field(default_factory=dict)
    store_stats: Dict = field(default_factory=dict)
    #: The ``ServiceProfile`` of a daemon-owned run (manifest v6); empty,
    #: and left out of the manifest, for plain CLI runs.
    service: Dict = field(default_factory=dict)
    #: The ``CoordinationProfile`` of a multi-daemon fleet (manifest
    #: v7); empty, and left out of the manifest, outside a coordinating
    #: daemon.
    coordination: Dict = field(default_factory=dict)
    #: The run's simulation substrate (manifest v8): resolved kernel
    #: mode and residual implementation.
    substrate: Dict = field(default_factory=dict)
    #: The ``FaultDomainProfile`` (manifest v11): ladder descents, rungs
    #: used and the final rung.  Left out of the manifest unless a
    #: dispatch descended a rung.
    fault_domains: Dict = field(default_factory=dict)
    #: Live event observers (not part of the manifest).
    observers: List[Callable] = field(default_factory=list, repr=False)
    #: Guards the record lists when several engine slots of one fleet
    #: share this telemetry and record from their own executor threads.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Streaming observers
    # ------------------------------------------------------------------
    def subscribe(self, observer: Callable[[Dict], None]) -> None:
        """Attach a live observer; it receives every ``emit`` payload."""
        self.observers.append(observer)

    def unsubscribe(self, observer: Callable[[Dict], None]) -> None:
        """Detach an observer added with :meth:`subscribe`."""
        try:
            self.observers.remove(observer)
        except ValueError:
            pass

    def emit(self, event: str, **data) -> None:
        """Push one lifecycle event to every observer.

        Observers run synchronously on the emitting thread (worker
        completions arrive on the engine's thread); a raising observer
        is skipped, never allowed to break the run.
        """
        if not self.observers:
            return
        payload = {"event": event, **data}
        for observer in list(self.observers):
            try:
                observer(payload)
            except Exception:
                continue

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_outcome(self, outcome: JobOutcome) -> None:
        """Add one job outcome's telemetry row."""
        result = outcome.annotated.result
        # getattr: results cached before profiles existed lack the field.
        profile = getattr(result, "profile", None)
        record = JobRecord(
            benchmark=outcome.job.benchmark,
            scale=float(outcome.job.scale),
            key=outcome.job.key(),
            source=outcome.source,
            wall_seconds=outcome.wall_seconds,
            instructions=int(result.instructions),
            cycles=int(result.cycles),
            attempts=outcome.attempts,
            kernel_mode=profile.mode if profile else "",
            residual_impl=(
                getattr(profile, "residual_impl", "") if profile else ""
            ),
            fast_path_accesses=(
                int(profile.fast_path_accesses) if profile else 0
            ),
            slow_path_accesses=(
                int(profile.slow_path_accesses) if profile else 0
            ),
            stage_seconds=(
                {k: float(v) for k, v in profile.stage_seconds.items()}
                if profile
                else {}
            ),
        )
        with self._lock:
            self.records.append(record)

    def record_failure(self, job, error: BaseException) -> None:
        """Add one permanently-failed job."""
        entry = {
            "benchmark": job.benchmark,
            "scale": float(job.scale),
            "key": job.key(),
            "error": f"{type(error).__name__}: {error}",
        }
        with self._lock:
            self.failures.append(entry)
        self.emit("job-failed", **entry)

    def record_retry(self, entry: Dict) -> None:
        """Add one structured retry record (see ``PoolReport.retries``)."""
        with self._lock:
            self.retries.append(dict(entry))
        self.emit("job-retried", **dict(entry))

    def record_fault(self, description: str) -> None:
        """Add one injected-fault record (engine-side injections)."""
        with self._lock:
            self.faults.append(description)
        self.emit("fault-injected", description=description)

    def record_quarantine(self, job, violations, where: str) -> None:
        """Add one invalid-result quarantine (the validation gate fired)."""
        entry = {
            "benchmark": job.benchmark,
            "scale": float(job.scale),
            "key": job.key(),
            "where": where,
            "violations": [str(v) for v in violations],
        }
        with self._lock:
            self.quarantines.append(entry)
        self.emit("result-quarantined", **entry)

    def record_heartbeat(self, entry: Dict) -> None:
        """Add one watchdog event (heartbeat gap or progress stall)."""
        with self._lock:
            self.heartbeats.append(dict(entry))
        self.emit("heartbeat", **dict(entry))

    def record_breakers(self, snapshot: Dict) -> None:
        """Snapshot the supervisor's circuit breakers (idempotent)."""
        with self._lock:
            self.breakers = dict(snapshot)

    def record_service(self, profile: Dict) -> None:
        """Attach the daemon's ``ServiceProfile`` (manifest v6 section)."""
        self.service = dict(profile)

    def record_coordination(self, profile: Dict) -> None:
        """Attach the fleet's ``CoordinationProfile`` (manifest v7).

        Daemons record it on drain/shutdown: peer identity, lease
        counters (acquired/contended/reclaimed/released/fenced),
        guarded-publish outcomes, remote-coalescing totals and GC
        sweeps.  Plain CLI runs never touch it, so their manifests have
        no such section.
        """
        self.coordination = dict(profile)

    def record_fault_domains(self, profile: Dict) -> None:
        """Merge one dispatch's ``FaultDomainProfile`` (manifest v11).

        The engine records a profile per dispatch that touched the
        ladder; a run of several dispatches therefore *merges*: ladder
        descents and used rungs append in dispatch order, and the final
        rung reflects the most recent dispatch that completed work.
        """
        with self._lock:
            self.fault_domains.setdefault("ladder", []).extend(
                dict(d) for d in profile.get("ladder", [])
            )
            self.fault_domains.setdefault("rungs_used", []).extend(
                profile.get("rungs_used", [])
            )
            final = profile.get("final_rung")
            if final is not None:
                self.fault_domains["final_rung"] = final

    def record_substrate(self, profile: Dict) -> None:
        """Merge substrate facts (kernel mode, residual loop) into the manifest."""
        with self._lock:
            self.substrate.update(profile)

    def note(self, message: str) -> None:
        """Attach a free-form robustness note (pool fallbacks, evictions)."""
        with self._lock:
            self.notes.append(message)
        self.emit("note", message=message)

    def record_store(self, store) -> None:
        """Snapshot the result store's counters (idempotent, cumulative).

        The sharing split — hits served by entries an *earlier* run wrote
        vs. entries this run produced itself — is what makes shard overlap
        and warm reruns visible in the manifest and ``cache info``.
        """
        self.store_stats = {
            "hits": int(getattr(store, "hits", 0)),
            "misses": int(getattr(store, "misses", 0)),
            "evictions": int(getattr(store, "evictions", 0)),
            "write_errors": int(getattr(store, "write_errors", 0)),
            "quarantined": int(getattr(store, "quarantined", 0)),
            "corruption_events": [
                dict(e) for e in getattr(store, "corruption_events", [])
            ],
            "hits_from_earlier_runs": int(
                getattr(store, "hits_from_earlier_runs", 0)
            ),
            "hits_from_this_run": int(getattr(store, "hits_from_this_run", 0)),
        }

    def add_wall(self, seconds: float) -> None:
        """Accumulate run-level wall time (one engine.run call)."""
        with self._lock:
            self.wall_seconds += seconds

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        return len(self.records) + len(self.failures)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.records if r.source == SOURCE_CACHED)

    @property
    def simulated(self) -> int:
        return sum(1 for r in self.records if r.source != SOURCE_CACHED)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def serial_fallbacks(self) -> int:
        return sum(1 for r in self.records if r.source == "serial-fallback")

    @property
    def fallbacks(self) -> int:
        """Jobs completed by a degraded path (any ``*-fallback`` source)."""
        return sum(1 for r in self.records if r.source.endswith("-fallback"))

    @property
    def breaker_trips(self) -> int:
        """How many times a backend circuit breaker opened."""
        return int(self.breakers.get("trips", 0))

    @property
    def retried(self) -> int:
        """Jobs whose result took more than one attempt."""
        return sum(1 for r in self.records if r.attempts > 1)

    @property
    def instructions(self) -> int:
        """Instructions delivered across all jobs, cached ones included."""
        return sum(r.instructions for r in self.records)

    @property
    def simulated_instructions(self) -> int:
        return sum(r.instructions for r in self.records if r.source != SOURCE_CACHED)

    @property
    def throughput(self) -> float:
        """Simulated instructions per wall second of engine runtime."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.simulated_instructions / self.wall_seconds

    @property
    def fast_path_accesses(self) -> int:
        return sum(r.fast_path_accesses for r in self.records)

    @property
    def slow_path_accesses(self) -> int:
        return sum(r.slow_path_accesses for r in self.records)

    @property
    def fast_path_share(self) -> float:
        """Run-wide fraction of L1 accesses the kernel fast path resolved."""
        total = self.fast_path_accesses + self.slow_path_accesses
        return self.fast_path_accesses / total if total else 0.0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def manifest(self) -> Dict:
        """The full run manifest as a JSON-ready dict."""
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "engine": dict(self.context),
            "totals": {
                "jobs": self.jobs,
                "cached": self.cached,
                "simulated": self.simulated,
                "failed": self.failed,
                "serial_fallbacks": self.serial_fallbacks,
                "fallbacks": self.fallbacks,
                "retries": len(self.retries),
                "retried_jobs": self.retried,
                "faults_injected": len(self.faults),
                "quarantined_results": len(self.quarantines),
                "cache_quarantined": self.store_stats.get("quarantined", 0),
                "heartbeat_events": len(self.heartbeats),
                "breaker_trips": self.breaker_trips,
                "cache_hits_from_earlier_runs": self.store_stats.get(
                    "hits_from_earlier_runs", 0
                ),
                "cache_hits_from_this_run": self.store_stats.get(
                    "hits_from_this_run", 0
                ),
                "wall_seconds": self.wall_seconds,
                "instructions": self.instructions,
                "simulated_instructions": self.simulated_instructions,
                "instructions_per_second": self.throughput,
                "fast_path_accesses": self.fast_path_accesses,
                "slow_path_accesses": self.slow_path_accesses,
                "fast_path_share": self.fast_path_share,
            },
            "jobs": [
                {
                    "benchmark": r.benchmark,
                    "scale": r.scale,
                    "key": r.key,
                    "source": r.source,
                    "wall_seconds": r.wall_seconds,
                    "instructions": r.instructions,
                    "cycles": r.cycles,
                    "attempts": r.attempts,
                    "instructions_per_second": r.instructions_per_second,
                    "kernel_mode": r.kernel_mode,
                    "residual_impl": r.residual_impl,
                    "fast_path_accesses": r.fast_path_accesses,
                    "slow_path_accesses": r.slow_path_accesses,
                    "fast_path_share": r.fast_path_share,
                    "stage_seconds": dict(r.stage_seconds),
                }
                for r in self.records
            ],
            "failures": list(self.failures),
            "retries": [dict(r) for r in self.retries],
            "faults": list(self.faults),
            "notes": list(self.notes),
            "quarantine": [dict(q) for q in self.quarantines],
            "breakers": dict(self.breakers),
            "store": dict(self.store_stats),
            "substrate": dict(self.substrate),
        }
        # Sections of subsystems that did not run are left out (v10).
        if self.heartbeats:
            manifest["heartbeats"] = [dict(h) for h in self.heartbeats]
        if self.service:
            manifest["service"] = dict(self.service)
        if self.coordination:
            manifest["coordination"] = dict(self.coordination)
        if self.fault_domains.get("ladder"):
            manifest["fault_domains"] = dict(self.fault_domains)
        return manifest

    def write_manifest(self, path) -> str:
        """Write the manifest as indented JSON; returns the path written."""
        target = Path(path)
        if target.parent != Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return str(target)

    def summary(self) -> str:
        """Human-readable run footer."""
        if self.jobs == 0:
            return "engine: no simulation jobs (static experiments only)"
        parts = [
            f"engine: {self.jobs} job{'s' if self.jobs != 1 else ''}",
            f"({self.simulated} simulated, {self.cached} cached"
            + (f", {self.failed} failed" if self.failed else "")
            + ")",
            f"in {self.wall_seconds:.2f}s",
        ]
        if self.simulated:
            mi = self.simulated_instructions / 1e6
            parts.append(f"| {mi:.2f}M instructions at {self.throughput:,.0f} inst/s")
        if self.fast_path_accesses:
            parts.append(f"| {100.0 * self.fast_path_share:.1f}% fast-path")
        if self.fallbacks:
            parts.append(f"| {self.fallbacks} fallback(s)")
        if self.retries:
            parts.append(f"| {len(self.retries)} retr{'y' if len(self.retries) == 1 else 'ies'}")
        if self.faults:
            parts.append(f"| {len(self.faults)} fault(s) injected")
        quarantined = len(self.quarantines) + self.store_stats.get(
            "quarantined", 0
        )
        if quarantined:
            parts.append(f"| {quarantined} quarantine(s)")
        if self.breaker_trips:
            parts.append(f"| {self.breaker_trips} breaker trip(s)")
        shared = self.store_stats.get("hits_from_earlier_runs", 0)
        if shared:
            parts.append(f"| {shared} hit(s) shared from earlier runs")
        cache_dir = self.context.get("cache_dir")
        if cache_dir:
            parts.append(f"| cache: {cache_dir}")
        return " ".join(parts)
