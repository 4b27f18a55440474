"""Deterministic fault injection for the execution engine.

Every degradation path in :mod:`~repro.engine.robustness` and
:mod:`~repro.engine.store` exists to survive rare events — worker
deaths, hung jobs, bit rot — that never occur in a normal test run.
This module makes those events *schedulable*, so each path is exercised
on purpose rather than by luck.  Faults are **never active by default**:
they are switched on only by the ``REPRO_FAULTS`` environment variable
or an explicit :class:`FaultPlan` handed to the engine, and injection is
a pure function of (job, attempt number), so a faulted run is exactly
reproducible.

``REPRO_FAULTS`` grammar — a comma-separated list of specs::

    spec    := kind ":" target [":" option "=" value]...
    kind    := crash | timeout | raise | hang | flap | garbage
             | corrupt | partial
    target  := benchmark["@"scale]      ("*" wildcards either part)
    option  := attempt=N|*   (worker/result faults: which attempt fires,
                              default 1; flap defaults to every attempt)
             | seconds=X     (crash/timeout/hang: sleep before acting,
                              default 5 for timeout/hang, 0 for crash)
             | times=N       (store faults: how many injections, default 1)

Examples: ``raise:gzip@*:attempt=1`` (gzip's first attempt raises, the
retry succeeds), ``crash:ammp@0.02:seconds=1`` (the worker running ammp
dies after 1 s), ``timeout:*:attempt=1:seconds=2`` (every job's first
attempt stalls 2 s), ``corrupt:gzip@*`` (gzip's cache entry is corrupted
right after it is written), ``partial:*:times=2`` (two entries are
truncated as if a non-atomic writer crashed mid-write).

Fault kinds and the degradation path each one exercises:

* ``crash``   — the worker process exits hard (``os._exit``), breaking
  the pool: exercises ``BrokenProcessPool`` handling and the
  harvest-then-finish-serially path.
* ``timeout`` — the worker sleeps ``seconds`` before simulating:
  exercises per-job timeout detection, requeueing, and zombie-slot
  accounting.
* ``raise``   — the attempt raises :class:`InjectedFault`: exercises
  per-job retry with backoff (pool and serial paths).
* ``hang``    — the worker goes silent: its heartbeat stops and it
  stalls ``seconds`` before continuing.  Exercises the supervisor's
  heartbeat watchdog (subprocess backend: the worker is killed and the
  job requeued) and the pool's progress watchdog.
* ``flap``    — the worker process exits hard on *every* matching
  attempt (unless ``attempt=N`` narrows it): exercises the per-backend
  circuit breaker, which must eventually stop handing work to a backend
  whose workers keep dying.
* ``garbage`` — the worker completes but returns a mangled result
  (negative cycle counts): exercises the invariant-validation gate,
  which must quarantine the result instead of caching it.
* ``corrupt`` — the just-written cache entry's payload bytes are
  flipped: exercises checksum validation and quarantine-on-corruption.
* ``partial`` — the just-written cache entry is truncated: exercises
  the torn-write path (header or checksum no longer parse).

``crash``, ``timeout``, ``hang`` and ``flap`` only make sense inside a
worker process; on the serial in-process path only ``raise`` faults are
injected (a serial crash would take the whole run down, which is the one
thing the engine promises never to do deliberately) plus ``garbage``
result mangling, which the validation gate turns into a retryable
failure.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import EngineError

#: Environment variable carrying the fault plan (inherited by workers).
ENV_FAULTS = "REPRO_FAULTS"

#: Exit status used by injected worker crashes (recognisable in logs).
CRASH_EXIT_CODE = 87

#: Exit status used by injected worker flapping (distinct from crashes).
FLAP_EXIT_CODE = 86

WORKER_KINDS = ("crash", "timeout", "raise", "hang", "flap")
RESULT_KINDS = ("garbage",)
STORE_KINDS = ("corrupt", "partial")
KINDS = WORKER_KINDS + RESULT_KINDS + STORE_KINDS

#: Kinds whose pre-action sleep defaults to :data:`DEFAULT_FAULT_SECONDS`.
_SLEEPY_KINDS = ("timeout", "hang")

#: Default sleep for ``timeout``/``hang`` faults, seconds.
DEFAULT_FAULT_SECONDS = 5.0


class InjectedFault(Exception):
    """A deliberately injected transient job failure.

    Not a :class:`~repro.errors.ReproError`: to the engine it must look
    exactly like an unexpected worker exception, so injected faults flow
    through the same retry/fallback machinery as real ones.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what kind, which jobs, which attempt."""

    kind: str
    benchmark: str = "*"
    scale: str = "*"
    attempt: Optional[int] = 1  #: ``None`` = every attempt (``attempt=*``).
    seconds: Optional[float] = None  #: default: 5 for timeout, 0 for crash.
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        if self.attempt is not None and self.attempt < 1:
            raise EngineError(
                f"fault attempt must be at least 1, got {self.attempt!r}"
            )
        if self.seconds is not None and self.seconds < 0:
            raise EngineError(
                f"fault seconds must be non-negative, got {self.seconds!r}"
            )
        if self.times < 1:
            raise EngineError(
                f"fault times must be at least 1, got {self.times!r}"
            )

    @property
    def sleep_seconds(self) -> float:
        """The pre-action sleep: explicit, else 5 s for timeout, 0 otherwise."""
        if self.seconds is not None:
            return self.seconds
        return DEFAULT_FAULT_SECONDS if self.kind in _SLEEPY_KINDS else 0.0

    def matches_job(self, job) -> bool:
        """Whether this spec targets ``job`` (ignoring the attempt)."""
        if self.benchmark != "*" and self.benchmark != job.benchmark:
            return False
        if self.scale != "*" and float(self.scale) != float(job.scale):
            return False
        return True

    def matches(self, job, attempt: int) -> bool:
        """Whether this spec fires for ``job`` on attempt ``attempt``."""
        if not self.matches_job(job):
            return False
        return self.attempt is None or self.attempt == attempt

    def describe(self) -> str:
        """Canonical spec string (round-trips through the parser)."""
        target = f"{self.benchmark}@{self.scale}" if self.scale != "*" else self.benchmark
        parts = [f"{self.kind}:{target}"]
        if self.kind in WORKER_KINDS + RESULT_KINDS:
            parts.append(f"attempt={'*' if self.attempt is None else self.attempt}")
            if self.kind in ("crash", "timeout", "hang", "flap"):
                parts.append(f"seconds={self.sleep_seconds:g}")
        else:
            parts.append(f"times={self.times}")
        return ":".join(parts)


def _parse_spec(text: str) -> FaultSpec:
    fields = [f.strip() for f in text.split(":")]
    if len(fields) < 2 or not fields[0] or not fields[1]:
        raise EngineError(
            f"fault spec {text!r} must look like 'kind:target[:option=value...]'"
        )
    kind, target = fields[0], fields[1]
    benchmark, _, scale = target.partition("@")
    kwargs: Dict[str, object] = {
        "kind": kind,
        "benchmark": benchmark or "*",
        "scale": scale or "*",
    }
    if scale not in ("", "*"):
        try:
            float(scale)
        except ValueError:
            raise EngineError(
                f"fault spec {text!r}: scale must be a number or '*', got {scale!r}"
            ) from None
    for option in fields[2:]:
        key, sep, value = option.partition("=")
        if not sep or not value:
            raise EngineError(
                f"fault spec {text!r}: option {option!r} must be 'key=value'"
            )
        try:
            if key == "attempt":
                kwargs["attempt"] = None if value == "*" else int(value)
            elif key == "seconds":
                kwargs["seconds"] = float(value)
            elif key == "times":
                kwargs["times"] = int(value)
            else:
                raise EngineError(
                    f"fault spec {text!r}: unknown option {key!r} "
                    "(expected attempt, seconds or times)"
                )
        except ValueError:
            raise EngineError(
                f"fault spec {text!r}: bad value {value!r} for {key!r}"
            ) from None
    if kind in STORE_KINDS and "attempt" in kwargs:
        raise EngineError(
            f"fault spec {text!r}: 'attempt' only applies to worker faults"
        )
    if kind not in STORE_KINDS and "times" in kwargs:
        raise EngineError(
            f"fault spec {text!r}: 'times' only applies to store faults"
        )
    if kind == "flap":
        # Flapping means dying over and over: default to every attempt.
        kwargs.setdefault("attempt", None)
    return FaultSpec(**kwargs)


def parse_fault_plan(text: str) -> "FaultPlan":
    """Parse a ``REPRO_FAULTS`` string into a :class:`FaultPlan`."""
    specs = [
        _parse_spec(chunk)
        for chunk in (c.strip() for c in text.split(","))
        if chunk
    ]
    if not specs:
        raise EngineError(f"fault plan {text!r} contains no specs")
    return FaultPlan(specs)


class FaultPlan:
    """A schedule of deterministic faults plus a log of what fired.

    Worker-side kinds (``crash``/``timeout``/``raise``) fire inside
    worker processes, which re-read ``REPRO_FAULTS`` from their
    inherited environment; store-side kinds (``corrupt``/``partial``)
    fire in the engine process right after a cache write and are counted
    here so ``times=N`` is exact.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = tuple(specs)
        self._store_fired: Dict[int, int] = {}
        #: Injection log (engine-process side), for telemetry.
        self.fired: List[str] = []

    def describe(self) -> str:
        """Canonical plan string for the run manifest."""
        return ",".join(spec.describe() for spec in self.specs)

    # ------------------------------------------------------------------
    # Worker-side injection
    # ------------------------------------------------------------------
    def inject_worker(self, job, attempt: int) -> None:
        """Apply worker faults for this (job, attempt); may not return."""
        for spec in self.specs:
            if spec.kind not in WORKER_KINDS or not spec.matches(job, attempt):
                continue
            if spec.kind in ("timeout", "hang"):
                time.sleep(spec.sleep_seconds)
            elif spec.kind == "crash":
                if spec.sleep_seconds:
                    time.sleep(spec.sleep_seconds)
                os._exit(CRASH_EXIT_CODE)
            elif spec.kind == "flap":
                if spec.sleep_seconds:
                    time.sleep(spec.sleep_seconds)
                os._exit(FLAP_EXIT_CODE)
            else:  # raise
                raise InjectedFault(
                    f"injected fault for {job.describe()} on attempt {attempt}"
                )

    def matches_hang(self, job, attempt: int) -> bool:
        """Whether a ``hang`` fault fires for this (job, attempt).

        The subprocess worker checks this *before* :meth:`inject_worker`
        so it can silence its heartbeat thread first — a truly hung
        worker stops beating, which is exactly what the watchdog detects.
        """
        return any(
            spec.kind == "hang" and spec.matches(job, attempt)
            for spec in self.specs
        )

    def mangle_result(self, job, attempt: int, annotated):
        """Apply ``garbage`` faults: poison an otherwise-complete result.

        The mangled result violates the model's invariants (negative
        cycle counts, intervals longer than the run) so the validation
        gate must reject it; everything else about the payload stays
        intact, proving the gate — not luck — caught it.
        """
        for spec in self.specs:
            if spec.kind == "garbage" and spec.matches(job, attempt):
                from dataclasses import replace

                poisoned = replace(
                    annotated.result, cycles=-1, stall_cycles=-1
                )
                return replace(annotated, result=poisoned)
        return annotated

    def inject_serial(self, job, attempt: int) -> None:
        """Apply ``raise`` faults on the in-process serial path."""
        for spec in self.specs:
            if spec.kind == "raise" and spec.matches(job, attempt):
                raise InjectedFault(
                    f"injected fault for {job.describe()} on attempt {attempt}"
                )

    # ------------------------------------------------------------------
    # Store-side injection
    # ------------------------------------------------------------------
    def take_store_faults(self, job) -> List[FaultSpec]:
        """Store faults due for ``job``, consuming their ``times`` budget."""
        due = []
        for index, spec in enumerate(self.specs):
            if spec.kind not in STORE_KINDS or not spec.matches_job(job):
                continue
            if self._store_fired.get(index, 0) >= spec.times:
                continue
            self._store_fired[index] = self._store_fired.get(index, 0) + 1
            due.append(spec)
        return due


def apply_store_fault(store, key: str, spec: FaultSpec) -> Optional[str]:
    """Damage one just-written cache entry; returns a description or None.

    ``corrupt`` flips the tail of the payload so the checksum no longer
    matches; ``partial`` truncates the file as a crashed non-atomic
    writer would.  Stores without real files (``NullStore``) are left
    alone.
    """
    path_for = getattr(store, "path_for", None)
    if path_for is None:
        return None
    path = path_for(key)
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    try:
        if spec.kind == "corrupt":
            head, sep, payload = raw.partition(b"\n")
            if payload:
                flip = min(8, len(payload))
                mutated = payload[:-flip] + bytes(
                    b ^ 0xFF for b in payload[-flip:]
                )
            else:
                mutated = b"garbage"
            path.write_bytes(head + sep + mutated)
            return f"injected corruption into cache entry {key[:12]}"
        if spec.kind == "partial":
            path.write_bytes(raw[: max(1, len(raw) // 3)])
            return f"injected partial write for cache entry {key[:12]}"
    except OSError:
        return None
    return None


def active_plan(env: Optional[dict] = None) -> Optional[FaultPlan]:
    """The plan from ``REPRO_FAULTS``, or ``None`` when faults are off."""
    raw = (env if env is not None else os.environ).get(ENV_FAULTS)
    if not raw:
        return None
    return parse_fault_plan(raw)
