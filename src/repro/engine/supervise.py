"""Supervised dispatch: circuit breakers and graceful backend degradation.

The :class:`Supervisor` owns the engine's backend chain (typically
``pool -> subprocess``, with the in-process serial executor as the
terminal stage in :mod:`~repro.engine.parallel`) and decides, per
dispatch, where pending jobs run:

* each backend reports *infrastructure* failures (a worker died, the
  pool broke, heartbeats went silent) separately from per-job failures;
  jobs stranded by infrastructure move to the next backend with their
  attempt budget intact, so a run always completes somewhere;
* each backend has a :class:`CircuitBreaker`: ``closed`` until
  ``REPRO_BREAKER_THRESHOLD`` consecutive infrastructure failures, then
  ``open`` — dispatches skip it outright — until
  ``REPRO_BREAKER_COOLDOWN`` seconds pass, then ``half-open``: one probe
  dispatch either closes it again or re-opens it.  Breakers persist
  across ``engine.run`` calls, so a long suite stops feeding a flapping
  pool instead of timing out on it once per experiment;
* attempt numbers continue *across* backends (a job that crashed the
  pool on attempt 1 reaches the subprocess backend on attempt 2), which
  keeps deterministic fault schedules — and therefore results — stable
  whatever the degradation path;
* jobs whose retries are exhausted skip the remaining backends: the
  terminal serial path gives them one last in-process attempt so a
  genuine error surfaces with a clean traceback.

Every breaker transition is recorded and lands in the run manifest
(v5's ``breakers`` section) together with per-backend states, so a
degraded run explains itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .retry import RetryPolicy, _env_float, _env_int

#: Environment variable: consecutive infra failures that open a breaker.
ENV_BREAKER_THRESHOLD = "REPRO_BREAKER_THRESHOLD"

#: Environment variable: seconds an open breaker waits before a probe.
ENV_BREAKER_COOLDOWN = "REPRO_BREAKER_COOLDOWN"

#: Default failure threshold (closed -> open).
DEFAULT_BREAKER_THRESHOLD = 3

#: Default cooldown before a half-open probe, seconds.
DEFAULT_BREAKER_COOLDOWN = 30.0


def default_breaker_threshold() -> int:
    """Breaker threshold from ``REPRO_BREAKER_THRESHOLD`` (default 3)."""
    value = _env_int(ENV_BREAKER_THRESHOLD, minimum=1)
    return DEFAULT_BREAKER_THRESHOLD if value is None else value


def default_breaker_cooldown() -> float:
    """Breaker cooldown from ``REPRO_BREAKER_COOLDOWN`` (default 30 s)."""
    value = _env_float(ENV_BREAKER_COOLDOWN, minimum=0.0)
    return DEFAULT_BREAKER_COOLDOWN if value is None else value


#: Cap on the half-open backoff exponent: a breaker that keeps failing
#: its probes waits at most ``cooldown * 2**_MAX_REOPEN_SHIFT``.
_MAX_REOPEN_SHIFT = 6


class CircuitBreaker:
    """Closed -> open -> half-open failure gate for one backend.

    ``clock`` defaults to wall time; tests substitute a fake clock.

    A single successful half-open probe closes the breaker and resets
    the backoff schedule.  A *failed* probe re-opens it with the next
    backoff step — ``cooldown * 2**reopens``, capped — instead of
    restarting the schedule from the base cooldown, so a persistently
    sick backend is probed geometrically less often.
    """

    def __init__(
        self,
        name: str,
        threshold: int,
        cooldown: float,
        transitions: Optional[List[Dict]] = None,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        #: How many times a failed probe re-opened the breaker since it
        #: last closed; drives the escalating half-open backoff.
        self.reopens = 0
        self._opened_at: Optional[float] = None
        #: Shared transition log (the supervisor passes its own).
        self.transitions = transitions if transitions is not None else []

    def current_cooldown(self) -> float:
        """The wait before the next half-open probe (escalates on failure)."""
        return self.cooldown * (2 ** min(self.reopens, _MAX_REOPEN_SHIFT))

    def _move(self, state: str, reason: str) -> None:
        self.transitions.append(
            {
                "backend": self.name,
                "from": self.state,
                "to": state,
                "reason": reason,
                "consecutive_failures": self.consecutive_failures,
            }
        )
        self.state = state

    def allow(self) -> bool:
        """Whether the next dispatch may use this backend."""
        if self.state == "open":
            if (
                self._opened_at is not None
                and self.clock() - self._opened_at >= self.current_cooldown()
            ):
                self._move("half-open", "cooldown elapsed; probing")
                return True
            return False
        return True  # closed, or half-open with the probe in flight

    def record(self, infra_failures: Sequence[str]) -> None:
        """Feed one dispatch's infrastructure failures back in."""
        if infra_failures:
            self.consecutive_failures += len(infra_failures)
            if self.state == "half-open":
                self.reopens += 1
                self._opened_at = self.clock()
                self._move(
                    "open",
                    f"probe failed ({infra_failures[0]}); next probe in "
                    f"{self.current_cooldown():g}",
                )
            elif (
                self.state == "closed"
                and self.consecutive_failures >= self.threshold
            ):
                self._opened_at = self.clock()
                self._move(
                    "open",
                    f"{self.consecutive_failures} consecutive "
                    f"infrastructure failure(s), last: {infra_failures[-1]}",
                )
        else:
            self.consecutive_failures = 0
            self.reopens = 0
            if self.state != "closed":
                self._move("closed", "dispatch completed cleanly")


@dataclass(frozen=True)
class Completion:
    """One job completed by a supervised backend."""

    annotated: object
    wall_seconds: float
    attempts: int
    source: str


@dataclass
class SupervisionOutcome:
    """Everything one :meth:`Supervisor.dispatch` call produced.

    ``leftovers`` are ``(job, attempts_consumed)`` pairs for the
    caller's terminal serial path; ``engaged`` says whether any chain
    backend was tried (or breaker-skipped), i.e. whether serial work is
    a *fallback* rather than the plan.
    """

    completed: Dict[object, Completion] = field(default_factory=dict)
    leftovers: List[Tuple[object, int]] = field(default_factory=list)
    engaged: bool = False
    notes: List[str] = field(default_factory=list)
    retries: List[Dict] = field(default_factory=list)
    heartbeats: List[Dict] = field(default_factory=list)
    #: Degradation-ladder descents this dispatch took, in order: each is
    #: ``{"from", "to", "jobs", "reason"}`` (manifest v9 material).
    descents: List[Dict] = field(default_factory=list)
    #: Rungs that actually completed at least one job, dispatch order.
    rungs_used: List[str] = field(default_factory=list)


class Supervisor:
    """Routes pending jobs down the backend chain, breakers permitting."""

    def __init__(
        self,
        chain: Sequence[object],
        policy: RetryPolicy,
        threshold: Optional[int] = None,
        cooldown: Optional[float] = None,
    ) -> None:
        self.chain = list(chain)
        self.policy = policy
        self.transitions: List[Dict] = []
        threshold = (
            threshold if threshold is not None else default_breaker_threshold()
        )
        cooldown = (
            cooldown if cooldown is not None else default_breaker_cooldown()
        )
        self.breakers = {
            backend.name: CircuitBreaker(
                backend.name, threshold, cooldown, self.transitions
            )
            for backend in self.chain
        }

    def describe_chain(self) -> List[str]:
        """Backend names in dispatch order (for the run manifest)."""
        return [backend.name for backend in self.chain]

    def snapshot(self) -> Dict:
        """Breaker states + transition log, JSON-ready for telemetry."""
        return {
            "states": {
                name: breaker.state for name, breaker in self.breakers.items()
            },
            "transitions": [dict(t) for t in self.transitions],
            "trips": sum(
                1 for t in self.transitions if t["to"] == "open"
            ),
        }

    def dispatch(self, jobs: Sequence[object]) -> SupervisionOutcome:
        """Run pending jobs through the chain; leftovers go serial."""
        out = SupervisionOutcome()
        remaining: Dict[object, int] = {job: 0 for job in jobs}
        exhausted: Dict[object, int] = {}

        def next_rung(index: int) -> str:
            return (
                self.chain[index + 1].name
                if index + 1 < len(self.chain)
                else "serial"
            )

        for index, backend in enumerate(self.chain):
            if not remaining:
                break
            if index == 0 and not backend.worth_starting(len(remaining)):
                break  # parallelism not worth it: plain serial, no fallback
            primary = index == 0 and not out.engaged
            breaker = self.breakers[backend.name]
            if not breaker.allow():
                out.notes.append(
                    f"{backend.name} backend circuit breaker is open "
                    f"(after {breaker.consecutive_failures} infrastructure "
                    "failure(s)); skipping it"
                )
                out.engaged = True
                out.descents.append(
                    {
                        "from": backend.name,
                        "to": next_rung(index),
                        "jobs": len(remaining),
                        "reason": "circuit breaker open",
                    }
                )
                continue
            report = backend.run(
                list(remaining), dict(remaining), self.policy
            )
            out.notes.extend(report.notes)
            out.retries.extend(report.retries)
            out.heartbeats.extend(report.heartbeats)
            breaker.record(report.infra_failures)
            if report.completed:
                out.rungs_used.append(backend.name)
            for job, (annotated, wall) in report.completed.items():
                source = backend.source if primary else backend.fallback_source
                out.completed[job] = Completion(
                    annotated=annotated,
                    wall_seconds=wall,
                    attempts=report.attempts.get(
                        job, remaining.get(job, 0) + 1
                    ),
                    source=source,
                )
                remaining.pop(job, None)
            for job in report.exhausted:
                if job in remaining:
                    exhausted[job] = report.attempts.get(job, remaining[job])
                    remaining.pop(job)
            for job in remaining:
                remaining[job] = report.attempts.get(job, remaining[job])
            if remaining or report.exhausted:
                out.engaged = True  # the backend stranded work: degrade
                stranded = len(remaining) + len(report.exhausted)
                reason = (
                    report.infra_failures[-1]
                    if report.infra_failures
                    else "jobs left unfinished"
                )
                out.descents.append(
                    {
                        "from": backend.name,
                        "to": next_rung(index),
                        "jobs": stranded,
                        "reason": reason,
                    }
                )
        for job in jobs:
            if job not in out.completed:
                out.leftovers.append(
                    (job, exhausted.get(job, remaining.get(job, 0)))
                )
        if out.leftovers:
            out.rungs_used.append("serial")
        return out


#: Breaker states ordered by severity, for cross-slot merging.
_STATE_RANK = {"closed": 0, "half-open": 1, "open": 2}


def merge_breaker_snapshots(snapshots: Sequence[Dict]) -> Dict:
    """Combine per-slot :meth:`Supervisor.snapshot` dicts into one view.

    A fleet of engine slots (one supervisor each — supervisors are not
    thread-safe, so concurrent slots cannot share one) still wants a
    single ``breakers`` section in the manifest.  States merge to the
    *most degraded* state any slot observed per backend, transitions
    concatenate in slot order, and trips sum.
    """
    states: Dict[str, str] = {}
    transitions: List[Dict] = []
    trips = 0
    for snapshot in snapshots:
        for name, state in snapshot.get("states", {}).items():
            current = states.get(name)
            if current is None or (
                _STATE_RANK.get(state, 0) > _STATE_RANK.get(current, 0)
            ):
                states[name] = state
        transitions.extend(dict(t) for t in snapshot.get("transitions", []))
        trips += int(snapshot.get("trips", 0))
    return {"states": states, "transitions": transitions, "trips": trips}
