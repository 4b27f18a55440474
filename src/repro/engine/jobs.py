"""Deterministic simulation jobs: the engine's unit of work.

A :class:`SimulationJob` names one (benchmark, scale, pipeline) point of
the experiment space.  Jobs are frozen, hashable and picklable, so they
can be fanned out to worker processes, deduplicated, and used as cache
keys.  :func:`execute_job` is the *only* way the engine simulates — it is
a pure function of the job parameters (workload generators are seeded),
which is what makes parallel execution bit-identical to serial execution
and on-disk caching sound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from ..cpu.pipeline import PipelineConfig
from ..errors import EngineError, ReproError
from ..prefetch.analysis import AnnotatedSimulationResult, AnnotatingSimulator
from ..workloads.benchmarks import BENCHMARK_NAMES, make_benchmark

#: Version of the pickled result payload *and* of the simulation
#: substrate's observable behaviour.  Bump it whenever a change to the
#: simulator, workload generators or annotation logic alters results:
#: every existing cache entry is then version-mismatched, evicted on
#: first read, and transparently recomputed.
#:
#: Version 2: the batched simulation kernel (fixed-point issue clock,
#: ``SimulationResult.profile``) — results carry new fields and the
#: clock's CPI quantization is at the 2**-20 level.
SCHEMA_VERSION = 2

#: ``JobOutcome.source`` values.
SOURCE_CACHED = "cached"
SOURCE_PARALLEL = "parallel"
SOURCE_SERIAL = "serial"
SOURCE_FALLBACK = "serial-fallback"
SOURCE_SUBPROCESS = "subprocess"
SOURCE_SUBPROCESS_FALLBACK = "subprocess-fallback"


@dataclass(frozen=True)
class SimulationJob:
    """One workload simulation point: workload ref x scale x pipeline config.

    ``benchmark`` is any ref the workload registry
    (:mod:`repro.traces.registry`) resolves: a synthetic benchmark name
    (``"gzip"``) or a recorded trace ref (``"trace:/path/file.rtr"``,
    optionally with a ``#window:window_instructions`` suffix).  Recorded
    traces run at scale 1.0 — they carry their own length.
    """

    benchmark: str
    scale: float = 1.0
    pipeline: Optional[PipelineConfig] = None

    def __post_init__(self) -> None:
        if self.benchmark not in BENCHMARK_NAMES:
            # Not a paper-suite benchmark: anything else must resolve
            # through the workload registry (registered synthetics and
            # trace refs).  Imported lazily: repro.traces sits above the
            # engine in the layering, so a module-level import would cycle.
            from ..traces.registry import DEFAULT_REGISTRY, is_trace_ref

            try:
                DEFAULT_REGISTRY.validate(self.benchmark)
            except ReproError as error:
                raise EngineError(str(error)) from None
            if is_trace_ref(self.benchmark) and float(self.scale) != 1.0:
                raise EngineError(
                    f"{self.benchmark!r}: a recorded trace carries its own "
                    f"scale; submit trace refs at scale 1.0 (got {self.scale!r})"
                )
        if not self.scale > 0:
            raise EngineError(f"scale must be positive, got {self.scale!r}")

    def fingerprint(self) -> Dict:
        """Canonical, JSON-stable parameter record this job is keyed by.

        For registry-resolved workloads the identity comes from the
        registry: a trace recorded from a synthetic benchmark fingerprints
        *identically* to the synthetic original (same content address →
        same cache entry, same coalescing), and a foreign trace is keyed
        by its chunking/codec-independent content digest.
        """
        if self.benchmark in BENCHMARK_NAMES:
            identity: Dict = {
                "benchmark": self.benchmark,
                "scale": repr(float(self.scale)),
            }
        else:
            from ..traces.registry import resolve_workload

            try:
                identity = resolve_workload(self.benchmark).identity(self.scale)
            except ReproError as error:
                raise EngineError(str(error)) from None
        identity["pipeline"] = None if self.pipeline is None else asdict(self.pipeline)
        return identity

    def key(self) -> str:
        """Content address: SHA-256 over the canonical parameters.

        The payload schema version is deliberately *not* part of the key;
        it lives in the cache entry's header so a version bump is detected
        as a mismatch and evicts the stale entry (see ``store.py``).
        """
        canonical = json.dumps(self.fingerprint(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def canonical_workload(self) -> tuple:
        """``(benchmark, scale)`` as the content address sees them.

        A trace recorded from a paper-suite benchmark resolves to the
        *synthetic* name and scale it was recorded at, so every document
        derived from it (service result payloads, reports) serializes
        byte-identically to the inline synthetic run sharing its key.
        Foreign traces and window refs keep the job's own fields.
        """
        identity = self.fingerprint()
        if set(identity) == {"benchmark", "scale", "pipeline"}:
            return identity["benchmark"], float(identity["scale"])
        return self.benchmark, float(self.scale)

    def describe(self) -> str:
        """Short human-readable label for logs and telemetry."""
        if self.benchmark in BENCHMARK_NAMES:
            return f"{self.benchmark}@{self.scale:g}"
        from ..traces.registry import DEFAULT_REGISTRY

        try:
            label = DEFAULT_REGISTRY.resolve(self.benchmark).describe()
            return f"{label}@{self.scale:g}"
        except ReproError:
            return f"{self.benchmark}@{self.scale:g}"


@dataclass(frozen=True)
class JobOutcome:
    """One job's result plus how, how fast, and in how many tries."""

    job: SimulationJob
    annotated: AnnotatedSimulationResult
    source: str
    wall_seconds: float
    attempts: int = 1  #: Total execution attempts (1 = no retries needed).

    @property
    def simulated(self) -> bool:
        """Whether this outcome ran a simulation (vs. a cache hit)."""
        return self.source != SOURCE_CACHED

    @property
    def retried(self) -> bool:
        """Whether obtaining this result took more than one attempt."""
        return self.attempts > 1


def execute_job(job: SimulationJob) -> AnnotatedSimulationResult:
    """Simulate one job; deterministic in the job parameters.

    Recorded traces are *streamed*: the registry hands back a chunk
    iterator backed by the on-disk reader, so peak memory stays bounded
    by the chunk size however large the trace file is.  The reader runs
    in whichever process simulates the job.
    """
    if job.benchmark in BENCHMARK_NAMES:
        chunks = make_benchmark(job.benchmark, scale=job.scale).chunks()
    else:
        from ..traces.registry import resolve_workload

        chunks = resolve_workload(job.benchmark).chunks(job.scale)
    simulator = AnnotatingSimulator(pipeline=job.pipeline)
    return simulator.run(chunks)
