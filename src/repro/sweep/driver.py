"""High-level sweep operations behind ``repro-leakage sweep ...``.

Four verbs, each callable from the CLI or directly from Python:

* :func:`plan_text` — expand the grid, show what each shard would run.
* :func:`run_shard` — run one shard's jobs through the engine, journaled
  in the shared sweep directory (re-running resumes and is a ~100% cache
  hit).
* :func:`status_text` — global progress across every shard journal.
* :func:`merge` — aggregate all per-point results into the sweep report
  and write the merged sweep manifest.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..engine import (
    ExecutionEngine,
    ResultStore,
    RunTelemetry,
    iter_run_manifests,
)
from .aggregate import SweepResults, collect, render_report
from .coordinate import SweepCoordinator
from .grid import expand
from .shard import ShardAssignment, shard_of, shard_points
from .spec import SweepSpec

#: Grids at or below this size are listed point by point in ``plan``.
_PLAN_LISTING_LIMIT = 32

#: Shard-manifest totals summed into the merged manifest (counts only —
#: wall times vary run to run and would break merge idempotence).
_COUNT_TOTALS = (
    "jobs",
    "cached",
    "simulated",
    "failed",
    "serial_fallbacks",
    "fallbacks",
    "retries",
    "retried_jobs",
    "faults_injected",
    "quarantined_results",
    "cache_quarantined",
    "heartbeat_events",
    "breaker_trips",
    "cache_hits_from_earlier_runs",
    "cache_hits_from_this_run",
)


def _store_for(cache_dir: Optional[os.PathLike]) -> Optional[ResultStore]:
    return None if cache_dir is None else ResultStore(cache_dir)


def plan_text(spec: SweepSpec, shard_count: int = 1) -> str:
    """Human summary of the grid and its shard split (no execution)."""
    points = expand(spec)
    lines = [spec.describe()]
    lines.append(f"spec fingerprint: {spec.fingerprint()}")
    if shard_count > 1:
        counts = [0] * shard_count
        for point in points:
            counts[shard_of(point.key(), shard_count)] += 1
        for index, count in enumerate(counts):
            lines.append(
                f"  {ShardAssignment(index, shard_count).describe()}: "
                f"{count} job(s)"
            )
    if len(points) <= _PLAN_LISTING_LIMIT:
        lines.append("jobs:")
        for point in points:
            owner = (
                f" -> shard {shard_of(point.key(), shard_count)}"
                if shard_count > 1
                else ""
            )
            lines.append(f"  {point.describe()}{owner}")
    else:
        lines.append(f"({len(points)} jobs; listing suppressed)")
    return "\n".join(lines)


@dataclass
class ShardRun:
    """What one ``sweep run`` invocation did."""

    spec: SweepSpec
    assignment: ShardAssignment
    jobs_run: int
    telemetry: RunTelemetry
    journal_path: str
    resumed: bool


def run_shard(
    spec: SweepSpec,
    assignment: Optional[ShardAssignment] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    backend: Optional[str] = None,
) -> ShardRun:
    """Run one shard of the sweep through the execution engine.

    The shard's journal lives in the shared sweep directory; if it
    already exists the run *resumes* — journaled jobs with intact cache
    entries are skipped, so re-running a finished shard performs zero
    simulations.
    """
    assignment = assignment if assignment is not None else ShardAssignment()
    coordinator = SweepCoordinator(spec, cache_dir)
    coordinator.ensure_spec()
    journal = coordinator.shard_journal(assignment)
    resumed = journal.exists()
    engine = ExecutionEngine(
        jobs=jobs,
        store=_store_for(cache_dir),
        journal=journal,
        resume=resumed,
        backend=backend,
    )
    engine.telemetry.context.update(
        {
            "sweep": spec.name,
            "sweep_fingerprint": spec.fingerprint(),
            "shard": assignment.run_id,
        }
    )
    mine = shard_points(expand(spec), assignment)
    if mine:
        engine.run([point.job for point in mine])
    journal.write_manifest(engine.telemetry.manifest())
    return ShardRun(
        spec=spec,
        assignment=assignment,
        jobs_run=len(mine),
        telemetry=engine.telemetry,
        journal_path=journal.describe(),
        resumed=resumed,
    )


def status_text(
    spec: SweepSpec, cache_dir: Optional[os.PathLike] = None
) -> str:
    """Render global sweep progress from the shared journals."""
    coordinator = SweepCoordinator(spec, cache_dir)
    coordinator.ensure_spec()
    status = coordinator.status()
    lines = [
        f"sweep {status['sweep']} under {status['directory']}",
        f"grid: {status['grid_jobs']} job(s), "
        f"{status['completed']} completed across "
        f"{len(status['shards'])} shard journal(s)",
    ]
    for shard in status["shards"]:
        owned = shard["owned"]
        quota = f"/{owned}" if owned is not None else ""
        manifest = ", manifest written" if shard["manifest"] else ""
        lines.append(
            f"  {shard['name']}: {shard['journaled']}{quota} job(s) "
            f"journaled{manifest}"
        )
    missing = status["missing"]
    if missing:
        lines.append(f"missing ({len(missing)}):")
        lines.extend(f"  {entry}" for entry in missing[:10])
        if len(missing) > 10:
            lines.append(f"  ... and {len(missing) - 10} more")
    else:
        lines.append("complete: every grid job is journaled")
    return "\n".join(lines)


@dataclass
class MergeOutcome:
    """What ``sweep merge`` produced."""

    spec: SweepSpec
    results: SweepResults
    report: str
    manifest: Dict
    manifest_path: Optional[str]
    telemetry: RunTelemetry


def merge(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    cache_dir: Optional[os.PathLike] = None,
    backend: Optional[str] = None,
    engine: Optional[ExecutionEngine] = None,
) -> MergeOutcome:
    """Aggregate every shard's results into the sweep report + manifest.

    Results come from the content-addressed cache; a point no shard ran
    (or whose entry rotted) is recomputed transparently, so the merged
    report is byte-identical to an unsharded single-host run — and
    merging twice is idempotent.

    Passing ``engine`` reuses a caller-owned engine instead of building
    one — the sweep-over-service path: the daemon finalizes a sweep
    ticket through its single shared engine (every point is a cache hit
    by then), so serving-layer merges coalesce with everything else the
    daemon knows.
    """
    coordinator = SweepCoordinator(spec, cache_dir)
    coordinator.ensure_spec()
    if engine is None:
        engine = ExecutionEngine(
            jobs=jobs,
            store=_store_for(cache_dir),
            backend=backend,
        )
    results = collect(spec, engine=engine)
    report = render_report(results)
    status = coordinator.status()
    manifest = {
        "sweep": spec.name,
        "spec": spec.to_dict(),
        "spec_fingerprint": spec.fingerprint(),
        "grid_jobs": status["grid_jobs"],
        "journaled_jobs": status["completed"],
        "shards": status["shards"],
        "shard_totals": _sum_shard_totals(coordinator),
        "merge_totals": {
            "jobs": engine.telemetry.jobs,
            "cached": engine.telemetry.cached,
            "simulated": engine.telemetry.simulated,
            "cache_hits_from_earlier_runs": engine.telemetry.store_stats.get(
                "hits_from_earlier_runs", 0
            ),
            "cache_hits_from_this_run": engine.telemetry.store_stats.get(
                "hits_from_this_run", 0
            ),
        },
        "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
    }
    manifest_path = coordinator.write_merged_manifest(manifest)
    return MergeOutcome(
        spec=spec,
        results=results,
        report=report,
        manifest=manifest,
        manifest_path=manifest_path,
        telemetry=engine.telemetry,
    )


def _sum_shard_totals(coordinator: SweepCoordinator) -> Dict[str, int]:
    """Sum the count totals of this sweep's shard manifests."""
    sums: Dict[str, int] = {name: 0 for name in _COUNT_TOTALS}
    manifests = 0
    for path, manifest in iter_run_manifests(coordinator.cache_dir):
        if path.parent.parent != coordinator.directory:
            continue
        totals = manifest.get("totals")
        if not isinstance(totals, dict):
            continue
        manifests += 1
        for name in _COUNT_TOTALS:
            value = totals.get(name)
            if isinstance(value, (int, float)):
                sums[name] += int(value)
    sums["manifests"] = manifests
    return sums


def shard_run_summary(run: ShardRun) -> List[str]:
    """Stderr footer lines for one ``sweep run`` invocation."""
    lines = [
        f"sweep {run.spec.name} {run.assignment.describe()}: "
        f"{run.jobs_run} job(s)"
        + (" (resumed)" if run.resumed else ""),
        f"journal: {run.journal_path}",
    ]
    if run.telemetry.jobs:
        lines.insert(1, run.telemetry.summary())
    return lines
