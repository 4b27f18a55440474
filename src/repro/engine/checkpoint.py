"""Crash-safe run checkpoints: the journals behind ``--resume`` and sweeps.

A resumable run owns a directory under ``<cache_dir>/runs/<run_id>/``
holding two artefacts:

* ``journal.jsonl`` — one JSON line per completed job, appended and
  fsynced the moment the job's result lands in the cache.  Appends are
  tiny, so a crash can at worst leave one torn trailing line, which the
  loader skips; every fully-written line survives.
* ``manifest.json`` — the run telemetry manifest, written atomically
  (temp file + rename) when the run finishes.

Resuming (``--resume <run_id>``) replays nothing: the journal tells the
engine which job keys the interrupted run already finished, and the
content-addressed result cache supplies their payloads, so only the
remainder is simulated.  If a journaled entry's cache payload has gone
missing or corrupt in the meantime, the job is transparently recomputed
— the journal is a progress record, never a source of results — which
is what keeps a resumed report byte-identical to a single-shot one.

The same journal machinery backs *shared* sweep journals: a parameter
sweep (:mod:`repro.sweep`) roots one :class:`RunJournal` per shard under
``<cache_dir>/sweeps/<sweep_name>/`` (the ``subdir`` parameter), so
several hosts pointed at the same cache directory each append to their
own journal while ``sweep status``/``sweep merge`` read the union.
Journal entries are keyed by the job's content address, which is
backend-agnostic — a run checkpointed on one backend resumes cleanly on
any rung of the pool -> subprocess -> serial ladder, and its manifest
carries the ``fault_domains`` profile of whichever rungs actually ran
whenever a dispatch descended a rung.

Journal I/O failures (read-only disk, quota) are swallowed: a run that
cannot checkpoint still completes, it just cannot be resumed.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

from ..errors import EngineError

#: Subdirectory of the cache dir holding one directory per run id.
RUNS_SUBDIR = "runs"

#: Subdirectory of the cache dir holding one directory per sweep name;
#: each sweep directory holds one journal directory per shard (see
#: :mod:`repro.sweep.coordinate`).  Defined here so the engine can find
#: sweep manifests without importing the sweep subsystem.
SWEEPS_SUBDIR = "sweeps"

#: Valid run ids (and sweep names): filesystem-safe path components.
RUN_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def validate_run_id(run_id: str, what: str = "run id") -> str:
    """Validate a run id / sweep name as a safe path component."""
    if not RUN_ID_PATTERN.match(run_id or ""):
        raise EngineError(
            f"{what} {run_id!r} must be letters, digits, '.', '_' or '-' "
            "(and start with a letter or digit)"
        )
    return run_id


def atomic_write_json(path: os.PathLike, payload: Dict) -> Optional[str]:
    """Write ``payload`` as indented JSON via temp file + rename.

    Returns the path written, or ``None`` when the filesystem refuses —
    checkpoint artefacts must never break the run that produces them.
    """
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{path.name}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        return None
    return str(path)


class RunJournal:
    """Append-only record of one run's completed job keys.

    ``subdir`` selects the namespace under the cache directory: the
    default ``runs`` for ``--run-id`` checkpoints, or a sweep's shared
    directory (``sweeps/<name>``) for shard journals.
    """

    def __init__(
        self,
        cache_dir: os.PathLike,
        run_id: str,
        subdir: str = RUNS_SUBDIR,
    ) -> None:
        validate_run_id(run_id)
        self.run_id = run_id
        self.directory = Path(cache_dir) / subdir / run_id
        self.path = self.directory / "journal.jsonl"
        self.manifest_path = self.directory / "manifest.json"
        self._recorded: Set[str] = set()

    def exists(self) -> bool:
        """Whether this run already has a journal on disk."""
        return self.path.exists()

    def load(self) -> Set[str]:
        """Job keys the journal records as completed.

        Tolerates a torn trailing line from a crash mid-append: any line
        that does not parse as JSON is skipped, everything before it is
        kept.
        """
        keys: Set[str] = set()
        try:
            text = self.path.read_bytes().decode("utf-8", errors="replace")
        except OSError:
            return keys
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn write from the crash that ended the run
            key = entry.get("key") if isinstance(entry, dict) else None
            if key:
                keys.add(key)
        self._recorded |= keys
        return set(keys)

    def record(self, job) -> None:
        """Durably append one completed job (idempotent per key)."""
        key = job.key()
        if key in self._recorded:
            return
        line = (
            json.dumps({"key": key, "job": job.describe()}, sort_keys=True)
            + "\n"
        )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            return  # a broken journal must never break the run
        self._recorded.add(key)

    def write_manifest(self, manifest: Dict) -> Optional[str]:
        """Atomically write the run manifest; returns its path or None."""
        return atomic_write_json(self.manifest_path, manifest)

    def describe(self) -> str:
        """Location string for telemetry output."""
        return str(self.directory)


def iter_run_manifests(
    cache_dir: os.PathLike,
) -> Iterator[Tuple[Path, Dict]]:
    """Yield every per-run / per-shard manifest under a cache directory.

    Covers ``runs/<id>/manifest.json``,
    ``sweeps/<name>/<shard>/manifest.json``, and merged sweep manifests
    (``sweeps/<name>/manifest.json``, flagged ``"merged": true``).
    Callers aggregating totals must not double-count merged manifests —
    their ``shard_totals`` summarise shard manifests yielded separately;
    only their ``merge_totals`` (the merge run itself) are additive.
    """
    root = Path(cache_dir)
    patterns = (
        f"{RUNS_SUBDIR}/*/manifest.json",
        f"{SWEEPS_SUBDIR}/*/*/manifest.json",
        f"{SWEEPS_SUBDIR}/*/manifest.json",
    )
    for pattern in patterns:
        try:
            paths = sorted(root.glob(pattern))
        except OSError:
            continue
        for path in paths:
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if not isinstance(manifest, dict):
                continue
            yield path, manifest


def collect_sharing_stats(cache_dir: os.PathLike) -> Dict:
    """Cross-run cache sharing totals, aggregated from recorded manifests.

    Every journaled run and sweep shard leaves a telemetry manifest next
    to its journal; summing their totals shows how much work the
    content-addressed cache let later runs skip — the ``repro-leakage
    cache info`` "sharing" section.  A merged sweep manifest contributes
    only its ``merge_totals`` (the merge run's own engine pass); its
    ``shard_totals`` duplicate the shard manifests counted directly.
    """
    stats = {
        "manifests": 0,
        "jobs": 0,
        "simulated": 0,
        "cached": 0,
        "hits_from_earlier_runs": 0,
        "hits_from_this_run": 0,
    }
    for _, manifest in iter_run_manifests(cache_dir):
        totals = manifest.get(
            "merge_totals" if manifest.get("merged") else "totals"
        )
        if not isinstance(totals, dict):
            continue
        stats["manifests"] += 1
        for field, source in (
            ("jobs", "jobs"),
            ("simulated", "simulated"),
            ("cached", "cached"),
            ("hits_from_earlier_runs", "cache_hits_from_earlier_runs"),
            ("hits_from_this_run", "cache_hits_from_this_run"),
        ):
            value = totals.get(source)
            if isinstance(value, (int, float)):
                stats[field] += int(value)
    return stats
