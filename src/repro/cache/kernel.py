"""Batched simulation kernel: chunk-at-a-time cache and timing processing.

The scalar simulation path calls :meth:`SetAssociativeCache.access_block`
once per fetch group and data access — millions of Python-level calls per
run.  This module processes whole trace chunks at a time instead, while
staying *bit-identical* to the scalar path:

1. **Vectorized front end** — fetch-group run-length dedup of
   ``pcs >> group_bits``, ``NO_ACCESS`` filtering, and per-cache
   classification of every access into *fast path* or *residual*.

2. **Fast path** — an access is a guaranteed hit, for any replacement
   policy and associativity (direct-mapped included), when the previous
   access to the same *set* touched the same block: a block can only
   leave the cache through an intervening fill in its set.  These
   accesses (the common case: sequential fetch runs, hot lines) are
   resolved in one vectorized pass per chunk — no tag probe, no policy
   call, no per-event Python.

3. **Residual loop** — the (small) remaining stream of potential misses
   and conflicts runs through a tight scalar loop that probes tags, picks
   victims through the real replacement policy state, charges L2/memory
   latencies and accrues pipeline stalls.

Timing closes the loop exactly: the fixed-point issue clock
(:mod:`repro.cpu.pipeline`) gives instruction ``i`` the closed-form base
issue time ``(i * cpi_fp) >> CPI_FP_BITS``, fast-path accesses never miss
and therefore never stall, so the stall prefix at every instruction is
determined by the residual stream alone.  Access times for the fast path
are reconstructed vectorially afterwards from the residual stall records,
and interval records are emitted to the
:class:`~repro.cache.generations.GenerationTracker` in exact event order.

Replacement-policy exactness: folding a run of same-block accesses into
one deferred ``last-touch`` update is exact for LRU (only the final touch
time matters, applied before the next same-set event reads the state),
and trivially exact for FIFO and random (access recency is ignored).
Policies outside that trio are rejected — callers fall back to the
scalar path.
"""

from __future__ import annotations

import ctypes
import os
import time as _time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from ..core.intervals import IntervalKind
from ..cpu.pipeline import CPI_FP_BITS, IssueClock
from ..cpu.trace import NO_ACCESS, STORE, TraceChunk
from ..errors import ConfigurationError, SimulationError, TraceValidationError
from . import native
from .cache import INVALID, SetAssociativeCache
from .hierarchy import MemoryHierarchy
from .replacement import FifoPolicy, LruPolicy, RandomPolicy

_NORMAL = int(IntervalKind.NORMAL)
_DEAD = int(IntervalKind.DEAD)
_COLD = int(IntervalKind.COLD)

#: Replacement policies whose on-access state the kernel can fold exactly.
EXACT_POLICIES = (LruPolicy, FifoPolicy, RandomPolicy)

#: Environment knob selecting the simulation kernel (see
#: :func:`resolve_kernel_mode`).
ENV_KERNEL = "REPRO_KERNEL"

#: Accepted kernel selectors.  ``auto`` resolves to ``compiled`` when
#: the native residual library is loadable and ``batched`` otherwise.
KERNEL_MODES = ("auto", "scalar", "batched", "compiled")

#: Residual-loop implementations inside the batched kernel.
RESIDUAL_IMPLS = ("python", "compiled")


def resolve_kernel_mode(value: object = None) -> str:
    """Resolve a kernel selector to ``scalar``/``batched``/``compiled``.

    ``value`` may be a mode string, a legacy bool (``True`` = batched,
    ``False`` = scalar), or ``None`` — which consults ``REPRO_KERNEL``
    and defaults to ``auto``.  ``auto`` prefers the compiled residual
    loop when the host can build/load it (:mod:`repro.cache.native`)
    and degrades to the pure-python batched loop otherwise, so a
    pure-python environment resolves identically everywhere with no
    configuration.
    """
    if value is None:
        value = os.environ.get(ENV_KERNEL, "").strip() or "auto"
    if isinstance(value, bool):
        value = "batched" if value else "scalar"
    mode = str(value).strip().lower()
    if mode not in KERNEL_MODES:
        raise ConfigurationError(
            f"unknown kernel mode {value!r}; choose one of "
            f"{list(KERNEL_MODES)} (also settable via {ENV_KERNEL})"
        )
    if mode == "auto":
        return "compiled" if native.native_available() else "batched"
    return mode


def resolve_residual_impl(residual: Optional[str] = None) -> str:
    """Resolve the residual-loop implementation for the batched kernel.

    ``None`` follows the resolved kernel mode; ``"compiled"`` degrades
    to ``"python"`` when the native library is unavailable — requesting
    the compiled loop is a preference, never a hard requirement, so
    compiler-less hosts run the whole suite unchanged.
    """
    if residual is None:
        mode = resolve_kernel_mode()
        residual = "compiled" if mode == "compiled" else "python"
    impl = str(residual).strip().lower()
    if impl not in RESIDUAL_IMPLS:
        raise ConfigurationError(
            f"unknown residual implementation {residual!r}; choose one of "
            f"{list(RESIDUAL_IMPLS)}"
        )
    if impl == "compiled" and not native.native_available():
        return "python"
    return impl


@dataclass(frozen=True)
class SimulationProfile:
    """Where a simulation's accesses and wall time went.

    ``fast_path_accesses`` counts L1 accesses resolved by the vectorized
    guaranteed-hit pass; ``slow_path_accesses`` counts residual-loop (or
    scalar-path) accesses.  ``stage_seconds`` holds per-stage wall time
    for the batched pipeline (empty for scalar runs).
    """

    mode: str  #: ``"batched"`` or ``"scalar"``.
    fast_path_accesses: int = 0
    slow_path_accesses: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Which residual implementation ran: ``"python"`` or ``"compiled"``
    #: for batched runs, ``"scalar"`` for the oracle path.
    residual_impl: str = "python"

    @property
    def total_accesses(self) -> int:
        return self.fast_path_accesses + self.slow_path_accesses

    @property
    def fast_path_share(self) -> float:
        """Fraction of L1 accesses resolved on the fast path (0..1)."""
        total = self.total_accesses
        return self.fast_path_accesses / total if total else 0.0

    def to_dict(self) -> Dict:
        """JSON-ready record for manifests and telemetry."""
        return {
            "mode": self.mode,
            "residual_impl": self.residual_impl,
            "fast_path_accesses": int(self.fast_path_accesses),
            "slow_path_accesses": int(self.slow_path_accesses),
            "fast_path_share": float(self.fast_path_share),
            "stage_seconds": {
                k: float(v) for k, v in sorted(self.stage_seconds.items())
            },
        }


def kernel_supported(hierarchy: MemoryHierarchy) -> bool:
    """Whether the batched kernel reproduces this hierarchy exactly."""
    if type(hierarchy) is not MemoryHierarchy:
        return False
    for cache in (hierarchy.l1i, hierarchy.l1d):
        if type(cache) is not SetAssociativeCache:
            return False
        if type(cache.replacement) not in EXACT_POLICIES:
            return False
        if cache.stats.accesses:  # the kernel must own the cache from cold
            return False
    return True


class _Lane:
    """Batched per-cache state: carries, aliases into the scalar cache."""

    def __init__(self, cache: SetAssociativeCache) -> None:
        if type(cache.replacement) not in EXACT_POLICIES:
            raise SimulationError(
                "batched kernel supports lru/fifo/random replacement only; "
                f"got {type(cache.replacement).__name__}"
            )
        if cache.stats.accesses:
            raise SimulationError(
                "batched kernel must attach to a fresh cache"
            )
        self.cache = cache
        config = cache.config
        self.assoc = config.associativity
        self.set_mask = config.n_sets - 1
        self.offset_bits = config.offset_bits
        self.n_sets = config.n_sets
        self.tags = cache._tags  # shared list: scalar ops in the loop
        self.blocks_seen = cache._blocks_seen
        self.tracker = cache.tracker
        self.start_time = cache.tracker.start_time if cache.tracker else 0
        self.frame_last = [-1] * config.n_lines
        policy = cache.replacement
        self.lru_touch = policy._last_touch if isinstance(policy, LruPolicy) else None
        self.fifo_next = policy._next_way if isinstance(policy, FifoPolicy) else None
        self.rng = policy._rng if isinstance(policy, RandomPolicy) else None
        # Classification carries across chunks.  -2 marks "no event yet"
        # (block numbers are non-negative).
        self.set_last_block = np.full(config.n_sets, -2, dtype=np.int64)
        self.set_last_time = np.zeros(config.n_sets, dtype=np.int64)
        self.set_last_frame = [-1] * config.n_sets
        # Per-run totals for the profile.
        self.fast_accesses = 0
        self.slow_accesses = 0

    def classify(self, blocks: np.ndarray):
        """Split one chunk's access stream into fast-path and residual.

        Returns ``(sets, order, ssets, sblocks, fast, pred)``: the set
        index per event, the stable set-sort permutation and the sorted
        views, the fast-path mask and the same-set predecessor index
        (original event order; ``-1`` for the first event of a set in
        this chunk).
        """
        count = len(blocks)
        sets = blocks & self.set_mask
        order = np.argsort(sets, kind="stable")
        ssets = sets[order]
        sblocks = blocks[order]
        firsts = np.empty(count, dtype=bool)
        same = np.empty(count, dtype=bool)
        firsts[0] = True
        np.not_equal(ssets[1:], ssets[:-1], out=firsts[1:])
        same[0] = False
        np.equal(sblocks[1:], sblocks[:-1], out=same[1:])
        same[1:] &= ~firsts[1:]
        # First event of each set continues (or breaks) the previous
        # chunk's trailing run.
        same[firsts] = self.set_last_block[ssets[firsts]] == sblocks[firsts]
        fast = np.empty(count, dtype=bool)
        fast[order] = same
        pred_sorted = np.full(count, -1, dtype=np.int64)
        if count > 1:
            cont = ~firsts[1:]
            pred_sorted[1:][cont] = order[:-1][cont]
        pred = np.empty(count, dtype=np.int64)
        pred[order] = pred_sorted
        return sets, order, ssets, sblocks, fast, pred

    def catchup_positions(
        self, res_idx: np.ndarray, pred: np.ndarray, fast: np.ndarray,
        pos: np.ndarray,
    ) -> np.ndarray:
        """Per residual event: position of the fast run it must catch up.

        A residual event whose same-set predecessor is a fast-path access
        ends that run; before the event touches the set it must apply the
        run's final access time to the replacement and tracker state.
        Returns ``-1`` where there is nothing to catch up.
        """
        out = np.full(len(res_idx), -1, dtype=np.int64)
        p = pred[res_idx]
        has = p >= 0
        pi = p[has]
        out[has] = np.where(fast[pi], pos[pi], -1)
        return out

    def flush_stats(self, accesses: int, hits: int, misses: int,
                    compulsory: int, evictions: int) -> None:
        stats = self.cache.stats
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += misses
        stats.compulsory_misses += compulsory
        stats.evictions += evictions

    def close_trailing_runs(self, sets, t_ev, trailing_idx) -> None:
        """Chunk-end catch-up of runs still open when the chunk ended."""
        frame_last = self.frame_last
        lru_touch = self.lru_touch
        set_last_frame = self.set_last_frame
        for event in trailing_idx.tolist():
            frame = set_last_frame[sets[event]]
            stamp = int(t_ev[event])
            frame_last[frame] = stamp
            if lru_touch is not None:
                lru_touch[frame] = stamp

    def sync_tracker(self) -> None:
        """Write the folded per-frame last-access times back."""
        if self.tracker is not None:
            self.tracker.set_last_access(
                np.asarray(self.frame_last, dtype=np.int64)
            )


def _emit_intervals(lane: _Lane, fast_events, fast_gaps, res_events,
                    res_gaps, res_kinds):
    """Merge fast-path and residual interval records into event order.

    Returns the merged ``(events, gaps)``: the lane-local index of the
    access that closed each recorded interval and the interval's length,
    in exactly the order the tracker received them.
    """
    events = np.concatenate([fast_events, res_events])
    merged = np.argsort(events, kind="stable")
    events = events[merged]
    gaps = np.concatenate([fast_gaps, res_gaps])[merged]
    if lane.tracker is not None:
        fast_kinds = np.full(len(fast_events), _NORMAL, dtype=np.uint8)
        lane.tracker.extend(gaps, np.concatenate([fast_kinds, res_kinds])[merged])
    return events, gaps


def _compiled_timed_chunk(
    lib, lane_i, lane_d, miss_cb, rng_cb, timing, stalls,
    m_pos, m_is_d, m_block, m_set, m_catch, m_base, m_cbase, m_store,
):
    """Run one chunk's merged residual stream through the C loop.

    Returns ``(stalls, stall_positions, stall_totals, records_i,
    records_d, counters_i, counters_d)`` with the same content the
    python residual loop would have produced (records as arrays instead
    of lists; the assembly stage accepts either).
    """
    n = len(m_pos)
    n_d = int(np.count_nonzero(m_is_d))
    bridge_i = native.LaneBridge(lane_i, n - n_d)
    bridge_d = native.LaneBridge(lane_d, n_d)
    bridge_d.set_lane_id(1)
    cfg = native.make_config(
        invalid_tag=INVALID,
        kind_normal=_NORMAL,
        kind_cold=_COLD,
        kind_dead=_DEAD,
        chunk_start_stalls=stalls,
        **timing,
    )
    stall_positions = np.empty(n, dtype=np.int64)
    stall_totals = np.empty(n, dtype=np.int64)
    n_stalls = np.zeros(1, dtype=np.int64)
    is_d_u8 = np.ascontiguousarray(m_is_d).view(np.uint8)
    store_u8 = np.ascontiguousarray(m_store).view(np.uint8)
    stalls = int(
        lib.repro_residual_timed(
            n,
            native.ptr_i64(np.ascontiguousarray(m_pos)),
            native.ptr_u8(is_d_u8),
            native.ptr_i64(np.ascontiguousarray(m_block)),
            native.ptr_i64(np.ascontiguousarray(m_set)),
            native.ptr_i64(np.ascontiguousarray(m_catch)),
            native.ptr_i64(np.ascontiguousarray(m_base)),
            native.ptr_i64(np.ascontiguousarray(m_cbase)),
            native.ptr_u8(store_u8),
            ctypes.byref(bridge_i.struct),
            ctypes.byref(bridge_d.struct),
            ctypes.byref(cfg),
            miss_cb,
            rng_cb,
            native.ptr_i64(stall_positions),
            native.ptr_i64(stall_totals),
            native.ptr_i64(n_stalls),
        )
    )
    bridge_i.writeback()
    bridge_d.writeback()
    count = int(n_stalls[0])
    return (
        stalls,
        stall_positions[:count],
        stall_totals[:count],
        bridge_i.records(),
        bridge_d.records(),
        bridge_i.counters(),
        bridge_d.counters(),
    )


class BatchedCacheKernel:
    """Array-at-a-time access engine for one :class:`SetAssociativeCache`.

    Accepts arrays of ``(block, time)`` per chunk and applies them with
    results bit-identical to calling :meth:`~SetAssociativeCache.
    access_block` in a loop: same statistics, same evictions, same
    generation intervals in the same order.  Attach to a *fresh* cache;
    times must be non-decreasing across all calls.

    This is the standalone form of the kernel (used directly by tests and
    by array-driven workloads); the trace simulator drives the same lane
    machinery through :func:`run_batched`, where access times additionally
    depend on the misses the kernel itself discovers.
    """

    def __init__(
        self, cache: SetAssociativeCache, residual: Optional[str] = None
    ) -> None:
        self._lane = _Lane(cache)
        self.cache = cache
        #: Residual implementation actually in use ("python"/"compiled").
        self.residual_impl = resolve_residual_impl(residual)
        self._seen_cb = None
        self._rng_cb = None
        if self.residual_impl == "compiled":
            lanes = (self._lane, self._lane)
            self._seen_cb = native.make_seen_cb(lanes)
            self._rng_cb = native.make_rng_cb(lanes)

    def access_blocks(self, blocks: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Access ``blocks[k]`` at ``times[k]``; returns the hit mask."""
        blocks = np.ascontiguousarray(blocks, dtype=np.int64)
        times = np.ascontiguousarray(times, dtype=np.int64)
        if blocks.shape != times.shape:
            raise SimulationError("blocks and times must align")
        count = len(blocks)
        if count == 0:
            return np.zeros(0, dtype=bool)
        if bool(np.any(np.diff(times) < 0)) or (
            int(times[0]) < int(self._lane.set_last_time.max())
        ):
            raise TraceValidationError(
                "access times must be non-decreasing: the trace's timestamps "
                "move backwards (within this batch or relative to an earlier "
                "one); sort the trace by time before feeding it to the kernel"
            )
        lane = self._lane
        sets, order, ssets, sblocks, fast, pred = lane.classify(blocks)
        hits = fast.copy()
        res_idx = np.flatnonzero(~fast)
        catch = lane.catchup_positions(res_idx, pred, fast, np.arange(count))
        lane.fast_accesses += int(fast.sum())
        lane.slow_accesses += len(res_idx)

        if self.residual_impl == "compiled" and len(res_idx):
            records, counters = self._access_residual_compiled(
                hits, blocks, times, sets, res_idx, catch
            )
            res_keys, res_gaps, res_kinds = records
            n_hits, n_miss, n_comp, n_evict = counters
        else:
            # Residual loop (times are inputs; no stall bookkeeping).
            tags = lane.tags
            assoc = lane.assoc
            frame_last = lane.frame_last
            lru_touch = lane.lru_touch
            fifo_next = lane.fifo_next
            rng = lane.rng
            blocks_seen = lane.blocks_seen
            set_last_frame = lane.set_last_frame
            start_time = lane.start_time
            res_keys, res_gaps, res_kinds = [], [], []
            n_hits = n_miss = n_comp = n_evict = 0
            for event, block, set_index, catch_pos in zip(
                res_idx.tolist(),
                blocks[res_idx].tolist(),
                sets[res_idx].tolist(),
                catch.tolist(),
            ):
                now = int(times[event])
                if catch_pos >= 0:
                    stamp = int(times[catch_pos])
                    run_frame = set_last_frame[set_index]
                    frame_last[run_frame] = stamp
                    if lru_touch is not None:
                        lru_touch[run_frame] = stamp
                base = set_index * assoc
                way = -1
                for candidate in range(assoc):
                    if tags[base + candidate] == block:
                        way = candidate
                        break
                if way >= 0:
                    n_hits += 1
                    hits[event] = True
                    frame = base + way
                    last = frame_last[frame]
                    gap = now - last
                    if gap > 0:
                        res_keys.append(event)
                        res_gaps.append(gap)
                        res_kinds.append(_NORMAL)
                else:
                    n_miss += 1
                    if block not in blocks_seen:
                        n_comp += 1
                        blocks_seen.add(block)
                    victim = -1
                    for candidate in range(assoc):
                        if tags[base + candidate] == INVALID:
                            victim = candidate
                            break
                    if victim < 0:
                        if lru_touch is not None:
                            window = lru_touch[base : base + assoc]
                            victim = window.index(min(window))
                        elif fifo_next is not None:
                            victim = fifo_next[set_index]
                            fifo_next[set_index] = (victim + 1) % assoc
                        else:
                            victim = rng.randrange(assoc)
                        n_evict += 1
                    frame = base + victim
                    tags[frame] = block
                    last = frame_last[frame]
                    if last == -1:
                        gap = now - start_time
                        kind = _COLD
                    else:
                        gap = now - last
                        kind = _DEAD
                    if gap > 0:
                        res_keys.append(event)
                        res_gaps.append(gap)
                        res_kinds.append(kind)
                if lru_touch is not None:
                    lru_touch[frame] = now
                frame_last[frame] = now
                set_last_frame[set_index] = frame

        lane.flush_stats(count, n_hits + int(fast.sum()), n_miss, n_comp, n_evict)

        # Fast-path interval records (vectorized), then merge in order.
        fast_idx = np.flatnonzero(fast)
        if len(fast_idx):
            fast_pred = pred[fast_idx]
            prev_times = np.where(
                fast_pred >= 0,
                times[np.maximum(fast_pred, 0)],
                lane.set_last_time[sets[fast_idx]],
            )
            fast_gaps = times[fast_idx] - prev_times
            keep = fast_gaps > 0
            fast_keys = fast_idx[keep]
            fast_gaps = fast_gaps[keep]
        else:
            fast_keys = np.zeros(0, dtype=np.int64)
            fast_gaps = np.zeros(0, dtype=np.int64)
        _emit_intervals(
            lane, fast_keys, fast_gaps,
            np.asarray(res_keys, dtype=np.int64),
            np.asarray(res_gaps, dtype=np.int64),
            np.asarray(res_kinds, dtype=np.uint8),
        )

        # Chunk-end carries: per-set last block/time, trailing-run catch-up.
        last_of_set = np.empty(count, dtype=bool)
        last_of_set[-1] = True
        np.not_equal(ssets[1:], ssets[:-1], out=last_of_set[:-1])
        last_idx = order[last_of_set]
        lane.set_last_block[ssets[last_of_set]] = sblocks[last_of_set]
        lane.set_last_time[ssets[last_of_set]] = times[last_idx]
        lane.close_trailing_runs(sets, times, last_idx[fast[last_idx]])
        return hits

    def _access_residual_compiled(self, hits, blocks, times, sets, res_idx, catch):
        """One chunk's residual stream through the C loop (access form)."""
        lane = self._lane
        lib = native.load_native()
        n_res = len(res_idx)
        bridge = native.LaneBridge(lane, n_res)
        cfg = native.make_config(
            invalid_tag=INVALID,
            kind_normal=_NORMAL,
            kind_cold=_COLD,
            kind_dead=_DEAD,
        )
        hit_out = np.zeros(n_res, dtype=np.uint8)
        lib.repro_residual_access(
            n_res,
            native.ptr_i64(np.ascontiguousarray(res_idx)),
            native.ptr_i64(np.ascontiguousarray(blocks[res_idx])),
            native.ptr_i64(np.ascontiguousarray(sets[res_idx])),
            native.ptr_i64(np.ascontiguousarray(catch)),
            native.ptr_i64(times),
            ctypes.byref(bridge.struct),
            ctypes.byref(cfg),
            self._seen_cb,
            self._rng_cb,
            native.ptr_u8(hit_out),
        )
        bridge.writeback()
        hits[res_idx[hit_out.astype(bool)]] = True
        return bridge.records(), bridge.counters()

    def finish(self, end_time: int) -> None:
        """Sync folded state and close the cache's generation timelines."""
        self._lane.sync_tracker()
        self.cache.finish(end_time)

    @property
    def profile_counts(self):
        """``(fast_path, slow_path)`` access counts so far."""
        return self._lane.fast_accesses, self._lane.slow_accesses


@dataclass(frozen=True)
class BatchedRunResult:
    """Timing outcome of :func:`run_batched` (intervals land in-place)."""

    cycles: int
    instructions: int
    stall_cycles: int
    profile: SimulationProfile


def validate_chunk(chunk: TraceChunk, index: Optional[int] = None) -> TraceChunk:
    """Validate one chunk at the simulation entry point.

    The :class:`~repro.cpu.trace.TraceChunk` constructor enforces these
    invariants, but real traces arrive through readers, adapters and
    pickles that can hand the kernel arrays mutated or built after
    construction.  Checking up front turns a crash (or silent garbage)
    deep in the residual loop into a named, actionable error.
    """
    label = "trace chunk" if index is None else f"trace chunk {index}"
    if not isinstance(chunk, TraceChunk):
        raise TraceValidationError(
            f"{label}: expected a TraceChunk, got {type(chunk).__name__}; "
            "build chunks with repro.cpu.trace.TraceChunk or stream them "
            "with repro.traces"
        )
    pcs, addrs, kinds = chunk.pcs, chunk.data_addresses, chunk.data_kinds
    for name, array, dtype in (
        ("pcs", pcs, np.int64),
        ("data_addresses", addrs, np.int64),
        ("data_kinds", kinds, np.uint8),
    ):
        if not isinstance(array, np.ndarray) or array.dtype != dtype:
            got = getattr(array, "dtype", type(array).__name__)
            raise TraceValidationError(
                f"{label}: {name} must be a numpy array of dtype "
                f"{np.dtype(dtype).name}, got {got}"
            )
        if array.ndim != 1:
            raise TraceValidationError(
                f"{label}: {name} must be one-dimensional, got shape "
                f"{array.shape}"
            )
    if not (pcs.shape == addrs.shape == kinds.shape):
        raise TraceValidationError(
            f"{label}: column lengths differ (pcs {pcs.shape[0]}, "
            f"data_addresses {addrs.shape[0]}, data_kinds {kinds.shape[0]})"
        )
    if pcs.size:
        if int(pcs.min()) < 0:
            raise TraceValidationError(
                f"{label}: program counters must be non-negative"
            )
        if int(kinds.max()) > STORE:
            raise TraceValidationError(
                f"{label}: unknown data kind {int(kinds.max())}; kinds must "
                f"be NO_ACCESS (0), LOAD (1) or STORE (2)"
            )
        if bool(np.any((kinds != NO_ACCESS) & (addrs < 0))):
            raise TraceValidationError(
                f"{label}: load/store instructions must carry a data address "
                "(data_addresses >= 0)"
            )
        if bool(np.any((kinds == NO_ACCESS) & (addrs >= 0))):
            raise TraceValidationError(
                f"{label}: non-memory instructions must use data address -1 "
                "(an address is present but the kind says NO_ACCESS)"
            )
    return chunk


def validated_chunks(trace: Iterable[TraceChunk]) -> Iterable[TraceChunk]:
    """Wrap a chunk stream so every chunk is validated as it is consumed."""
    for index, chunk in enumerate(trace):
        yield validate_chunk(chunk, index)


def _assemble_chunk(
    lane_i, lane_d, plans, counters, res_records_i, res_records_d,
    i_observer, d_observer, ipos, dpos, iblocks, dblocks, dstores,
    pcs, addrs, instructions, cpi_fp, stall_pos_arr, stall_tot_arr,
    chunk_start_stalls, stage, perf,
):
    """Assembly stage of :func:`run_batched` for one chunk.

    Reconstructs every access time, emits intervals in event order, rolls
    the carries, and hands each lane's chunk to its annotation observer.
    Residual records may be python lists (pure-python residual) or numpy
    arrays (compiled residual); the two produce identical output.
    """
    t_start = perf()
    for lane, pos, blocks, records, observer in (
        (lane_i, ipos, iblocks, res_records_i, i_observer),
        (lane_d, dpos, dblocks, res_records_d, d_observer),
    ):
        if len(blocks) == 0:
            continue
        sets, order, ssets, sblocks, fast, pred, res_idx, _ = plans[id(lane)]
        if len(stall_pos_arr):
            record_index = np.searchsorted(stall_pos_arr, pos, side="left")
            stall_prefix = np.where(
                record_index > 0,
                stall_tot_arr[np.maximum(record_index - 1, 0)],
                chunk_start_stalls,
            )
        else:
            stall_prefix = chunk_start_stalls
        t_ev = (((instructions + pos) * cpi_fp) >> CPI_FP_BITS) + stall_prefix
        fast_idx = np.flatnonzero(fast)
        if len(fast_idx):
            fast_pred = pred[fast_idx]
            prev_times = np.where(
                fast_pred >= 0,
                t_ev[np.maximum(fast_pred, 0)],
                lane.set_last_time[sets[fast_idx]],
            )
            fast_gaps = t_ev[fast_idx] - prev_times
            keep = fast_gaps > 0
            fast_events = fast_idx[keep]
            fast_gaps = fast_gaps[keep]
        else:
            fast_events = np.zeros(0, dtype=np.int64)
            fast_gaps = np.zeros(0, dtype=np.int64)
        keys_out, gaps_out, kinds_out = records
        # Residual records are keyed by instruction position; one lane
        # has at most one event per instruction.
        events, gaps = _emit_intervals(
            lane, fast_events, fast_gaps,
            np.searchsorted(pos, np.asarray(keys_out, dtype=np.int64)),
            np.asarray(gaps_out, dtype=np.int64),
            np.asarray(kinds_out, dtype=np.uint8),
        )
        hits, misses, compulsory, evictions = counters[id(lane)]
        lane.flush_stats(
            len(blocks), hits + int(fast.sum()), misses, compulsory, evictions
        )
        last_of_set = np.empty(len(blocks), dtype=bool)
        last_of_set[-1] = True
        np.not_equal(ssets[1:], ssets[:-1], out=last_of_set[:-1])
        last_idx = order[last_of_set]
        lane.set_last_block[ssets[last_of_set]] = sblocks[last_of_set]
        lane.set_last_time[ssets[last_of_set]] = t_ev[last_idx]
        lane.close_trailing_runs(sets, t_ev, last_idx[fast[last_idx]])
        if observer is not None:
            stage["assembly"] += perf() - t_start
            t_start = perf()
            if lane is lane_d:
                observer(blocks, t_ev, events, gaps, pcs[pos], addrs[pos], dstores)
            else:
                observer(blocks, t_ev, events, gaps)
            stage["annotate"] += perf() - t_start
            t_start = perf()
    stage["assembly"] += perf() - t_start


def run_batched(
    hierarchy: MemoryHierarchy,
    clock: IssueClock,
    trace: Iterable[TraceChunk],
    i_observer: Optional[Callable] = None,
    d_observer: Optional[Callable] = None,
    residual: Optional[str] = None,
) -> BatchedRunResult:
    """Drive a full hierarchy through the batched kernel.

    Consumes the trace chunk by chunk, mirrors every observable side
    effect of the scalar simulation path (cache statistics, replacement
    and tracker state, L2 accesses, the issue clock), calls
    ``hierarchy.finish`` and syncs ``clock``, returning the timing totals
    plus the run profile.

    ``i_observer(blocks, times, events, gaps)`` and ``d_observer(blocks,
    times, events, gaps, pcs, addresses, stores)`` are invoked once per
    chunk with the lane's per-access arrays in event order plus the
    intervals the chunk recorded: ``events[k]`` indexes the access that
    closed interval ``k`` and ``gaps[k]`` is its length, exactly as the
    tracker received them.  The prefetchability annotator hooks in here
    without perturbing the kernel.
    """
    if not kernel_supported(hierarchy):
        raise SimulationError("hierarchy is not supported by the batched kernel")
    lane_i = _Lane(hierarchy.l1i)
    lane_d = _Lane(hierarchy.l1d)
    config = clock.config
    cpi_fp = clock._cpi_fp
    group_bits = config.fetch_group_bytes.bit_length() - 1
    stall_on_miss = config.stall_on_miss
    load_mlp = config.load_mlp
    store_buffer = config.store_buffer
    l1i_hit = hierarchy.config.l1i.hit_latency
    l1d_hit = hierarchy.config.l1d.hit_latency
    l2_hit = hierarchy.config.l2.hit_latency
    memory_latency = hierarchy.config.l2.hit_latency + hierarchy.config.memory_latency
    l2_access = hierarchy.l2.access_block

    residual_impl = resolve_residual_impl(residual)
    if residual_impl == "compiled":
        native_lib = native.load_native()
        native_miss_cb = native.make_miss_cb((lane_i, lane_d), l2_access)
        native_rng_cb = native.make_rng_cb((lane_i, lane_d))
        native_timing = {
            "l1i_hit": l1i_hit,
            "l1d_hit": l1d_hit,
            "l2_hit": l2_hit,
            "memory_latency": memory_latency,
            "stall_on_miss": int(bool(stall_on_miss)),
            "load_mlp": load_mlp,
            "store_buffer": int(bool(store_buffer)),
        }
    else:
        native_lib = None

    prev_igroup = -1
    instructions = 0  # instructions consumed before the current chunk
    stalls = 0  # cumulative stall cycles
    stage = {"frontend": 0.0, "residual": 0.0, "assembly": 0.0, "annotate": 0.0}
    perf = _time.perf_counter

    for chunk_index, chunk in enumerate(trace):
        validate_chunk(chunk, chunk_index)
        n = len(chunk)
        if n == 0:
            continue
        t_start = perf()
        pcs = chunk.pcs
        addrs = chunk.data_addresses
        kinds = chunk.data_kinds

        igroups = pcs >> group_bits
        imask = np.empty(n, dtype=bool)
        imask[0] = int(igroups[0]) != prev_igroup
        np.not_equal(igroups[1:], igroups[:-1], out=imask[1:])
        prev_igroup = int(igroups[-1])
        ipos = np.flatnonzero(imask)
        iblocks = pcs[ipos] >> lane_i.offset_bits
        dpos = np.flatnonzero(kinds != NO_ACCESS)
        dblocks = addrs[dpos] >> lane_d.offset_bits
        dstores = kinds[dpos] == STORE

        plans = {}
        for lane, pos, blocks in (
            (lane_i, ipos, iblocks),
            (lane_d, dpos, dblocks),
        ):
            if len(blocks):
                sets, order, ssets, sblocks, fast, pred = lane.classify(blocks)
            else:
                sets = order = ssets = sblocks = pred = np.zeros(0, dtype=np.int64)
                fast = np.zeros(0, dtype=bool)
            res_idx = np.flatnonzero(~fast)
            catch = lane.catchup_positions(res_idx, pred, fast, pos)
            lane.fast_accesses += len(blocks) - len(res_idx)
            lane.slow_accesses += len(res_idx)
            plans[id(lane)] = (
                sets, order, ssets, sblocks, fast, pred, res_idx, catch,
            )

        sets_i, _, _, _, fast_i, _, res_i, catch_i = plans[id(lane_i)]
        sets_d, _, _, _, fast_d, _, res_d, catch_d = plans[id(lane_d)]

        # Merge both lanes' residual events by (instruction, I-before-D).
        key_i = ipos[res_i] << np.int64(1)
        key_d = (dpos[res_d] << np.int64(1)) | np.int64(1)
        keys = np.concatenate([key_i, key_d])
        morder = np.argsort(keys, kind="stable")
        m_pos = (keys >> 1)[morder]
        m_is_d = (keys & 1).astype(bool)[morder]
        m_block = np.concatenate([iblocks[res_i], dblocks[res_d]])[morder]
        m_set = np.concatenate([sets_i[res_i], sets_d[res_d]])[morder]
        m_catch = np.concatenate([catch_i, catch_d])[morder]
        m_store = np.concatenate(
            [np.zeros(len(res_i), dtype=bool), dstores[res_d]]
        )[morder]
        m_base = ((instructions + m_pos) * cpi_fp) >> CPI_FP_BITS
        m_cbase = ((instructions + np.maximum(m_catch, 0)) * cpi_fp) >> CPI_FP_BITS
        stage["frontend"] += perf() - t_start

        # ------------------------------------------------------------------
        # Residual loop: the only per-event Python in the batched path.
        # Mirrors SetAssociativeCache.access_block_ex plus the simulator's
        # stall rules, with the policy/tracker state folded per run.
        # ------------------------------------------------------------------
        t_start = perf()
        chunk_start_stalls = stalls
        if native_lib is not None:
            if len(m_pos):
                (
                    stalls,
                    stall_positions,
                    stall_totals,
                    res_records_i,
                    res_records_d,
                    counters_i,
                    counters_d,
                ) = _compiled_timed_chunk(
                    native_lib, lane_i, lane_d, native_miss_cb, native_rng_cb,
                    native_timing, stalls,
                    m_pos, m_is_d, m_block, m_set, m_catch, m_base, m_cbase,
                    m_store,
                )
            else:
                stall_positions = stall_totals = np.zeros(0, dtype=np.int64)
                res_records_i = res_records_d = (
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.uint8),
                )
                counters_i = counters_d = [0, 0, 0, 0]
            counters = {id(lane_i): counters_i, id(lane_d): counters_d}
            stage["residual"] += perf() - t_start
            _assemble_chunk(
                lane_i, lane_d, plans, counters, res_records_i, res_records_d,
                i_observer, d_observer, ipos, dpos, iblocks, dblocks, dstores,
                pcs, addrs, instructions, cpi_fp,
                np.asarray(stall_positions, dtype=np.int64),
                np.asarray(stall_totals, dtype=np.int64),
                chunk_start_stalls, stage, perf,
            )
            instructions += n
            continue
        stall_positions: list = []  # chunk-local instruction positions
        stall_totals: list = []  # cumulative stalls after each record
        current_pos = -1
        stalls_at_pos = stalls
        res_records_i = ([], [], [])  # keys, gaps, kinds
        res_records_d = ([], [], [])
        counters = {id(lane_i): [0, 0, 0, 0], id(lane_d): [0, 0, 0, 0]}
        for pos, is_d, block, set_index, catch_pos, base_time, catch_base, is_store in zip(
            m_pos.tolist(), m_is_d.tolist(), m_block.tolist(), m_set.tolist(),
            m_catch.tolist(), m_base.tolist(), m_cbase.tolist(), m_store.tolist(),
        ):
            if pos != current_pos:
                current_pos = pos
                stalls_at_pos = stalls
            now = base_time + stalls_at_pos
            lane = lane_d if is_d else lane_i
            keys_out, gaps_out, kinds_out = (
                res_records_d if is_d else res_records_i
            )
            tags = lane.tags
            assoc = lane.assoc
            frame_last = lane.frame_last
            lru_touch = lane.lru_touch
            if catch_pos >= 0:
                # Close the fast run this event ends: its final access
                # time lands on the replacement and tracker state first.
                record = bisect_left(stall_positions, catch_pos)
                run_time = catch_base + (
                    stall_totals[record - 1] if record else chunk_start_stalls
                )
                run_frame = lane.set_last_frame[set_index]
                frame_last[run_frame] = run_time
                if lru_touch is not None:
                    lru_touch[run_frame] = run_time
            base = set_index * assoc
            way = -1
            for candidate in range(assoc):
                if tags[base + candidate] == block:
                    way = candidate
                    break
            stats = counters[id(lane)]
            if way >= 0:
                stats[0] += 1
                frame = base + way
                gap = now - frame_last[frame]
                if gap > 0:
                    keys_out.append(pos)
                    gaps_out.append(gap)
                    kinds_out.append(_NORMAL)
            else:
                stats[1] += 1
                blocks_seen = lane.blocks_seen
                if block not in blocks_seen:
                    stats[2] += 1
                    blocks_seen.add(block)
                victim = -1
                for candidate in range(assoc):
                    if tags[base + candidate] == INVALID:
                        victim = candidate
                        break
                if victim < 0:
                    if lru_touch is not None:
                        window = lru_touch[base : base + assoc]
                        victim = window.index(min(window))
                    elif lane.fifo_next is not None:
                        victim = lane.fifo_next[set_index]
                        lane.fifo_next[set_index] = (victim + 1) % assoc
                    else:
                        victim = lane.rng.randrange(assoc)
                    stats[3] += 1
                frame = base + victim
                tags[frame] = block
                last = frame_last[frame]
                if last == -1:
                    gap = now - lane.start_time
                    kind = _COLD
                else:
                    gap = now - last
                    kind = _DEAD
                if gap > 0:
                    keys_out.append(pos)
                    gaps_out.append(gap)
                    kinds_out.append(kind)
                # The miss walks the L2; its latency stalls the stream.
                latency = l2_hit if l2_access(block, now) else memory_latency
                if is_d:
                    if not (is_store and store_buffer):
                        extra = -(-(latency - l1d_hit) // load_mlp)
                        if stall_on_miss and extra:
                            stalls += extra
                            stall_positions.append(pos)
                            stall_totals.append(stalls)
                else:
                    extra = latency - l1i_hit
                    if stall_on_miss and extra:
                        stalls += extra
                        stall_positions.append(pos)
                        stall_totals.append(stalls)
            if lru_touch is not None:
                lru_touch[frame] = now
            frame_last[frame] = now
            lane.set_last_frame[set_index] = frame
        stage["residual"] += perf() - t_start

        _assemble_chunk(
            lane_i, lane_d, plans, counters, res_records_i, res_records_d,
            i_observer, d_observer, ipos, dpos, iblocks, dblocks, dstores,
            pcs, addrs, instructions, cpi_fp,
            np.asarray(stall_positions, dtype=np.int64),
            np.asarray(stall_totals, dtype=np.int64),
            chunk_start_stalls, stage, perf,
        )
        instructions += n

    # Close the run: sync the clock and the trackers, then finish.
    total_cycles = ((instructions * cpi_fp) >> CPI_FP_BITS) + stalls
    clock.cycle = total_cycles
    clock.instructions = instructions
    clock.stall_cycles = stalls
    clock._cpi_accumulator = (instructions * cpi_fp) & ((1 << CPI_FP_BITS) - 1)
    lane_i.sync_tracker()
    lane_d.sync_tracker()
    end_time = total_cycles + 1
    hierarchy.finish(end_time)
    profile = SimulationProfile(
        mode="batched",
        fast_path_accesses=lane_i.fast_accesses + lane_d.fast_accesses,
        slow_path_accesses=lane_i.slow_accesses + lane_d.slow_accesses,
        stage_seconds=dict(stage),
        residual_impl=residual_impl,
    )
    return BatchedRunResult(
        cycles=end_time,
        instructions=instructions,
        stall_cycles=stalls,
        profile=profile,
    )
