"""Prefetchability analysis (the paper's §5.2 and Figure 9).

An interval is *prefetchable* when an implementable prefetcher could have
re-fetched (or woken) the line just in time for the access that closes
the interval, hiding the sleep/drowsy exit penalty:

* **next-line** (I- and D-cache): one or more accesses to the *previous*
  cache block occur inside the interval — the access to ``X - 1`` is the
  prefetch trigger for ``X``;
* **stride-based** (D-cache): the closing access was predicted by a
  per-static-load stride table whose stride had been confirmed at least
  twice (Farkas et al. [3]).

Intervals no longer than the active-drowsy point are always kept active,
need no prefetch, and are counted non-prefetchable, as in the paper.

:class:`AnnotatingSimulator` mirrors :class:`~repro.cpu.simulator.
TraceSimulator` exactly (same hierarchy, same clock, same fetch line
buffer) while additionally classifying every interval as it closes; the
test suite pins the two simulators to identical timing and statistics.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from ..cache.hierarchy import HierarchyConfig, MemoryHierarchy
from ..cache.kernel import (
    SimulationProfile,
    kernel_supported,
    resolve_kernel_mode,
    run_batched,
    validated_chunks,
)
from ..core.intervals import IntervalProfile, IntervalSet, MemoisedProfile
from ..cpu.pipeline import IssueClock, PipelineConfig
from ..cpu.simulator import SimulationResult
from ..cpu.trace import NO_ACCESS, STORE, TraceChunk
from ..errors import SimulationError
from .stride import StridePredictor

#: Intervals at or below this length are kept active and never counted
#: prefetchable (the active-drowsy point of the paper's parameters).
DEFAULT_ACTIVE_FLOOR = 6


@dataclass(frozen=True)
class AnnotatedIntervals(MemoisedProfile):
    """An interval population with per-interval prefetchability flags.

    ``nextline`` and ``stride`` are aligned with ``intervals``; ``stride``
    only marks intervals *not already* caught by next-line, so the two
    are disjoint (Figure 9 reports them as separate shaded areas).
    :meth:`profile` compacts the population with its
    :attr:`prefetchable` mask as the flag column.
    """

    intervals: IntervalSet
    nextline: np.ndarray
    stride: np.ndarray
    tail: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.intervals)
        for flags in (self.nextline, self.stride, self.tail):
            if flags.shape != (n,):
                raise SimulationError(
                    "annotation flags must align with the interval population"
                )
        if bool(np.any(self.nextline & self.stride)):
            raise SimulationError("next-line and stride flags must be disjoint")

    @property
    def prefetchable(self) -> np.ndarray:
        """Mask of intervals coverable without a performance penalty.

        Next-line or stride covered, plus end-of-run *tail* intervals: a
        tail has no closing access to delay, so any policy can gate it at
        zero performance risk — charging Prefetch-A full active power for
        it would only measure the finite length of the simulation.
        """
        return self.nextline | self.stride | self.tail

    @property
    def prefetchability(self) -> float:
        """Prefetchable intervals over all intervals (the Figure 9 ratio)."""
        n = len(self.intervals)
        return float(self.prefetchable.sum()) / n if n else 0.0

    def _compact(self) -> IntervalProfile:
        return IntervalProfile.compact(
            self.intervals.lengths, self.intervals.kinds, self.prefetchable
        )

    def as_normal(self) -> "AnnotatedIntervals":
        """Re-label every interval NORMAL (the paper's default view)."""
        return AnnotatedIntervals(
            self.intervals.as_normal(), self.nextline, self.stride, self.tail
        )


class _CacheAnnotator:
    """Streams one cache's accesses into annotated intervals."""

    def __init__(self, n_frames: int, active_floor: int, start_time: int = 0) -> None:
        self.n_frames = n_frames
        self.active_floor = active_floor
        self.start_time = start_time
        self._frame_last = [-1] * n_frames
        self._block_last: dict = {}
        self._nextline: List[bool] = []
        self._stride: List[bool] = []

    def observe(self, block: int, frame: int, time: int, stride_hit: bool) -> None:
        """Record the interval (if any) closed by this access.

        Must mirror :class:`~repro.cache.generations.GenerationTracker`'s
        append conditions exactly: one flag pair per recorded interval.
        """
        last = self._frame_last[frame]
        gap = time - (last if last >= 0 else self.start_time)
        if gap > 0:
            if gap <= self.active_floor:
                self._nextline.append(False)
                self._stride.append(False)
            else:
                window_start = last if last >= 0 else self.start_time
                neighbor = self._block_last.get(block - 1, -1)
                nextline = neighbor >= window_start
                self._nextline.append(nextline)
                self._stride.append(stride_hit and not nextline)
        self._frame_last[frame] = time
        self._block_last[block] = time

    def finish(self, intervals: IntervalSet) -> AnnotatedIntervals:
        """Flag the end-of-run tail intervals and package up."""
        recorded = len(self._nextline)
        missing = len(intervals) - recorded
        if missing < 0:
            raise SimulationError(
                "annotator recorded more intervals than the tracker"
            )
        self._nextline.extend([False] * missing)
        self._stride.extend([False] * missing)
        tail = np.zeros(len(intervals), dtype=bool)
        tail[recorded:] = True
        return AnnotatedIntervals(
            intervals,
            np.array(self._nextline, dtype=bool),
            np.array(self._stride, dtype=bool),
            tail,
        )


@dataclass(frozen=True)
class AnnotatedSimulationResult:
    """A :class:`SimulationResult` plus prefetchability annotations."""

    result: SimulationResult
    l1i: AnnotatedIntervals
    l1d: AnnotatedIntervals

    def annotated_for(self, which: str) -> AnnotatedIntervals:
        """Annotated intervals by cache name (``'l1i'`` or ``'l1d'``)."""
        key = which.lower()
        if key in ("l1i", "icache", "i"):
            return self.l1i
        if key in ("l1d", "dcache", "d"):
            return self.l1d
        raise SimulationError(f"unknown cache selector {which!r}")


class AnnotatingSimulator:
    """Trace simulation with per-interval prefetchability classification.

    Timing-identical to :class:`~repro.cpu.simulator.TraceSimulator`; use
    it whenever an experiment needs Prefetch-A/B or Figure 9 numbers.
    """

    def __init__(
        self,
        hierarchy: Optional[MemoryHierarchy] = None,
        pipeline: Optional[PipelineConfig] = None,
        stride_table_capacity: Optional[int] = 4096,
        active_floor: int = DEFAULT_ACTIVE_FLOOR,
    ) -> None:
        self.hierarchy = (
            hierarchy
            if hierarchy is not None
            else MemoryHierarchy(HierarchyConfig.paper())
        )
        self.clock = IssueClock(pipeline)
        self.stride = StridePredictor(stride_table_capacity)
        self.active_floor = active_floor
        self._ran = False

    def run(self, trace: Iterable[TraceChunk] | TraceChunk) -> AnnotatedSimulationResult:
        """Consume the trace; return results with annotations."""
        if self._ran:
            raise SimulationError(
                "AnnotatingSimulator instances are single-use; build a new one"
            )
        self._ran = True
        if isinstance(trace, TraceChunk):
            trace = (trace,)

        i_annotator = _CacheAnnotator(
            self.hierarchy.l1i.config.n_lines, self.active_floor
        )
        d_annotator = _CacheAnnotator(
            self.hierarchy.l1d.config.n_lines, self.active_floor
        )
        # REPRO_KERNEL selects the path; auto prefers the batched kernel
        # (with its best available residual loop) when the hierarchy
        # supports it and the scalar loop otherwise.
        mode = resolve_kernel_mode()
        if mode != "scalar" and kernel_supported(self.hierarchy):
            return self._run_batched(trace, i_annotator, d_annotator)
        return self._run_scalar(trace, i_annotator, d_annotator)

    def _run_batched(
        self,
        trace: Iterable[TraceChunk],
        i_annotator: "_CacheAnnotator",
        d_annotator: "_CacheAnnotator",
    ) -> AnnotatedSimulationResult:
        """Kernel timing plus a scalar annotation replay per chunk.

        The kernel hands each chunk's (block, frame, time) event stream —
        exactly what the scalar loop would have produced — to observers
        that replay the annotators and the stride predictor in event
        order, so flags and predictor state are identical by construction.
        """
        hierarchy = self.hierarchy
        stride_access = self.stride.access
        i_observe = i_annotator.observe
        d_observe = d_annotator.observe

        def i_observer(blocks, frames, times):
            for block, frame, when in zip(
                blocks.tolist(), frames.tolist(), times.tolist()
            ):
                i_observe(block, frame, when, False)

        def d_observer(blocks, frames, times, pcs, addrs, stores):
            for block, frame, when, pc, address, is_store in zip(
                blocks.tolist(), frames.tolist(), times.tolist(),
                pcs.tolist(), addrs.tolist(), stores.tolist(),
            ):
                d_observe(
                    block, frame, when,
                    False if is_store else stride_access(pc, address),
                )

        outcome = run_batched(
            hierarchy, self.clock, trace, i_observer, d_observer
        )
        result = SimulationResult(
            cycles=outcome.cycles,
            instructions=outcome.instructions,
            stall_cycles=outcome.stall_cycles,
            l1i_intervals=hierarchy.l1i.intervals(),
            l1d_intervals=hierarchy.l1d.intervals(),
            stats=hierarchy.stats(),
            profile=outcome.profile,
        )
        return AnnotatedSimulationResult(
            result=result,
            l1i=i_annotator.finish(result.l1i_intervals),
            l1d=d_annotator.finish(result.l1d_intervals),
        )

    def _run_scalar(
        self,
        trace: Iterable[TraceChunk],
        i_annotator: "_CacheAnnotator",
        d_annotator: "_CacheAnnotator",
    ) -> AnnotatedSimulationResult:
        hierarchy = self.hierarchy
        clock = self.clock
        config = clock.config
        l1i, l1d, l2 = hierarchy.l1i, hierarchy.l1d, hierarchy.l2
        offset_bits = hierarchy.config.l1i.offset_bits
        d_offset_bits = hierarchy.config.l1d.offset_bits
        l1i_hit = hierarchy.config.l1i.hit_latency
        l1d_hit = hierarchy.config.l1d.hit_latency
        l2_hit = hierarchy.config.l2.hit_latency
        memory_latency = hierarchy.config.memory_latency
        load_mlp = config.load_mlp
        store_buffer = config.store_buffer
        issue = clock.issue
        stall = clock.stall
        stride_access = self.stride.access
        group_bits = config.fetch_group_bytes.bit_length() - 1
        prev_igroup = -1
        started = _time.perf_counter()

        # Mirror the batched kernel's entry validation on the scalar path.
        for chunk in validated_chunks(trace):
            pcs = chunk.pcs
            addrs = chunk.data_addresses
            kinds = chunk.data_kinds
            for i in range(len(chunk)):
                now = issue()
                pc = int(pcs[i])
                igroup = pc >> group_bits
                if igroup != prev_igroup:
                    prev_igroup = igroup
                    iblock = pc >> offset_bits
                    hit, frame = l1i.access_block_ex(iblock, now)
                    i_annotator.observe(iblock, frame, now, stride_hit=False)
                    if not hit:
                        latency = (
                            l2_hit
                            if l2.access_block(iblock, now)
                            else l2_hit + memory_latency
                        )
                        stall(latency - l1i_hit)
                kind = kinds[i]
                if kind != NO_ACCESS:
                    address = int(addrs[i])
                    block = address >> d_offset_bits
                    is_store = kind == STORE
                    stride_hit = False if is_store else stride_access(pc, address)
                    hit, frame = l1d.access_block_ex(block, now)
                    d_annotator.observe(block, frame, now, stride_hit)
                    if not hit:
                        latency = (
                            l2_hit
                            if l2.access_block(block, now)
                            else l2_hit + memory_latency
                        )
                        if not (is_store and store_buffer):
                            stall(-(-(latency - l1d_hit) // load_mlp))

        end_time = clock.cycle + 1
        hierarchy.finish(end_time)
        accesses = hierarchy.l1i.stats.accesses + hierarchy.l1d.stats.accesses
        result = SimulationResult(
            cycles=end_time,
            instructions=clock.instructions,
            stall_cycles=clock.stall_cycles,
            l1i_intervals=hierarchy.l1i.intervals(),
            l1d_intervals=hierarchy.l1d.intervals(),
            stats=hierarchy.stats(),
            profile=SimulationProfile(
                mode="scalar",
                fast_path_accesses=0,
                slow_path_accesses=accesses,
                stage_seconds={"scalar": _time.perf_counter() - started},
                residual_impl="scalar",
            ),
        )
        return AnnotatedSimulationResult(
            result=result,
            l1i=i_annotator.finish(result.l1i_intervals),
            l1d=d_annotator.finish(result.l1d_intervals),
        )


def annotate_workload_trace(
    trace: Iterable[TraceChunk] | TraceChunk,
    hierarchy: Optional[MemoryHierarchy] = None,
    pipeline: Optional[PipelineConfig] = None,
) -> AnnotatedSimulationResult:
    """One-shot convenience wrapper around :class:`AnnotatingSimulator`."""
    return AnnotatingSimulator(hierarchy, pipeline).run(trace)
