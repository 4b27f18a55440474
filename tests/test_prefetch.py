"""Tests for repro.prefetch — predictors, annotation, A/B schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.intervals import IntervalSet
from repro.cpu.simulator import simulate_trace
from repro.cpu.trace import TraceChunk
from repro.errors import PolicyError, SimulationError
from repro.prefetch.analysis import (
    AnnotatedIntervals,
    AnnotatingSimulator,
    annotate_workload_trace,
)
from repro.prefetch.nextline import NextLinePrefetcher
from repro.prefetch.schemes import (
    PrefetchGuidedPolicy,
    evaluate_prefetch_scheme,
    prefetchability_breakdown,
    prefetchability_summary,
)
from repro.prefetch.stride import StridePredictor
from repro.workloads import make_gzip


class TestStridePredictor:
    def test_needs_two_confirmations(self):
        predictor = StridePredictor()
        hits = [predictor.access(0x40, addr) for addr in (0, 8, 16, 24, 32)]
        # First access trains; stride seen once at 8, twice at 16; the
        # accesses at 24 and 32 are then predicted.
        assert hits == [False, False, False, True, True]

    def test_stride_change_resets_confidence(self):
        predictor = StridePredictor()
        for addr in (0, 8, 16, 24):
            predictor.access(0x40, addr)
        assert predictor.access(0x40, 100) is False  # breaks the stride
        assert predictor.access(0x40, 108) is False  # stride seen once
        assert predictor.access(0x40, 116) is False  # seen twice; predicts next
        assert predictor.access(0x40, 124) is True

    def test_per_pc_isolation(self):
        predictor = StridePredictor()
        for i in range(4):
            predictor.access(0x40, i * 8)
            predictor.access(0x44, i * 1000)
        assert predictor.predict(0x40) == 32
        assert predictor.predict(0x44) == 4000

    def test_capacity_evicts_lru(self):
        predictor = StridePredictor(capacity=2)
        predictor.access(1, 0)
        predictor.access(2, 0)
        predictor.access(3, 0)  # evicts pc=1
        assert len(predictor) == 2
        assert predictor.predict(1) is None

    def test_accuracy_tracking(self):
        predictor = StridePredictor()
        for addr in (0, 8, 16, 24, 999):
            predictor.access(0x40, addr)
        assert predictor.predictions == 2
        assert predictor.correct == 1
        assert predictor.accuracy == pytest.approx(0.5)


def _table_state(predictor):
    """Table rows in LRU order, plus the counters."""
    rows = [
        (pc, e.last_address, e.stride, e.confirmations)
        for pc, e in predictor._table.items()
    ]
    return rows, predictor.predictions, predictor.correct


@st.composite
def load_streams(draw):
    """Loads over a few PCs with mostly-strided addresses, cut into calls."""
    n = draw(st.integers(1, 200))
    pcs = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    steps = draw(st.lists(st.sampled_from([0, 8, 8, 8, -4, 64]), min_size=n, max_size=n))
    addrs = np.cumsum(steps) + 1000
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return np.asarray(pcs, dtype=np.int64), addrs.astype(np.int64), cuts


class TestStridePredictorMany:
    """``access_many`` is the batched form of repeated ``access`` calls."""

    @given(stream=load_streams(), capacity=st.sampled_from([None, 1, 2, 3, 4096]))
    @settings(max_examples=200, deadline=None)
    def test_matches_repeated_access(self, stream, capacity):
        pcs, addrs, cuts = stream
        scalar = StridePredictor(capacity)
        expected = [scalar.access(int(p), int(a)) for p, a in zip(pcs, addrs)]
        batched = StridePredictor(capacity)
        bounds = [0] + cuts + [len(pcs)]
        got = np.concatenate([
            batched.access_many(pcs[lo:hi], addrs[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ])
        assert got.dtype == bool
        assert got.tolist() == expected
        assert _table_state(batched) == _table_state(scalar)

    def test_eviction_resets_the_stride(self):
        pcs = np.array([1, 1, 1, 2, 3, 1, 1, 1, 1], dtype=np.int64)
        addrs = np.array([0, 8, 16, 0, 0, 24, 32, 40, 48], dtype=np.int64)
        predictor = StridePredictor(capacity=2)
        hits = predictor.access_many(pcs, addrs)
        # pc 1 is evicted by pc 3, so its confirmed stride is forgotten
        # and must be confirmed twice again before it predicts.
        assert hits.tolist() == [False] * 8 + [True]

    def test_empty_call_is_a_no_op(self):
        predictor = StridePredictor()
        empty = np.zeros(0, dtype=np.int64)
        assert predictor.access_many(empty, empty).shape == (0,)
        assert len(predictor) == 0 and predictor.predictions == 0


class TestNextLinePrefetcher:
    def _cache(self):
        return SetAssociativeCache(
            CacheConfig("x", 1024, 64, 2, 1), track_generations=False
        )

    def test_prefetches_next_block_on_miss(self):
        prefetcher = NextLinePrefetcher(self._cache())
        prefetcher.access(0, 0)
        assert prefetcher.cache.probe(1)
        assert prefetcher.issued == 1

    def test_redundant_prefetch_counted_useless(self):
        prefetcher = NextLinePrefetcher(self._cache(), on_miss_only=False)
        prefetcher.access(0, 0)   # prefetches 1
        prefetcher.access(0, 1)   # hit; 1 already resident
        assert prefetcher.useless >= 1

    def test_degree(self):
        prefetcher = NextLinePrefetcher(self._cache(), degree=3)
        prefetcher.access(0, 0)
        assert all(prefetcher.cache.probe(b) for b in (1, 2, 3))


class TestAnnotatedIntervals:
    def _make(self, lengths, nl, st, tail=None):
        n = len(lengths)
        return AnnotatedIntervals(
            IntervalSet(lengths),
            np.array(nl, dtype=bool),
            np.array(st, dtype=bool),
            np.array(tail if tail is not None else [False] * n, dtype=bool),
        )

    def test_flag_alignment_enforced(self):
        with pytest.raises(SimulationError):
            self._make([10, 20], [True], [False, False])

    def test_nl_stride_disjointness_enforced(self):
        with pytest.raises(SimulationError):
            self._make([10], [True], [True])

    def test_prefetchability_fraction(self):
        annotated = self._make([10, 20, 30, 40], [True, False, False, False],
                               [False, True, False, False])
        assert annotated.prefetchability == pytest.approx(0.5)


class TestAnnotatingSimulator:
    def test_timing_identical_to_plain_simulator(self):
        plain = simulate_trace(make_gzip(scale=0.05).chunks())
        annotated = annotate_workload_trace(make_gzip(scale=0.05).chunks())
        assert annotated.result.cycles == plain.cycles
        assert annotated.result.instructions == plain.instructions
        assert annotated.result.l1i_intervals == plain.l1i_intervals
        assert annotated.result.l1d_intervals == plain.l1d_intervals

    def test_flags_align_with_intervals(self):
        annotated = annotate_workload_trace(make_gzip(scale=0.05).chunks())
        for view in (annotated.l1i, annotated.l1d):
            assert view.nextline.shape == (len(view.intervals),)
            assert not np.any(view.nextline & view.stride)

    def test_sequential_code_is_nextline_prefetchable(self):
        # A straight-line loop: every line's re-fetch follows its
        # predecessor's fetch, so long intervals are NL-covered.
        body = np.arange(1024, dtype=np.int64) * 4  # 4KB straight-line loop
        trace = TraceChunk(np.tile(body, 50))
        annotated = AnnotatingSimulator().run(trace)
        view = annotated.l1i
        eligible = (view.intervals.lengths > 6) & ~view.tail
        assert float(view.nextline[eligible].mean()) > 0.9

    def test_strided_loads_are_stride_prefetchable(self):
        # One static load striding by 256B (skips lines, defeating NL).
        n = 2000
        pcs = np.tile(np.arange(16, dtype=np.int64) * 4, n // 16)
        addrs = np.full(n, -1, dtype=np.int64)
        addrs[pcs == 0] = np.arange((pcs == 0).sum(), dtype=np.int64) * 256
        trace = TraceChunk(pcs, addrs)
        annotated = AnnotatingSimulator().run(trace)
        view = annotated.l1d
        flagged = int(view.stride.sum())
        assert flagged > 50

    def test_single_use(self):
        simulator = AnnotatingSimulator()
        simulator.run(TraceChunk(np.zeros(10, dtype=np.int64)))
        with pytest.raises(SimulationError):
            simulator.run(TraceChunk(np.zeros(10, dtype=np.int64)))

    def test_tail_flags_cover_unclosed_intervals(self):
        annotated = AnnotatingSimulator().run(
            TraceChunk(np.zeros(10, dtype=np.int64))
        )
        # Every frame's final interval is a tail; exactly n_frames of them.
        assert int(annotated.l1i.tail.sum()) == 1024
        assert int(annotated.l1d.tail.sum()) == 1024


class TestPrefetchSchemes:
    def _annotated(self, model):
        lengths = [3, 100, 100, 5000, 5000, 100_000]
        nl = [False, True, False, True, False, False]
        st = [False, False, False, False, False, False]
        tail = [False, False, False, False, False, True]
        return AnnotatedIntervals(
            IntervalSet(lengths),
            np.array(nl), np.array(st), np.array(tail),
        )

    def test_prefetch_a_keeps_np_active(self, model70):
        annotated = self._annotated(model70)
        policy = PrefetchGuidedPolicy(model70, annotated.prefetchable, power_first=False)
        codes = policy.modes(annotated.intervals.lengths)
        # NP intervals (index 2 and 4) stay active; P intervals get modes.
        assert list(codes) == [0, 1, 0, 2, 0, 2]

    def test_prefetch_b_drowsies_np(self, model70):
        annotated = self._annotated(model70)
        policy = PrefetchGuidedPolicy(model70, annotated.prefetchable, power_first=True)
        codes = policy.modes(annotated.intervals.lengths)
        assert list(codes) == [0, 1, 1, 2, 1, 2]

    def test_b_saves_at_least_a(self, model70):
        annotated = self._annotated(model70)
        a = evaluate_prefetch_scheme(annotated, model70, power_first=False)
        b = evaluate_prefetch_scheme(annotated, model70, power_first=True)
        assert b.savings.saving_fraction >= a.savings.saving_fraction

    def test_a_has_no_wakeup_stalls(self, model70):
        annotated = self._annotated(model70)
        a = evaluate_prefetch_scheme(annotated, model70, power_first=False)
        b = evaluate_prefetch_scheme(annotated, model70, power_first=True)
        assert a.wakeup_stall_cycles == 0
        assert b.wakeup_stall_cycles == 2 * model70.durations.d3
        assert b.stall_overhead > 0

    def test_mask_alignment_enforced(self, model70):
        policy = PrefetchGuidedPolicy(model70, np.array([True]), power_first=True)
        with pytest.raises(PolicyError):
            policy.modes(np.array([10, 20]))

    def test_breakdown_ranges(self, model70):
        annotated = self._annotated(model70)
        rows = prefetchability_breakdown(annotated, model70)
        assert len(rows) == 3
        assert rows[0].total == 1           # the length-3 interval
        assert rows[1].total == 2           # the two 100-cycle intervals
        assert rows[2].total == 3           # 5000, 5000, 100000
        assert sum(r.nextline for r in rows) == 2

    def test_summary_fractions(self, model70):
        annotated = self._annotated(model70)
        summary = prefetchability_summary(annotated, model70)
        assert summary["nextline"] == pytest.approx(2 / 6)
        assert summary["stride"] == pytest.approx(0.0)
