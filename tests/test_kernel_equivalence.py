"""Kernel/scalar equivalence: the batched path must be bit-identical.

The batched kernel (``repro.cache.kernel``) exists purely for speed; its
contract is that every observable quantity — cache statistics, eviction
counts, interval populations (lengths *and* kinds, in order), timing,
annotation flags — matches the scalar per-access path exactly.  These
tests drive random streams and real workloads through both paths and
compare everything.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.kernel import BatchedCacheKernel, kernel_supported
from repro.core.energy import ModeEnergyModel
from repro.core.intervals import IntervalSet
from repro.core.policy import OptDrowsy, OptHybrid, OptSleep
from repro.core.savings import evaluate_policy
from repro.core.stacked import TRIO_SCHEMES, stacked_trio_savings
from repro.cpu.simulator import simulate_trace
from repro.cpu.trace import LOAD, NO_ACCESS, STORE, TraceChunk
from repro.errors import SimulationError
from repro.power.technology import paper_nodes
from repro.prefetch.analysis import AnnotatingSimulator, _CacheAnnotator
from repro.prefetch.stride import StridePredictor
from repro.workloads import make_benchmark

POLICIES = ("lru", "fifo", "random")
ASSOCIATIVITIES = (1, 2, 4)


def _small_config(associativity: int) -> CacheConfig:
    return CacheConfig(
        name="test",
        size_bytes=4096,
        line_bytes=64,
        associativity=associativity,
        hit_latency=1,
    )


def _random_stream(rng, n_accesses: int, n_blocks: int):
    """A blocks/times pair with reuse, conflict pressure and time gaps."""
    blocks = rng.integers(0, n_blocks, size=n_accesses).astype(np.int64)
    # Inject runs of repeated blocks so the fast path actually engages.
    run_starts = rng.integers(0, n_accesses, size=n_accesses // 4)
    for start in run_starts:
        end = min(start + int(rng.integers(2, 6)), n_accesses)
        blocks[start:end] = blocks[start]
    times = np.cumsum(rng.integers(0, 9, size=n_accesses)).astype(np.int64)
    return blocks, times


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
class TestBatchedCacheKernel:
    def test_matches_scalar_access_path(self, rng, policy, associativity):
        blocks, times = _random_stream(rng, 4000, 96)
        end_time = int(times[-1]) + 1

        scalar = SetAssociativeCache(_small_config(associativity), policy)
        scalar_hits = np.array(
            [scalar.access_block(int(b), int(t)) for b, t in zip(blocks, times)]
        )
        scalar.finish(end_time)

        batched_cache = SetAssociativeCache(_small_config(associativity), policy)
        kernel = BatchedCacheKernel(batched_cache)
        # Feed in several chunks to exercise the cross-chunk carries.
        hits = []
        for lo in range(0, len(blocks), 1024):
            hits.append(kernel.access_blocks(blocks[lo:lo + 1024], times[lo:lo + 1024]))
        kernel.finish(end_time)
        batched_hits = np.concatenate(hits)

        assert np.array_equal(scalar_hits, batched_hits)
        assert batched_cache.stats == scalar.stats
        assert batched_cache.stats.evictions == scalar.stats.evictions
        assert batched_cache.intervals() == scalar.intervals()

    def test_fast_path_engages(self, rng, policy, associativity):
        blocks, times = _random_stream(rng, 4000, 96)
        cache = SetAssociativeCache(_small_config(associativity), policy)
        kernel = BatchedCacheKernel(cache)
        kernel.access_blocks(blocks, times)
        fast, slow = kernel.profile_counts
        assert fast > 0
        assert fast + slow == len(blocks)


class TestBatchedCacheKernelGuards:
    def test_rejects_used_cache(self):
        cache = SetAssociativeCache(_small_config(2), "lru")
        cache.access_block(1, 0)
        with pytest.raises(SimulationError):
            BatchedCacheKernel(cache)

    def test_rejects_time_travel(self):
        cache = SetAssociativeCache(_small_config(2), "lru")
        kernel = BatchedCacheKernel(cache)
        with pytest.raises(SimulationError):
            kernel.access_blocks(
                np.array([1, 2], dtype=np.int64),
                np.array([5, 3], dtype=np.int64),
            )


@pytest.mark.parametrize("policy", POLICIES)
class TestSimulatorEquivalence:
    def test_batched_run_is_bit_identical(self, policy):
        def run(kernel):
            return simulate_trace(
                make_benchmark("gzip", scale=0.02).chunks(),
                MemoryHierarchy(HierarchyConfig.paper(), replacement=policy),
                kernel=kernel,
            )

        scalar, batched = run(False), run(True)
        assert scalar == batched  # profile is excluded from equality
        assert scalar.l1i_intervals == batched.l1i_intervals
        assert scalar.l1d_intervals == batched.l1d_intervals
        assert batched.profile.mode == "batched"
        assert batched.profile.fast_path_share > 0.5
        assert scalar.profile.mode == "scalar"


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
class TestCompiledResidualKernel:
    """The compiled residual loop must be bit-identical to the scalar oracle.

    When no C compiler is available the ``compiled`` request silently
    degrades to the pure-python residual loop, so this matrix passes —
    with identical numbers — on compiler-less hosts too.
    """

    def test_matches_scalar_access_path(self, rng, policy, associativity):
        blocks, times = _random_stream(rng, 4000, 96)
        end_time = int(times[-1]) + 1

        scalar = SetAssociativeCache(_small_config(associativity), policy)
        scalar_hits = np.array(
            [scalar.access_block(int(b), int(t)) for b, t in zip(blocks, times)]
        )
        scalar.finish(end_time)

        compiled_cache = SetAssociativeCache(_small_config(associativity), policy)
        kernel = BatchedCacheKernel(compiled_cache, residual="compiled")
        hits = []
        for lo in range(0, len(blocks), 1024):
            hits.append(
                kernel.access_blocks(blocks[lo:lo + 1024], times[lo:lo + 1024])
            )
        kernel.finish(end_time)

        assert np.array_equal(scalar_hits, np.concatenate(hits))
        assert compiled_cache.stats == scalar.stats
        assert compiled_cache.intervals() == scalar.intervals()


@pytest.mark.parametrize("policy", POLICIES)
class TestResidualImplMatrix:
    """scalar / python-batched / compiled full-simulation equivalence."""

    def test_three_way_bit_identical(self, policy):
        from repro.cache import native

        def run(kernel):
            return simulate_trace(
                make_benchmark("gzip", scale=0.02).chunks(),
                MemoryHierarchy(HierarchyConfig.paper(), replacement=policy),
                kernel=kernel,
            )

        scalar = run("scalar")
        batched = run("batched")
        compiled = run("compiled")
        assert scalar == batched
        assert scalar == compiled
        assert scalar.l1i_intervals == compiled.l1i_intervals
        assert scalar.l1d_intervals == compiled.l1d_intervals
        # The profile reports which residual implementation actually ran.
        assert scalar.profile.residual_impl == "scalar"
        assert batched.profile.mode == "batched"
        assert batched.profile.residual_impl == "python"
        assert compiled.profile.mode == "batched"
        expected = "compiled" if native.native_available() else "python"
        assert compiled.profile.residual_impl == expected


PAPER_BENCHMARKS = ("ammp", "applu", "gcc", "gzip", "mesa", "vortex")


def _rechunk(chunks, piece: int):
    """Re-split a chunk stream into pieces of about ``piece`` instructions."""
    for chunk in chunks:
        for lo in range(0, len(chunk), piece):
            yield chunk.slice(lo, lo + piece)


def _stride_state(predictor):
    rows = [
        (pc, e.last_address, e.stride, e.confirmations)
        for pc, e in predictor._table.items()
    ]
    return rows, predictor.predictions, predictor.correct


def _annotate(trace, path, monkeypatch=None, residual="batched", **kwargs):
    """Run one annotating simulation on the scalar or the batched path."""
    if path == "batched":
        monkeypatch.setenv("REPRO_KERNEL", residual)
    simulator = AnnotatingSimulator(**kwargs)
    simulator._ran = True
    if path == "batched":
        return simulator, simulator._run_batched(trace)
    annotators = tuple(
        _CacheAnnotator(cache.config.n_lines, simulator.active_floor)
        for cache in (simulator.hierarchy.l1i, simulator.hierarchy.l1d)
    )
    return simulator, simulator._run_scalar(trace, *annotators)


def _assert_same_annotation(scalar_run, batched_run):
    (s_sim, scalar), (b_sim, batched) = scalar_run, batched_run
    assert scalar.result == batched.result
    assert scalar.result.l1i_intervals == batched.result.l1i_intervals
    assert scalar.result.l1d_intervals == batched.result.l1d_intervals
    for cache in ("l1i", "l1d"):
        a = scalar.annotated_for(cache)
        b = batched.annotated_for(cache)
        assert np.array_equal(a.nextline, b.nextline), cache
        assert np.array_equal(a.stride, b.stride), cache
        assert np.array_equal(a.tail, b.tail), cache
        # What the result store caches: the pickled populations.
        assert pickle.dumps(a) == pickle.dumps(b), cache
    assert _stride_state(s_sim.stride) == _stride_state(b_sim.stride)


@st.composite
def random_traces(draw):
    """Short traces mixing sequential code, branches, loads and stores."""
    n = draw(st.integers(1, 400))
    steps = draw(st.lists(st.sampled_from([4, 4, 4, 4, 64, -128, 4096]),
                          min_size=n, max_size=n))
    pcs = np.maximum(np.cumsum(steps) + 8192, 0).astype(np.int64)
    kinds = np.asarray(draw(st.lists(st.sampled_from([0, 0, 1, 1, 2]),
                                     min_size=n, max_size=n)), dtype=np.uint8)
    blocks = np.asarray(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)),
                        dtype=np.int64)
    addrs = np.where(kinds != NO_ACCESS, blocks * 32 + (pcs & 24), -1)
    cuts = sorted(set(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=5))))
    return TraceChunk(pcs, addrs.astype(np.int64), kinds), cuts


class TestAnnotationEquivalence:
    """The vectorised annotator against the scalar per-access oracle.

    Flags, tail masks, the pickled populations and the stride
    predictor's table (entries, LRU order, counters) must all match.
    """

    def test_flags_identical_across_paths(self, monkeypatch):
        def trace():
            return make_benchmark("gcc", scale=0.02).chunks()

        _assert_same_annotation(
            _annotate(trace(), "scalar"),
            _annotate(trace(), "batched", monkeypatch),
        )

    _scalar_runs: dict = {}

    @pytest.mark.parametrize("residual", ("batched", "compiled"))
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_paper_benchmarks_in_small_chunks(self, monkeypatch, name, residual):
        # Pieces of a few hundred instructions make the block-last, gap
        # and stride carries cross chunk boundaries constantly.
        def trace():
            return _rechunk(make_benchmark(name, scale=0.02).chunks(), 317)

        if name not in self._scalar_runs:
            self._scalar_runs[name] = _annotate(trace(), "scalar")
        _assert_same_annotation(
            self._scalar_runs[name],
            _annotate(trace(), "batched", monkeypatch, residual),
        )

    @pytest.mark.parametrize("residual", ("batched", "compiled"))
    def test_stride_table_eviction_is_live(self, monkeypatch, residual):
        # 4200 static loads in a loop, each striding through its own
        # array, with a static store after every second load: the
        # 4096-entry table evicts on every lap.
        n_pcs, laps = 6300, 4
        load_pcs = 0x10000 + 4 * np.arange(n_pcs, dtype=np.int64)
        pcs = np.tile(load_pcs, laps)
        lap = np.repeat(np.arange(laps, dtype=np.int64), n_pcs)
        addrs = 0x400000 + (pcs - 0x10000) * 512 + lap * 8
        kinds = np.full(len(pcs), LOAD, dtype=np.uint8)
        kinds[2::3] = STORE
        chunk = TraceChunk(pcs, addrs, kinds)

        def trace():
            return _rechunk([chunk], 2999)  # chunk carries stay live

        scalar = _annotate(trace(), "scalar")
        batched = _annotate(trace(), "batched", monkeypatch, residual)
        _assert_same_annotation(scalar, batched)
        predictor = batched[0].stride
        assert len(predictor) == 4096
        # Unbounded, every load PC would be confident by its third lap.
        unbounded = StridePredictor(capacity=None)
        loads = kinds == LOAD
        assert (
            unbounded.access_many(pcs[loads], addrs[loads]).sum()
            > predictor.correct
        )

    @given(case=random_traces(), capacity=st.sampled_from([2, 4096]))
    @settings(max_examples=60, deadline=None)
    def test_random_traces(self, case, capacity):
        chunk, cuts = case
        bounds = [0] + cuts + [len(chunk)]

        def trace():
            return [chunk.slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_same_annotation(
                _annotate(trace(), "scalar", stride_table_capacity=capacity),
                _annotate(trace(), "batched", monkeypatch,
                          stride_table_capacity=capacity),
            )


class TestKernelSupport:
    def test_paper_hierarchy_supported(self):
        assert kernel_supported(MemoryHierarchy(HierarchyConfig.paper()))

    def test_used_hierarchy_not_supported(self):
        hierarchy = MemoryHierarchy(HierarchyConfig.paper())
        hierarchy.fetch_instruction(0, 0)
        assert not kernel_supported(hierarchy)


class TestStackedEvaluation:
    def test_stacked_matches_per_node_loop_exactly(self, rng):
        lengths = rng.integers(1, 300_000, size=20_000).astype(np.int64)
        intervals = IntervalSet(lengths)
        nodes = paper_nodes()
        models = [ModeEnergyModel(node) for node in nodes.values()]
        stacked = stacked_trio_savings(models, intervals)
        assert stacked.shape == (3, len(models))
        for column, model in enumerate(models):
            reference = (
                evaluate_policy(OptDrowsy(model, name="OPT-Drowsy"), intervals),
                evaluate_policy(OptSleep(model, name="OPT-Sleep"), intervals),
                evaluate_policy(OptHybrid(model), intervals),
            )
            for row, report in enumerate(reference):
                # Exact float equality, not approx: same elementwise ops,
                # same contiguous pairwise reductions.
                assert float(stacked[row, column]) == report.saving_fraction, (
                    TRIO_SCHEMES[row],
                    model.node.name,
                )
