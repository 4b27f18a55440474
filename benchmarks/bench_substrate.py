"""Benches: substrate throughput (simulator, policies, prefetch analysis).

Not paper artifacts — these track the performance of the machinery the
experiments run on, so regressions in the hot loops are visible.
"""

import time

import numpy as np
import pytest

from repro.cache import native
from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.kernel import BatchedCacheKernel
from repro.core.energy import ModeEnergyModel
from repro.core.intervals import IntervalSet
from repro.core.policy import OptHybrid
from repro.core.savings import evaluate_policy
from repro.cpu.simulator import TraceSimulator
from repro.engine import ExecutionEngine, NullStore, ResultStore, SimulationJob
from repro.engine import transport
from repro.power.technology import paper_nodes
from repro.prefetch.analysis import AnnotatingSimulator
from repro.simpoint.bbv import profile_trace
from repro.traces.format import TraceRecording, record_benchmark
from repro.workloads import make_gzip


def test_simulator_throughput(benchmark):
    """Instructions per second through the trace-driven simulator."""

    def run():
        workload = make_gzip(scale=0.05)
        return TraceSimulator().run(workload.chunks())

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.instructions > 50_000
    benchmark.extra_info["instructions"] = result.instructions


def test_annotating_simulator_throughput(benchmark):
    """Simulation plus prefetch annotation, one chunk at a time.

    Next-line flags come from the kernel's own interval gaps plus a
    sorted block carry.  The stride table is trained per chunk by one
    exact LRU-membership pass over the loads, which is most of what
    annotation costs, and an array solve of the stride recurrence.
    """

    def run():
        workload = make_gzip(scale=0.05)
        return AnnotatingSimulator().run(workload.chunks())

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.result.instructions > 50_000


def test_engine_parallel_throughput(benchmark):
    """Suite fan-out through the execution engine (uncached, 2 workers)."""
    jobs = [SimulationJob(name, scale=0.05) for name in ("gzip", "ammp")]

    def run():
        return ExecutionEngine(jobs=2, store=NullStore()).run(jobs)

    outcomes = benchmark.pedantic(run, rounds=2, iterations=1)
    assert all(o.annotated.result.instructions > 50_000 for o in outcomes.values())


def test_engine_warm_cache_throughput(benchmark, tmp_path):
    """A warm-cache engine pass must cost milliseconds, not simulations."""
    jobs = [SimulationJob(name, scale=0.05) for name in ("gzip", "ammp")]
    ExecutionEngine(jobs=1, store=ResultStore(tmp_path)).run(jobs)

    def run():
        return ExecutionEngine(jobs=1, store=ResultStore(tmp_path)).run(jobs)

    outcomes = benchmark.pedantic(run, rounds=3, iterations=1)
    assert all(o.source == "cached" for o in outcomes.values())


def _conflict_stream(n_accesses: int):
    """A stream of guaranteed conflict misses: pure residual-loop work.

    Four blocks map to one set of a 2-way cache and cycle, so every
    access misses, evicts, and lands in the residual loop — the
    vectorized fast path never engages.  This isolates exactly the code
    the compiled kernel replaces.
    """
    blocks = (np.arange(n_accesses, dtype=np.int64) % 4) * 32
    times = np.arange(n_accesses, dtype=np.int64)
    return blocks, times


def _run_residual(residual: str, blocks, times) -> tuple:
    cache = SetAssociativeCache(
        CacheConfig("bench", 4096, 64, 2, 1), "lru"
    )
    kernel = BatchedCacheKernel(cache, residual=residual)
    kernel.access_blocks(blocks, times)
    kernel.finish(int(times[-1]) + 1)
    return cache.stats.accesses, cache.stats.misses


def test_residual_python_throughput(benchmark):
    """The pure-python residual loop on an all-conflict stream."""
    blocks, times = _conflict_stream(200_000)
    accesses, misses = benchmark(_run_residual, "python", blocks, times)
    assert misses == accesses  # nothing hit: all work was residual


def test_residual_compiled_throughput(benchmark):
    """The compiled residual loop on the same all-conflict stream.

    The committed baseline demonstrates the >= 3x residual-loop speedup
    over ``test_residual_python_throughput``; on compiler-less hosts the
    bench is skipped rather than silently timing the fallback.
    """
    if not native.native_available():
        pytest.skip(f"native kernel unavailable: {native.native_build_error()}")
    blocks, times = _conflict_stream(200_000)
    accesses, misses = benchmark(_run_residual, "compiled", blocks, times)
    assert misses == accesses


@pytest.fixture(scope="module")
def dispatch_traces(tmp_path_factory):
    """codec-none traces of ~1e5 and ~1e6 accesses for transport benches."""
    directory = tmp_path_factory.mktemp("dispatch")
    paths = {}
    for label, scale in (("small", 0.022), ("large", 0.22)):
        path = directory / f"gzip-{label}.rtr"
        record_benchmark("gzip", path, scale=scale, codec="none")
        paths[label] = str(path)
    return paths


def _first_chunk_seconds(make_iterator, repeats: int = 20) -> float:
    next(make_iterator())  # warm page cache / handle manifest once
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        chunk = next(make_iterator())
        best = min(best, time.perf_counter() - start)
        assert len(chunk) > 0
    return best


def test_dispatch_first_result_pickle(benchmark, dispatch_traces):
    """Worker time-to-first-chunk streaming the large trace from disk."""
    path = dispatch_traces["large"]

    def run():
        return next(TraceRecording(path).chunks())

    chunk = benchmark(run)
    assert len(chunk) > 0


def test_dispatch_first_result_shm(benchmark, dispatch_traces):
    """Worker time-to-first-chunk attaching to a published shm arena.

    Also pins the headline transport property: the attach cost is flat
    in trace size (<= 1.2x growth from ~1e5 to ~1e6 accesses), where the
    legacy path re-reads and re-verifies proportionally more.
    """
    small, large = dispatch_traces["small"], dispatch_traces["large"]
    transport.REGISTRY.reset()
    assert transport.REGISTRY.acquire(small, "shm") is not None
    assert transport.REGISTRY.acquire(large, "shm") is not None
    try:
        # Attach cost is O(1) in trace size; the bound is tight relative
        # to the ~0.5ms samples, so re-measure on transient noise — a
        # real O(n) regression fails every attempt.
        for _ in range(3):
            t_small = _first_chunk_seconds(
                lambda: transport.overlay_chunks(small)
            )
            t_large = _first_chunk_seconds(
                lambda: transport.overlay_chunks(large)
            )
            growth = t_large / t_small if t_small else float("inf")
            if growth <= 1.2:
                break
        benchmark.extra_info["first_chunk_seconds_1e5"] = t_small
        benchmark.extra_info["first_chunk_seconds_1e6"] = t_large
        benchmark.extra_info["growth_1e5_to_1e6"] = growth
        assert growth <= 1.2, (t_small, t_large)

        def run():
            return next(transport.overlay_chunks(large))

        chunk = benchmark(run)
        assert len(chunk) > 0
    finally:
        transport.REGISTRY.reset()


def test_policy_evaluation_throughput(benchmark):
    """Vectorized Figure 5 accumulation over one million intervals."""
    model = ModeEnergyModel(paper_nodes()[70])
    rng = np.random.default_rng(0)
    intervals = IntervalSet(rng.integers(1, 10**6, size=1_000_000))
    policy = OptHybrid(model)
    result = benchmark(evaluate_policy, policy, intervals)
    assert 0.9 < result.saving_fraction < 1.0


def test_bbv_profiling_throughput(benchmark):
    """SimPoint profiling cost over a gzip trace."""

    def run():
        return profile_trace(make_gzip(scale=0.05).chunks(), window_instructions=10_000)

    profile = benchmark.pedantic(run, rounds=2, iterations=1)
    assert profile.n_windows >= 5


def test_functional_decay_cache(benchmark):
    """The functional cache-decay mechanism on a random reuse stream.

    Cross-checks the mechanism's integrated energy account against the
    analytic Sleep(10K) pricing on the identical access stream.
    """
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.config import CacheConfig
    from repro.cache.decay import DecayCache
    from repro.core.policy import DecaySleep
    from repro.core.savings import evaluate_policy

    rng = np.random.default_rng(7)
    config = CacheConfig("decay", 64 * 1024, 64, 2, 1)
    model = ModeEnergyModel(paper_nodes()[70])
    events = []
    time = 0
    for _ in range(20_000):
        time += int(rng.choice([2, 30, 800, 25_000], p=[0.5, 0.3, 0.15, 0.05]))
        events.append((int(rng.integers(0, 2048)), time))
    end_time = events[-1][1] + 1

    def run():
        cache = DecayCache(config, model, decay_interval=10_000)
        for block, t in events:
            cache.access(block, t)
        cache.finish(end_time)
        return cache.energy_report()

    report_ = benchmark.pedantic(run, rounds=2, iterations=1)

    tracked = SetAssociativeCache(config)
    for block, t in events:
        tracked.access_block(block, t)
    tracked.finish(end_time)
    analytic = evaluate_policy(
        DecaySleep(model, 10_000, counter_overhead=0.0),
        tracked.intervals().as_normal(),
    )
    assert abs(report_.saving_fraction - analytic.saving_fraction) < 0.02
