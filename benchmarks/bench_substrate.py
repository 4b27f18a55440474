"""Benches: substrate throughput (simulator, policies, prefetch analysis).

Not paper artifacts — these track the performance of the machinery the
experiments run on, so regressions in the hot loops are visible.
"""

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
def dispatch_trace(tmp_path_factory):
    """A codec-none trace of ~1e6 accesses for the first-chunk bench."""
    path = tmp_path_factory.mktemp("dispatch") / "gzip-large.rtr"
    record_benchmark("gzip", path, scale=0.22, codec="none")
    return str(path)


def test_dispatch_first_result_pickle(benchmark, dispatch_trace):
    """Worker time-to-first-chunk streaming the large trace from disk."""

    def run():
        return next(TraceRecording(dispatch_trace).chunks())

    chunk = benchmark(run)
    assert len(chunk) > 0


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
