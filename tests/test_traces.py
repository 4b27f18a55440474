"""Real-trace ingestion: format, registry, streaming equality, SimPoint.

The contract under test: *where a workload comes from never changes
what it computes*.  A benchmark recorded to disk and streamed back
shares the synthetic original's content address and serializes to the
byte-identical result document; a foreign trace is keyed by a
chunking- and codec-independent content digest; corruption anywhere in
a trace file is detected and named before it can poison a simulation;
and SimPoint estimation over a recorded trace reconstructs whole-trace
savings within a stated error bound.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cache.kernel import validate_chunk, validated_chunks
from repro.cli import main
from repro.cpu.simulator import simulate_trace
from repro.cpu.trace import LOAD, NO_ACCESS, STORE, TraceChunk, merge_chunks
from repro.engine import (
    ExecutionEngine,
    NullStore,
    ResultStore,
    RetryPolicy,
    SimulationJob,
)
from repro.engine.jobs import SOURCE_CACHED, SOURCE_PARALLEL, SOURCE_SUBPROCESS
from repro.errors import (
    ConfigurationError,
    EngineError,
    TraceError,
    TraceFormatError,
    TraceValidationError,
    WorkloadRefError,
)
from repro.service.protocol import dumps_stable, job_result_payload, parse_job_spec
from repro.sweep import SweepSpec
from repro.traces import (
    ConversionReport,
    TraceRecording,
    TraceWriter,
    WorkloadRegistry,
    available_codecs,
    convert_gem5_text,
    format_trace_ref,
    is_trace_ref,
    parse_trace_ref,
    read_trace,
    record_benchmark,
    record_chunks,
    trace_info,
)
from repro.traces.estimate import (
    SimPointPlan,
    estimate_savings,
    exact_savings,
    load_plan,
    plan_simpoints,
    save_plan,
)
from repro.workloads.benchmarks import make_benchmark

#: Small enough that one simulation takes well under a second.
SMALL = 0.02


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir and a clean engine environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for var in ("REPRO_CACHE_MAX_MB", "REPRO_JOBS", "REPRO_BACKEND"):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


@pytest.fixture(scope="module")
def gzip_chunks():
    """The synthetic gzip workload's chunks, materialized once."""
    return list(make_benchmark("gzip", scale=SMALL).chunks())


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, gzip_chunks):
    """A gzip trace recorded once for the whole module (read-only!)."""
    path = tmp_path_factory.mktemp("traces") / "gzip.rtr"
    info = record_benchmark("gzip", path, scale=SMALL, chunk_instructions=20_000)
    return info


@pytest.fixture(scope="module")
def recorded_none(tmp_path_factory, gzip_chunks):
    """The same gzip trace, uncompressed (codec ``none``)."""
    path = tmp_path_factory.mktemp("traces-none") / "gzip.rtr"
    return record_chunks(gzip_chunks, path, codec="none", chunk_instructions=20_000)


def serial_engine(tmp_path):
    return ExecutionEngine(
        jobs=1, backend="serial", store=ResultStore(tmp_path / "engine-cache")
    )


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------
class TestFormat:
    @pytest.mark.parametrize("codec", available_codecs())
    def test_round_trip_is_byte_identical_per_codec(
        self, tmp_path, gzip_chunks, codec
    ):
        path = tmp_path / f"rt-{codec}.rtr"
        info = record_chunks(gzip_chunks, path, codec=codec)
        original = merge_chunks(gzip_chunks)
        restored = merge_chunks(read_trace(path))
        assert np.array_equal(original.pcs, restored.pcs)
        assert np.array_equal(original.data_addresses, restored.data_addresses)
        assert np.array_equal(original.data_kinds, restored.data_kinds)
        assert info.codec == codec
        assert info.instructions == len(original)
        assert info.file_bytes == path.stat().st_size

    def test_gzip_is_available_everywhere(self):
        assert "none" in available_codecs()
        assert "gzip" in available_codecs()

    def test_digest_is_independent_of_chunking_and_codec(
        self, tmp_path, gzip_chunks
    ):
        a = record_chunks(
            gzip_chunks, tmp_path / "a.rtr", codec="none", chunk_instructions=7_000
        )
        b = record_chunks(
            gzip_chunks, tmp_path / "b.rtr", codec="gzip", chunk_instructions=50_000
        )
        assert a.digest == b.digest
        assert a.instructions == b.instructions
        assert a.chunks != b.chunks

    def test_writer_rechunks_to_exact_size(self, tmp_path, gzip_chunks):
        info = record_chunks(
            gzip_chunks, tmp_path / "re.rtr", chunk_instructions=10_000
        )
        sizes = [len(c) for c in read_trace(info.path)]
        assert all(n == 10_000 for n in sizes[:-1])
        assert 0 < sizes[-1] <= 10_000
        assert sum(sizes) == info.instructions

    def test_writer_abort_leaves_nothing_behind(self, tmp_path, gzip_chunks):
        writer = TraceWriter(tmp_path / "aborted.rtr")
        writer.append(gzip_chunks[0])
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_writer_context_exception_aborts(self, tmp_path, gzip_chunks):
        with pytest.raises(RuntimeError):
            with TraceWriter(tmp_path / "boom.rtr") as writer:
                writer.append(gzip_chunks[0])
                raise RuntimeError("producer died")
        assert list(tmp_path.iterdir()) == []

    def test_not_a_trace_file(self, tmp_path):
        bogus = tmp_path / "bogus.rtr"
        bogus.write_bytes(b"this is not a trace file at all........")
        with pytest.raises(TraceFormatError):
            TraceRecording(bogus)

    def test_truncated_file_is_detected(self, tmp_path, recorded):
        data = Path(recorded.path).read_bytes()
        clipped = tmp_path / "clipped.rtr"
        clipped.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            TraceRecording(clipped).validate()

    def test_missing_trailer_is_detected(self, tmp_path, recorded):
        data = Path(recorded.path).read_bytes()
        cut = tmp_path / "cut.rtr"
        cut.write_bytes(data[:-16])
        with pytest.raises(TraceFormatError):
            TraceRecording(cut).info()

    def test_corrupt_chunk_payload_is_detected(self, tmp_path, gzip_chunks):
        # Uncompressed payloads dominate the file, so a flipped byte in
        # the middle lands in chunk data and trips the per-chunk digest.
        info = record_chunks(gzip_chunks, tmp_path / "flip.rtr", codec="none")
        data = bytearray(Path(info.path).read_bytes())
        data[len(data) // 2] ^= 0xFF
        Path(info.path).write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            TraceRecording(info.path).validate()

    def test_validate_passes_on_good_file(self, recorded):
        info = TraceRecording(recorded.path).validate()
        assert info.digest == recorded.digest
        assert info.instructions == recorded.instructions

    def test_window_chunks_match_inline_slice(self, recorded, gzip_chunks):
        n = 20_000
        window = merge_chunks(TraceRecording(recorded.path).window_chunks(1, n))
        inline = merge_chunks(gzip_chunks).slice(n, 2 * n)
        assert np.array_equal(window.pcs, inline.pcs)
        assert np.array_equal(window.data_addresses, inline.data_addresses)
        assert np.array_equal(window.data_kinds, inline.data_kinds)

    def test_window_beyond_eof_is_an_error(self, recorded):
        beyond = recorded.instructions // 1000 + 5
        with pytest.raises(ConfigurationError):
            list(TraceRecording(recorded.path).window_chunks(beyond, 1000))

    def test_unknown_codec_is_a_config_error(self, tmp_path, gzip_chunks):
        with pytest.raises(ConfigurationError):
            record_chunks(gzip_chunks, tmp_path / "x.rtr", codec="brotli")


# ----------------------------------------------------------------------
# Workload registry and refs
# ----------------------------------------------------------------------
class TestRegistry:
    def test_ref_round_trip(self, tmp_path):
        ref = format_trace_ref(tmp_path / "t.rtr")
        assert is_trace_ref(ref)
        parsed = parse_trace_ref(ref)
        assert str(parsed.path) == str(tmp_path / "t.rtr")
        assert parsed.window is None

        windowed = format_trace_ref(
            tmp_path / "t.rtr", window=3, window_instructions=50_000
        )
        parsed = parse_trace_ref(windowed)
        assert (parsed.window, parsed.window_instructions) == (3, 50_000)
        assert parsed.ref == windowed

    def test_malformed_ref_is_named(self):
        with pytest.raises(WorkloadRefError):
            parse_trace_ref("gzip")

    def test_unknown_benchmark_names_the_alternatives(self):
        with pytest.raises(WorkloadRefError, match="unknown benchmark"):
            WorkloadRegistry().resolve("quake3")

    def test_register_rejects_reserved_names(self):
        registry = WorkloadRegistry()
        with pytest.raises(WorkloadRefError):
            registry.register("", lambda **kw: None)
        with pytest.raises(WorkloadRefError):
            registry.register("trace:sneaky", lambda **kw: None)

    def test_recorded_paper_trace_shares_the_synthetic_content_address(
        self, recorded
    ):
        synthetic = SimulationJob("gzip", scale=SMALL)
        traced = SimulationJob(format_trace_ref(recorded.path))
        assert synthetic.key() == traced.key()
        assert synthetic.canonical_workload() == traced.canonical_workload()

    def test_foreign_trace_is_keyed_by_digest_not_chunking(
        self, tmp_path, gzip_chunks
    ):
        # No provenance: the identity must come from the content digest,
        # so re-encoding with a different codec/chunking keeps the key.
        a = record_chunks(
            gzip_chunks, tmp_path / "fa.rtr", codec="none", chunk_instructions=9_000
        )
        b = record_chunks(
            gzip_chunks, tmp_path / "fb.rtr", codec="gzip", chunk_instructions=30_000
        )
        job_a = SimulationJob(format_trace_ref(a.path))
        job_b = SimulationJob(format_trace_ref(b.path))
        assert job_a.key() == job_b.key()
        # ...and differs from the provenance-carrying recording's key.
        assert job_a.key() != SimulationJob("gzip", scale=SMALL).key()

    def test_window_ref_has_its_own_key(self, recorded):
        full = SimulationJob(format_trace_ref(recorded.path))
        window = SimulationJob(
            format_trace_ref(recorded.path, window=0, window_instructions=20_000)
        )
        assert full.key() != window.key()

    def test_trace_ref_requires_unit_scale(self, recorded):
        with pytest.raises(EngineError, match="scale"):
            SimulationJob(format_trace_ref(recorded.path), scale=0.5)

    def test_missing_trace_file_fails_at_job_construction(self, tmp_path):
        with pytest.raises(EngineError, match="does not exist"):
            SimulationJob(format_trace_ref(tmp_path / "nope.rtr"))

    def test_trace_info_caches_by_stat(self, recorded):
        first = trace_info(recorded.path)
        second = trace_info(recorded.path)
        assert first is second

    def test_sweep_spec_resolves_trace_refs(self, recorded):
        ref = format_trace_ref(recorded.path)
        spec = SweepSpec(name="traced", benchmarks=("gzip", ref))
        assert spec.simulation_points == 2

    def test_sweep_spec_rejects_scaled_trace_refs(self, recorded):
        ref = format_trace_ref(recorded.path)
        with pytest.raises(ConfigurationError, match="scale"):
            SweepSpec(name="traced", benchmarks=(ref,), scales=(0.5,))

    def test_sweep_spec_rejects_missing_trace(self, tmp_path):
        ref = format_trace_ref(tmp_path / "missing.rtr")
        with pytest.raises(ConfigurationError, match="does not exist"):
            SweepSpec(name="traced", benchmarks=(ref,))


# ----------------------------------------------------------------------
# Streaming equality: recorded == inline, through engine and protocol
# ----------------------------------------------------------------------
class TestStreamingEquality:
    def test_recorded_trace_payload_is_byte_identical_to_inline(
        self, tmp_path, recorded
    ):
        engine = serial_engine(tmp_path)
        synthetic = SimulationJob("gzip", scale=SMALL)
        traced = SimulationJob(format_trace_ref(recorded.path))
        doc_syn = job_result_payload(synthetic, engine.run_one(synthetic).annotated)
        doc_tr = job_result_payload(traced, engine.run_one(traced).annotated)
        assert dumps_stable(doc_syn) == dumps_stable(doc_tr)

    def test_trace_job_hits_the_synthetic_cache_entry(self, tmp_path, recorded):
        # Same content address -> the serving path coalesces and caches
        # the two submissions as one computation.
        engine = serial_engine(tmp_path)
        engine.run_one(SimulationJob("gzip", scale=SMALL))
        outcome = engine.run_one(SimulationJob(format_trace_ref(recorded.path)))
        assert outcome.source == SOURCE_CACHED

    def test_parse_job_spec_accepts_trace_refs(self, recorded):
        job = parse_job_spec({"benchmark": format_trace_ref(recorded.path)})
        assert job.key() == SimulationJob("gzip", scale=SMALL).key()

    def test_window_job_simulates_exactly_the_window(self, recorded, gzip_chunks):
        n = 20_000
        windowed = simulate_trace(TraceRecording(recorded.path).window_chunks(1, n))
        inline = simulate_trace(merge_chunks(gzip_chunks).slice(n, 2 * n))
        assert windowed.instructions == inline.instructions == n
        assert windowed.cycles == inline.cycles
        assert windowed.l1i_intervals == inline.l1i_intervals
        assert windowed.l1d_intervals == inline.l1d_intervals

    @pytest.mark.parametrize(
        "backend,faults",
        [
            ("pool", None),
            ("subprocess", None),
            ("pool", "crash:*@*:attempt=1"),
            ("subprocess", "crash:*@*:attempt=1"),
        ],
        ids=["pool", "subprocess", "pool-crash", "subprocess-crash"],
    )
    def test_worker_backends_match_serial(
        self, recorded_none, monkeypatch, backend, faults
    ):
        # Each worker streams its trace job from the file; a worker that
        # dies mid-job on the first attempt costs a retry, not a result.
        path = recorded_none.path
        jobs = [
            SimulationJob(format_trace_ref(path)),
            SimulationJob(format_trace_ref(path, 1, 20_000)),
        ]

        def documents(engine):
            outcomes = engine.run(jobs)
            docs = [
                dumps_stable(job_result_payload(job, outcomes[job].annotated))
                for job in jobs
            ]
            return outcomes, docs

        _, expected = documents(
            ExecutionEngine(jobs=1, backend="serial", store=NullStore())
        )
        if faults is not None:
            monkeypatch.setenv("REPRO_FAULTS", faults)
        outcomes, actual = documents(
            ExecutionEngine(
                jobs=2,
                backend=backend,
                store=NullStore(),
                retry=RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05),
            )
        )
        assert actual == expected
        if faults is None:
            worker = SOURCE_PARALLEL if backend == "pool" else SOURCE_SUBPROCESS
            assert {outcomes[job].source for job in jobs} == {worker}
        else:
            assert all(outcomes[job].attempts > 1 for job in jobs)


# ----------------------------------------------------------------------
# Kernel entry validation
# ----------------------------------------------------------------------
class TestKernelValidation:
    def good_chunk(self):
        pcs = np.arange(64, dtype=np.int64) * 4
        addrs = np.where(pcs % 16 == 0, pcs * 2, -1).astype(np.int64)
        kinds = np.where(addrs >= 0, LOAD, NO_ACCESS).astype(np.uint8)
        return TraceChunk(pcs, addrs, kinds)

    def test_good_chunk_passes(self):
        chunk = self.good_chunk()
        assert validate_chunk(chunk, 0) is chunk

    def test_non_chunk_object_is_named(self):
        with pytest.raises(TraceValidationError, match="TraceChunk"):
            validate_chunk(np.arange(8), 3)

    def test_wrong_dtype_is_named_with_chunk_index(self):
        chunk = self.good_chunk()
        chunk.pcs = chunk.pcs.astype(np.float64)
        with pytest.raises(TraceValidationError, match="trace chunk 2"):
            validate_chunk(chunk, 2)

    def test_shape_mismatch(self):
        chunk = self.good_chunk()
        chunk.data_kinds = chunk.data_kinds[:-1]
        with pytest.raises(TraceValidationError):
            validate_chunk(chunk)

    def test_unknown_kind_code(self):
        chunk = self.good_chunk()
        chunk.data_kinds = chunk.data_kinds.copy()
        chunk.data_kinds[5] = STORE + 7
        with pytest.raises(TraceValidationError):
            validate_chunk(chunk)

    def test_access_without_address(self):
        chunk = self.good_chunk()
        chunk.data_kinds = chunk.data_kinds.copy()
        chunk.data_kinds[1] = LOAD  # addr stays -1
        with pytest.raises(TraceValidationError):
            validate_chunk(chunk)

    def test_negative_pc(self):
        chunk = self.good_chunk()
        chunk.pcs = chunk.pcs.copy()
        chunk.pcs[0] = -8
        with pytest.raises(TraceValidationError):
            validate_chunk(chunk)

    def test_simulate_trace_validates_on_both_paths(self):
        for kernel in (True, False):
            chunk = self.good_chunk()
            chunk.pcs = chunk.pcs.astype(np.int32)
            with pytest.raises(TraceValidationError):
                simulate_trace([chunk], kernel=kernel)

    def test_validated_chunks_is_lazy(self):
        stream = validated_chunks([self.good_chunk(), object()])
        next(stream)  # first chunk is fine
        with pytest.raises(TraceValidationError, match="trace chunk 1"):
            next(stream)

    def test_validation_error_is_a_simulation_error(self):
        from repro.errors import SimulationError

        assert issubclass(TraceValidationError, SimulationError)


# ----------------------------------------------------------------------
# gem5 text adapter
# ----------------------------------------------------------------------
GEM5_SAMPLE = """\
  1000: system.cpu T0 : 0x4008a0    : addi  a0, a0, 1  : IntAlu :  D=0x0000000000000005
  1500: system.cpu T0 : 0x4008a4    : ld  a1, 0(a0)  : MemRead :  D=0x00000000000000aa A=0x80004000
  2000: system.cpu T0 : 0x4008a8    : sd  a1, 8(a0)  : MemWrite :  D=0x00000000000000aa A=0x80004008
this line is not an instruction record
  2500: system.cpu T0 : 0x4008ac    : beq  a1, zero  : IntAlu :
"""


class TestGem5Adapter:
    def write_sample(self, tmp_path, text=GEM5_SAMPLE):
        source = tmp_path / "gem5.trace"
        source.write_text(text, encoding="utf-8")
        return source

    def test_conversion_counts_and_simulates(self, tmp_path):
        source = self.write_sample(tmp_path)
        report = convert_gem5_text(source, tmp_path / "gem5.rtr")
        assert isinstance(report, ConversionReport)
        assert report.instructions == 4
        assert report.loads == 1
        assert report.stores == 1
        assert report.skipped_lines == 1
        chunk = merge_chunks(read_trace(report.info.path))
        assert list(chunk.data_kinds) == [NO_ACCESS, LOAD, STORE, NO_ACCESS]
        assert chunk.data_addresses[1] == 0x80004000
        result = simulate_trace(chunk)
        assert result.instructions == 4

    def test_conversion_stamps_provenance(self, tmp_path):
        source = self.write_sample(tmp_path)
        report = convert_gem5_text(source, tmp_path / "gem5.rtr")
        assert report.info.provenance["adapter"] == "gem5-text"
        assert report.info.provenance["source"] == "gem5.trace"

    def test_converted_trace_is_a_valid_workload(self, tmp_path):
        source = self.write_sample(tmp_path)
        report = convert_gem5_text(source, tmp_path / "gem5.rtr")
        job = SimulationJob(format_trace_ref(report.info.path))
        assert "trace" in job.fingerprint()

    def test_unrecognizable_input_is_an_error(self, tmp_path):
        source = self.write_sample(tmp_path, text="nothing here\nat all\n")
        with pytest.raises(TraceError, match="no gem5 Exec instructions"):
            convert_gem5_text(source, tmp_path / "empty.rtr")

    def test_missing_source_is_an_error(self, tmp_path):
        with pytest.raises(TraceError):
            convert_gem5_text(tmp_path / "absent.trace", tmp_path / "x.rtr")


# ----------------------------------------------------------------------
# Cache accounting for trace artifacts
# ----------------------------------------------------------------------
class TestTraceStoreAccounting:
    def test_info_counts_trace_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "acct")
        assert store.info()["trace_files"] == 0
        store.traces_dir.mkdir(parents=True)
        (store.traces_dir / "a.rtr").write_bytes(b"x" * 1000)
        (store.traces_dir / "b.rtr").write_bytes(b"y" * 500)
        info = store.info()
        assert info["trace_files"] == 2
        assert info["trace_bytes"] == 1500

    def test_traces_count_toward_the_limit_but_are_never_evicted(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "acct", max_mb=0.001)  # ~1 KiB budget
        store.traces_dir.mkdir(parents=True)
        trace = store.traces_dir / "precious.rtr"
        trace.write_bytes(b"t" * 4096)  # alone exceeds the budget
        for i in range(3):
            store.put(f"{i:064x}", {"payload": "p" * 256})
        # Entries get evicted to chase a budget the traces already blow,
        # but the trace artifact itself must survive.
        assert trace.exists()
        assert store.evictions > 0

    def test_cli_cache_info_reports_traces(self, tmp_path, capsys):
        store = ResultStore()  # REPRO_CACHE_DIR from the fixture
        store.traces_dir.mkdir(parents=True)
        (store.traces_dir / "t.rtr").write_bytes(b"z" * 2048)
        assert main(["cache", "info", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["trace_files"] == 1
        assert document["trace_bytes"] == 2048
        assert main(["cache", "info"]) == 0
        assert "traces:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# SimPoint-backed whole-trace estimation
# ----------------------------------------------------------------------
class TestSimPointEstimation:
    def test_plan_is_deterministic_and_round_trips(self, tmp_path, recorded):
        plan = plan_simpoints(
            recorded.path, window_instructions=20_000, max_k=4, seed=0
        )
        again = plan_simpoints(
            recorded.path, window_instructions=20_000, max_k=4, seed=0
        )
        assert plan == again
        assert abs(sum(plan.weights) - 1.0) < 1e-9
        path = save_plan(plan, tmp_path / "plan.json")
        assert load_plan(path) == plan

    def test_plan_rejects_inconsistent_weights(self, recorded):
        with pytest.raises(ConfigurationError):
            SimPointPlan(
                trace_path=str(recorded.path),
                trace_digest=recorded.digest,
                window_instructions=20_000,
                windows=(0, 1),
                weights=(0.9, 0.3),
                n_windows=10,
            )

    def test_window_jobs_have_distinct_keys(self, recorded):
        plan = plan_simpoints(recorded.path, window_instructions=20_000, max_k=4)
        jobs = plan.window_jobs(None)
        assert len(jobs) == len(plan.windows)
        assert len({job.key() for job in jobs}) == len(jobs)

    def test_estimate_matches_exact_within_bound(self, tmp_path, recorded):
        # The stated bound: on the calibrated 70/100 nm nodes (where
        # leakage dominates and the breakeven intervals fit inside a
        # window) the SimPoint estimate reconstructs whole-trace savings
        # to within 0.08 absolute.  Measured error on this fixture is
        # ~0.01; the bound leaves ~7x headroom for platform variance.
        engine = serial_engine(tmp_path)
        plan = plan_simpoints(recorded.path, window_instructions=50_000, max_k=3)
        est = estimate_savings(plan, nodes=(70, 100), engine=engine)
        exact = exact_savings(recorded.path, nodes=(70, 100), engine=engine)
        assert est.max_abs_error(exact) < 0.08

    def test_window_truncation_only_loses_sleep_savings(self, tmp_path, recorded):
        # Windowing truncates idle intervals, so the estimator can only
        # *under*-state OPT-Sleep savings at nodes whose breakeven
        # interval exceeds the window (180 nm) — never invent them.
        engine = serial_engine(tmp_path)
        plan = plan_simpoints(recorded.path, window_instructions=50_000, max_k=3)
        est = estimate_savings(plan, nodes=(180,), engine=engine)
        exact = exact_savings(recorded.path, nodes=(180,), engine=engine)
        for cache in ("icache", "dcache"):
            assert est.saving(cache, "OPT-Sleep", 180) <= (
                exact.saving(cache, "OPT-Sleep", 180) + 0.02
            )

    def test_estimate_document_is_json_stable(self, tmp_path, recorded):
        engine = serial_engine(tmp_path)
        plan = plan_simpoints(recorded.path, window_instructions=50_000, max_k=2)
        est = estimate_savings(plan, nodes=(70,), engine=engine)
        document = est.to_dict()
        assert json.loads(dumps_stable(document)) == document


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestTraceCli:
    def test_record_info_validate_cycle(self, tmp_path, capsys):
        out = tmp_path / "cli.rtr"
        assert main(
            ["trace", "record", "gzip", "--scale", str(SMALL), "--output", str(out)]
        ) == 0
        assert "digest:" in capsys.readouterr().out
        assert main(["trace", "info", str(out), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["provenance"] == {"benchmark": "gzip", "scale": SMALL}
        assert main(["trace", "validate", str(out)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_record_rejects_unknown_benchmark(self, tmp_path, capsys):
        code = main(["trace", "record", "quake3", "--output", str(tmp_path / "x.rtr")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_reports_corruption(self, tmp_path, capsys, recorded):
        clipped = tmp_path / "clipped.rtr"
        clipped.write_bytes(Path(recorded.path).read_bytes()[:-40])
        assert main(["trace", "validate", str(clipped)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_convert_and_run_through_sweep_ref(self, tmp_path, capsys):
        source = tmp_path / "gem5.trace"
        source.write_text(GEM5_SAMPLE, encoding="utf-8")
        out = tmp_path / "gem5.rtr"
        argv = ["trace", "convert", str(source), "--output", str(out), "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instructions"] == 4
        assert out.exists()

    def test_run_accepts_trace_refs(self, tmp_path, capsys):
        out = tmp_path / "run.rtr"
        record_benchmark("gzip", out, scale=SMALL)
        assert main(["run", "distributions", "--benchmarks", f"trace:{out}"]) == 0
        assert f"trace:{out}" in capsys.readouterr().out

    def test_run_rejects_unknown_refs_cleanly(self, tmp_path, capsys):
        code = main(
            ["run", "distributions", "--benchmarks", f"trace:{tmp_path / 'no.rtr'}"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_simpoints_estimate_against_exact(self, tmp_path, capsys):
        out = tmp_path / "sp.rtr"
        record_benchmark("gzip", out, scale=SMALL, chunk_instructions=20_000)
        code = main(
            [
                "trace", "simpoints", str(out),
                "--window-instructions", "50000",
                "--max-k", "3",
                "--estimate", "--exact",
                "--nodes", "70", "100",
                "--max-error", "0.08",
                "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["max_abs_error"] < 0.08
        assert document["plan"]["trace_digest"]
