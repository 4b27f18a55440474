"""Command-line interface: ``repro-leakage`` / ``python -m repro``.

Six subcommands::

    repro-leakage run <experiment> [...]   # tables/figures (the default)
    repro-leakage cache {info,clear}       # result-cache maintenance
    repro-leakage sweep {plan,run,status,merge}  # sharded parameter sweeps
    repro-leakage trace {record,info,validate,convert,simpoints}  # traces
    repro-leakage serve [...]              # the leakage-analysis daemon
    repro-leakage submit <verb> [...]      # client for a running daemon

The historical flat forms keep working — a bare experiment name implies
``run``::

    repro-leakage list
    repro-leakage table1
    repro-leakage figure8 --scale 0.5
    repro-leakage all --scale 0.5 --output results.txt
    repro-leakage all --run-id nightly      # checkpointed, resumable
    repro-leakage all --resume nightly      # continue after a crash

Simulations go through the execution engine: benchmark jobs fan out over
worker processes (``--jobs`` / ``REPRO_JOBS``) on a supervised backend
(``--backend`` / ``REPRO_BACKEND``: the ``pool`` degrades to
``subprocess`` workers and then ``serial``, so a run always
completes), failed or
timed-out jobs are retried per job with deterministic backoff
(``REPRO_RETRIES`` / ``REPRO_RETRY_DELAY``), every fresh result passes
an invariant-validation gate before caching, results are cached on disk
under
``~/.cache/repro-leakage`` (``REPRO_CACHE_DIR`` overrides,
``REPRO_CACHE_MAX_MB`` bounds the size, ``--no-cache`` bypasses), and a
telemetry footer — exportable as JSON via ``--manifest`` — reports where
the time went, including every retry and degradation.  The report on
stdout is byte-identical whatever the worker count, cache state, fault
history, resume path or shard split; telemetry goes to stderr.

A sweep expands a declarative spec (benchmarks × scales × pipelines ×
technology nodes) into engine jobs, optionally sharded across hosts
(``--shard-index/--shard-count`` against a shared cache directory), and
``sweep merge`` folds every shard's journal into one report::

    repro-leakage sweep plan --spec scaling.json --shard-count 4
    repro-leakage sweep run --spec scaling.json --shard-index 0 --shard-count 4
    repro-leakage sweep status --spec scaling.json
    repro-leakage sweep merge --spec scaling.json --csv out/

``serve`` turns the same engine into a persistent daemon (bounded
admission, per-client fairness, request coalescing, SSE progress
streams — see :mod:`repro.service`), and ``submit`` is its client::

    repro-leakage serve --port 8330 &
    repro-leakage submit jobs gzip ammp --scale 0.05
    repro-leakage submit sweep --sweep-name scaling --scales 0.05
    repro-leakage submit status

Exit codes are uniform across every command: 0 success, 2 usage or
runtime error (details on stderr), 8 service admission refused (429;
retry after the hinted delay), 130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .engine import (
    BACKEND_NAMES,
    ExecutionEngine,
    NullStore,
    ResultStore,
    RunJournal,
    collect_sharing_stats,
    resolve_cache_dir,
)
from .errors import ReproError
from .experiments.runner import experiment_names, run_all, run_experiment
from .experiments.suite import SuiteRunner
from .sweep import (
    ShardAssignment,
    SweepSpec,
    merge as sweep_merge,
    plan_text,
    run_shard,
    shard_run_summary,
    status_text,
)
from .workloads.benchmarks import BENCHMARK_NAMES

#: Top-level subcommands; anything else on the command line is treated
#: as an experiment name and routed to ``run`` (historical flat form).
COMMANDS = ("run", "cache", "sweep", "trace", "serve", "submit")

#: Exit code for a 429 admission refusal from the service — distinct
#: from 2 (error) so callers can implement retry-after backoff.
EXIT_REJECTED = 8

#: Exit code when the user interrupts a command (SIGINT convention).
EXIT_INTERRUPTED = 130

#: Default service endpoint for ``submit`` (matches ``serve`` defaults).
DEFAULT_SERVICE_URL = "http://127.0.0.1:8330"


class _BackCompatParser(argparse.ArgumentParser):
    """Argument parser that keeps the historical flat CLI working.

    ``repro-leakage table1 --scale 0.5`` predates the subcommands; when
    the first positional token is not a known command, ``run`` is
    inserted so old invocations, scripts and muscle memory stay valid.
    """

    def parse_args(self, args=None, namespace=None):  # type: ignore[override]
        argv = list(sys.argv[1:] if args is None else args)
        return super().parse_args(_normalize_argv(argv), namespace)


def _normalize_argv(argv: List[str]) -> List[str]:
    for token in argv:
        if token.startswith("-"):
            continue
        if token in COMMANDS:
            return argv
        return ["run"] + argv
    return argv


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (``run`` / ``cache`` / ``sweep``)."""
    parser = _BackCompatParser(
        prog="repro-leakage",
        description=(
            "Reproduce 'On the Limits of Leakage Power Reduction in Caches' "
            "(HPCA 2005): oracle leakage limits, technology sweeps and "
            "prefetch-guided approximations."
        ),
        epilog=(
            "A bare experiment name ('repro-leakage table1') is shorthand "
            "for 'repro-leakage run table1'."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_version()}",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="command", required=True
    )
    _add_run_parser(commands)
    _add_cache_parser(commands)
    _add_sweep_parser(commands)
    _add_trace_parser(commands)
    _add_serve_parser(commands)
    _add_submit_parser(commands)
    return parser


def _version() -> str:
    from . import __version__

    return __version__


def _add_run_parser(commands) -> None:
    run = commands.add_parser(
        "run",
        help="run one experiment, 'all', or 'list' to enumerate them",
        description="Regenerate one of the paper's tables or figures.",
    )
    run.add_argument(
        "experiment",
        help="experiment name, 'all', or 'list' to enumerate experiments",
    )
    run.add_argument(
        # Catches stray positionals ('repro-leakage table1 info') so the
        # error can point at the command they belong to.
        "extra",
        nargs="*",
        help=argparse.SUPPRESS,
    )
    run.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (1.0 = calibration length, ~2M "
        "instructions per benchmark; smaller is faster)",
    )
    run.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help=f"restrict the suite to these workloads: benchmark names "
        f"(from: {BENCHMARK_NAMES}) or 'trace:<path>' refs to recorded "
        "traces (trace refs need --scale 1.0)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="simulation worker processes (default: REPRO_JOBS or the CPU count)",
    )
    run.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="primary execution backend (default: REPRO_BACKEND or 'pool'); "
        "pool degrades to subprocess workers and then serial, so a run "
        "always completes",
    )
    run.add_argument(
        "--kernel",
        choices=("auto", "scalar", "batched", "compiled"),
        default=None,
        help="simulation kernel (default: REPRO_KERNEL or 'auto'); auto "
        "prefers the compiled residual loop and degrades to the "
        "pure-python batched kernel — results are bit-identical either way",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache (neither read nor write it)",
    )
    run.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="journal this run under ID so it can be resumed after a crash",
    )
    run.add_argument(
        "--resume",
        default=None,
        metavar="ID",
        help="resume the interrupted run ID from its journal",
    )
    run.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the run telemetry manifest as JSON to this file",
    )
    run.add_argument(
        "--output",
        default=None,
        help="also write the report to this file",
    )
    run.add_argument(
        "--csv",
        default=None,
        metavar="DIR",
        help="also export every table as CSV into this directory",
    )
    run.set_defaults(handler=run_command)


def _add_cache_parser(commands) -> None:
    cache = commands.add_parser(
        "cache",
        help="inspect or empty the on-disk result cache",
        description=(
            "Result-cache maintenance.  'info' reports location, size and "
            "cross-run sharing statistics; 'clear' empties the cache."
        ),
    )
    cache.add_argument(
        "action",
        nargs="?",
        choices=("info", "clear"),
        default="info",
        help="info (default) or clear",
    )
    cache.add_argument(
        "--json",
        action="store_true",
        help="machine-readable 'info' output (the same document the "
        "service daemon serves under /v1/status)",
    )
    cache.set_defaults(handler=cache_command)


def _add_spec_arguments(parser) -> None:
    parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="sweep spec as JSON (see repro.sweep.spec)",
    )
    parser.add_argument(
        "--sweep-name",
        default=None,
        metavar="NAME",
        help="build the spec from flags instead: the sweep's name",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=None,
        help="benchmark axis (default: the full suite)",
    )
    parser.add_argument(
        "--scales",
        nargs="*",
        type=float,
        default=None,
        help="workload-scale axis (default: 1.0)",
    )
    parser.add_argument(
        "--nodes",
        nargs="*",
        type=int,
        default=None,
        help="technology-node axis in nm (default: 70 100 130 180)",
    )


def _add_sweep_parser(commands) -> None:
    sweep = commands.add_parser(
        "sweep",
        help="sharded parameter sweeps over the experiment grid",
        description=(
            "Expand a declarative spec (benchmarks x scales x pipelines x "
            "technology nodes) into engine jobs, run them — optionally "
            "sharded across hosts against a shared cache — and merge all "
            "shards into one report."
        ),
    )
    verbs = sweep.add_subparsers(dest="verb", metavar="verb", required=True)

    plan = verbs.add_parser(
        "plan", help="expand the grid and show the shard split (no runs)"
    )
    _add_spec_arguments(plan)
    plan.add_argument(
        "--shard-count", type=int, default=1, metavar="N",
        help="preview the split across N shards",
    )
    plan.add_argument(
        "--save", default=None, metavar="FILE",
        help="also write the (possibly flag-built) spec as JSON",
    )
    plan.set_defaults(handler=sweep_plan_command)

    run = verbs.add_parser(
        "run", help="run one shard's slice of the sweep (resumable)"
    )
    _add_spec_arguments(run)
    run.add_argument(
        "--shard-index", type=int, default=0, metavar="I",
        help="this host's shard index (default 0)",
    )
    run.add_argument(
        "--shard-count", type=int, default=1, metavar="N",
        help="total number of shards (default 1 = the whole grid)",
    )
    run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="simulation worker processes for this shard",
    )
    run.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="primary execution backend for this shard "
        "(default: REPRO_BACKEND or 'pool')",
    )
    run.set_defaults(handler=sweep_run_command)

    status = verbs.add_parser(
        "status", help="global progress across every shard journal"
    )
    _add_spec_arguments(status)
    status.add_argument(
        "--json",
        action="store_true",
        help="machine-readable status (stable key order, shared "
        "serializer with the service daemon)",
    )
    status.set_defaults(handler=sweep_status_command)

    merge = verbs.add_parser(
        "merge",
        help="aggregate all shards into the sweep report + manifest",
    )
    _add_spec_arguments(merge)
    merge.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for any points that still need simulating",
    )
    merge.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="primary execution backend for any remaining simulations",
    )
    merge.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the merged report to this file",
    )
    merge.add_argument(
        "--csv", default=None, metavar="DIR",
        help="also export the sweep cells as CSV into this directory",
    )
    merge.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the sweep cells as JSON to this file",
    )
    merge.set_defaults(handler=sweep_merge_command)


def _add_trace_parser(commands) -> None:
    trace = commands.add_parser(
        "trace",
        help="record, inspect, convert and cluster workload traces",
        description=(
            "Recorded-trace tooling.  Traces use the native chunked format "
            "(streaming, checksummed, compressed) and are referenced "
            "anywhere a benchmark name is accepted as 'trace:<path>' — "
            "run, sweep and submit all resolve them through the workload "
            "registry, sharing content addresses with synthetic workloads."
        ),
    )
    verbs = trace.add_subparsers(dest="verb", metavar="verb", required=True)

    record = verbs.add_parser(
        "record", help="capture a synthetic benchmark workload to disk"
    )
    record.add_argument(
        "benchmark", metavar="BENCHMARK",
        help=f"benchmark to record (from: {BENCHMARK_NAMES})",
    )
    record.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (as in 'run')",
    )
    record.add_argument(
        "--output", default=None, metavar="FILE",
        help="trace file to write (default: <cache>/traces/"
        "<benchmark>-s<scale>.rtr)",
    )
    record.add_argument(
        "--codec", default=None, metavar="NAME",
        help="compression codec: none, gzip (default), or zstd when the "
        "zstandard package is installed",
    )
    record.add_argument(
        "--chunk-instructions", type=int, default=None, metavar="N",
        help="on-disk chunk size in instructions (default 65536)",
    )
    record.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    record.set_defaults(handler=trace_record_command)

    info = verbs.add_parser(
        "info", help="print a recorded trace's header/summary"
    )
    info.add_argument("path", metavar="FILE")
    info.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    info.set_defaults(handler=trace_info_command)

    validate = verbs.add_parser(
        "validate",
        help="verify every chunk checksum and the whole-trace digest",
    )
    validate.add_argument("path", metavar="FILE")
    validate.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    validate.set_defaults(handler=trace_validate_command)

    convert = verbs.add_parser(
        "convert", help="convert a gem5 Exec text trace to the native format"
    )
    convert.add_argument("source", metavar="GEM5_FILE")
    convert.add_argument(
        "--output", default=None, metavar="FILE",
        help="trace file to write (default: <cache>/traces/<source>.rtr)",
    )
    convert.add_argument(
        "--codec", default=None, metavar="NAME",
        help="compression codec (as in 'record')",
    )
    convert.add_argument(
        "--chunk-instructions", type=int, default=None, metavar="N",
        help="on-disk chunk size in instructions (default 65536)",
    )
    convert.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    convert.set_defaults(handler=trace_convert_command)

    simpoints = verbs.add_parser(
        "simpoints",
        help="cluster a trace into SimPoint windows; optionally estimate "
        "whole-trace savings from the representatives",
    )
    simpoints.add_argument("path", metavar="FILE")
    simpoints.add_argument(
        "--window-instructions", type=int, default=None, metavar="N",
        help="profiling window size (default 100000)",
    )
    simpoints.add_argument(
        "--max-k", type=int, default=10, metavar="K",
        help="cluster-count ceiling for the BIC-style search (default 10)",
    )
    simpoints.add_argument(
        "--seed", type=int, default=0, help="k-means seed (default 0)"
    )
    simpoints.add_argument(
        "--plan-out", default=None, metavar="FILE",
        help="where to save the plan JSON (default: <cache>/traces/"
        "simpoints-<digest>-w<N>.json)",
    )
    simpoints.add_argument(
        "--estimate", action="store_true",
        help="simulate the representative windows through the engine and "
        "print the weight-averaged whole-trace savings",
    )
    simpoints.add_argument(
        "--exact", action="store_true",
        help="also simulate the full trace and report the estimation error "
        "(implies --estimate)",
    )
    simpoints.add_argument(
        "--max-error", type=float, default=None, metavar="X",
        help="with --exact: fail (exit 2) if the max absolute savings "
        "error exceeds X",
    )
    simpoints.add_argument(
        "--nodes", nargs="*", type=int, default=None,
        help="technology nodes in nm for --estimate (default 70 100 130 180)",
    )
    simpoints.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    simpoints.set_defaults(handler=trace_simpoints_command)


def _add_serve_parser(commands) -> None:
    serve = commands.add_parser(
        "serve",
        help="start the persistent leakage-analysis daemon",
        description=(
            "Serve the execution engine over HTTP: POST /v1/jobs and "
            "/v1/sweeps with bounded admission (429 + Retry-After when "
            "full), per-client weighted fair queueing (X-Client header), "
            "request coalescing, SSE progress streams, and graceful "
            "SIGTERM drain with journaled-ticket resume on restart."
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="TCP bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="TCP port (default 8330; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a Unix socket at PATH instead of TCP",
    )
    serve.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="simulation worker processes (default: REPRO_JOBS or CPUs)",
    )
    serve.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="primary execution backend (default: REPRO_BACKEND or 'pool')",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="admission-queue bound: queued computations beyond which "
        "submissions get 429 (default 256)",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="floor for the 429 Retry-After hint (default 1.0)",
    )
    serve.add_argument(
        "--weight", action="append", default=[], metavar="CLIENT=W",
        help="fairness weight for a client name (repeatable; "
        "unlisted clients weigh 1.0)",
    )
    serve.add_argument(
        "--peer-id", default=None, metavar="NAME",
        help="stable daemon identity for multi-daemon coordination "
        "(default: peer-<pid>); letters, digits, '.', '_', '-'",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="lease heartbeat TTL: peers reclaim a ticket lease whose "
        "heartbeat is older than this (default 10.0)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=None, metavar="SECONDS",
        help="how often to poll the shared store for a peer-owned "
        "result (default 0.25)",
    )
    serve.add_argument(
        "--ticket-ttl", type=float, default=None, metavar="SECONDS",
        help="gc age: done/failed tickets and orphaned leases older "
        "than this are pruned by 'submit gc' (default 3600)",
    )
    serve.set_defaults(handler=serve_command)


def _add_client_arguments(parser) -> None:
    parser.add_argument(
        "--url", action="append", default=None, metavar="URL",
        help=f"service endpoint (default {DEFAULT_SERVICE_URL}; "
        "'unix:PATH' for a Unix socket; repeatable — extra URLs are "
        "failover peers tried in order)",
    )
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="shorthand for --url unix:PATH",
    )
    parser.add_argument(
        "--client", default=None, metavar="NAME",
        help="client name sent as X-Client (admission fairness key)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="overall wait timeout (default 600)",
    )


def _add_submit_parser(commands) -> None:
    submit = commands.add_parser(
        "submit",
        help="submit work to a running daemon (client for 'serve')",
        description=(
            "Blocking client for the leakage-analysis service.  Exit "
            f"code {EXIT_REJECTED} means admission was refused (429); "
            "retry after the delay printed on stderr."
        ),
    )
    verbs = submit.add_subparsers(dest="verb", metavar="verb", required=True)

    jobs = verbs.add_parser(
        "jobs", help="submit a benchmark batch and print the results"
    )
    jobs.add_argument(
        "benchmarks", nargs="+", metavar="BENCHMARK",
        help=f"workloads to simulate: benchmark names (from: "
        f"{BENCHMARK_NAMES}) or 'trace:<path>' refs to recorded traces "
        "readable by the daemon",
    )
    jobs.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (as in 'run')",
    )
    jobs.add_argument(
        "--no-wait", action="store_true",
        help="print the admission response (tickets) and exit instead "
        "of waiting for results",
    )
    jobs.add_argument(
        "--retry", type=int, default=1, metavar="N",
        help="submission attempts: retry 429 rejections with capped "
        "exponential backoff, failing over across --url peers on "
        "connection errors (default 1 = no retry)",
    )
    _add_client_arguments(jobs)
    jobs.set_defaults(handler=submit_jobs_command)

    sweep = verbs.add_parser(
        "sweep", help="submit a whole sweep and print the merged report"
    )
    _add_spec_arguments(sweep)
    sweep.add_argument(
        "--no-wait", action="store_true",
        help="print the sweep ticket and exit instead of waiting",
    )
    _add_client_arguments(sweep)
    sweep.set_defaults(handler=submit_sweep_command)

    ticket = verbs.add_parser(
        "ticket", help="inspect one ticket (optionally follow its events)"
    )
    ticket.add_argument("ticket_id", metavar="TICKET")
    ticket.add_argument(
        "--follow", action="store_true",
        help="stream the ticket's SSE events until it completes",
    )
    _add_client_arguments(ticket)
    ticket.set_defaults(handler=submit_ticket_command)

    status = verbs.add_parser(
        "status", help="print the daemon's /v1/status document"
    )
    _add_client_arguments(status)
    status.set_defaults(handler=submit_status_command)

    metricz = verbs.add_parser(
        "metricz", help="print the daemon's flat counters"
    )
    _add_client_arguments(metricz)
    metricz.set_defaults(handler=submit_metricz_command)

    drain = verbs.add_parser(
        "drain", help="ask the daemon to stop admitting new work"
    )
    _add_client_arguments(drain)
    drain.set_defaults(handler=submit_drain_command)

    shutdown = verbs.add_parser(
        "shutdown", help="ask the daemon to drain and exit gracefully"
    )
    _add_client_arguments(shutdown)
    shutdown.set_defaults(handler=submit_shutdown_command)

    gc = verbs.add_parser(
        "gc", help="prune aged-out terminal tickets and orphaned leases"
    )
    gc.add_argument(
        "--ticket-ttl", type=float, default=None, metavar="SECONDS",
        help="override the daemon's configured gc age for this run",
    )
    _add_client_arguments(gc)
    gc.set_defaults(handler=submit_gc_command)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def cache_command(args) -> int:
    """``repro-leakage cache {info,clear}``: inspect or empty the cache."""
    store = ResultStore()
    if args.action == "clear":
        if args.json:
            return _fail("--json only applies to 'cache info'")
        removed = store.clear()
        print(f"cache: removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.describe()}")
        return 0
    if args.json:
        from .service.protocol import cache_info_payload, dumps_stable

        print(dumps_stable(cache_info_payload(store)), end="")
        return 0
    info = store.info()
    print(f"cache directory: {info['directory']}")
    print(f"entries:         {info['entries']}")
    print(f"size:            {info['bytes'] / (1024 * 1024):.2f} MB")
    limit = info["max_bytes"]
    print(
        "size limit:      "
        + ("unbounded" if not limit else f"{limit / (1024 * 1024):.2f} MB")
    )
    quarantined = info.get("quarantined", 0)
    print(
        f"quarantined:     {quarantined} corrupt "
        f"entr{'y' if quarantined == 1 else 'ies'}"
        + (f" (under {store.quarantine_dir})" if quarantined else "")
    )
    trace_files = info.get("trace_files", 0)
    if trace_files:
        print(
            f"traces:          {trace_files} artifact(s), "
            f"{info.get('trace_bytes', 0) / (1024 * 1024):.2f} MB "
            f"(under {store.traces_dir}; counted against the size limit, "
            f"never evicted)"
        )
    else:
        print("traces:          no recorded traces")
    sharing = collect_sharing_stats(store.directory)
    if sharing["manifests"]:
        print(
            f"sharing:         {sharing['manifests']} recorded run(s): "
            f"{sharing['jobs']} job(s), {sharing['simulated']} simulated, "
            f"{sharing['cached']} cache hit(s) "
            f"({sharing['hits_from_earlier_runs']} produced by earlier "
            f"runs, {sharing['hits_from_this_run']} by the hitting run)"
        )
    else:
        print("sharing:         no journaled runs recorded yet")
    return 0


# ----------------------------------------------------------------------
# trace (recorded workload traces)
# ----------------------------------------------------------------------
def _resolve_benchmark_refs(names: List[str]) -> List[str]:
    """Normalize workload refs: lowercase plain names, keep trace: refs.

    Every ref is validated through the workload registry, so unknown
    names and unreadable trace files fail here with a named error
    instead of deep inside the run.
    """
    from .traces.registry import DEFAULT_REGISTRY, is_trace_ref

    resolved = []
    for name in names:
        ref = name if is_trace_ref(name) else name.lower()
        DEFAULT_REGISTRY.validate(ref)
        resolved.append(ref)
    return resolved


def _trace_destination(output: Optional[str], default_name: str):
    from pathlib import Path

    from .traces import trace_store_dir

    if output:
        return Path(output)
    return trace_store_dir() / default_name


def _print_trace_info(info, json_out: bool) -> None:
    if json_out:
        from .service.protocol import dumps_stable

        print(dumps_stable(info.to_dict()), end="")
        return
    print(f"trace:        {info.path}")
    print(f"codec:        {info.codec}")
    print(f"chunks:       {info.chunks} x {info.chunk_instructions} instructions")
    print(f"instructions: {info.instructions}")
    print(f"digest:       {info.digest}")
    print(f"file size:    {info.file_bytes / (1024 * 1024):.2f} MB")
    print(f"provenance:   {info.provenance or 'none'}")
    print(f"ref:          trace:{info.path}")


def _trace_format_kwargs(args) -> dict:
    kwargs = {}
    if args.codec is not None:
        kwargs["codec"] = args.codec
    if args.chunk_instructions is not None:
        if args.chunk_instructions <= 0:
            raise ReproError(
                f"--chunk-instructions must be positive, "
                f"got {args.chunk_instructions}"
            )
        kwargs["chunk_instructions"] = args.chunk_instructions
    return kwargs


def trace_record_command(args) -> int:
    from .traces import TRACE_SUFFIX, record_benchmark

    name = args.benchmark.lower()
    if name not in BENCHMARK_NAMES:
        return _fail(
            f"unknown benchmark {args.benchmark!r}; choose from {BENCHMARK_NAMES}"
        )
    if not args.scale > 0:
        return _fail(f"--scale must be positive, got {args.scale}")
    dest = _trace_destination(
        args.output, f"{name}-s{args.scale:g}{TRACE_SUFFIX}"
    )
    try:
        info = record_benchmark(
            name, dest, scale=args.scale, **_trace_format_kwargs(args)
        )
    except ReproError as error:
        return _fail(str(error))
    except OSError as error:
        return _fail(f"writing the trace failed: {error}")
    _print_trace_info(info, args.json)
    return 0


def trace_info_command(args) -> int:
    from .traces import TraceRecording

    try:
        _print_trace_info(TraceRecording(args.path).info(), args.json)
    except ReproError as error:
        return _fail(str(error))
    return 0


def trace_validate_command(args) -> int:
    from .traces import TraceRecording

    try:
        info = TraceRecording(args.path).validate()
    except ReproError as error:
        return _fail(str(error))
    if args.json:
        from .service.protocol import dumps_stable

        print(dumps_stable({"ok": True, "trace": info.to_dict()}), end="")
        return 0
    print(
        f"ok: {info.path} — {info.chunks} chunk(s), {info.instructions} "
        f"instruction(s), every checksum and the whole-trace digest verified"
    )
    return 0


def trace_convert_command(args) -> int:
    from pathlib import Path

    from .traces import TRACE_SUFFIX, convert_gem5_text

    dest = _trace_destination(
        args.output, f"{Path(args.source).stem}{TRACE_SUFFIX}"
    )
    try:
        report = convert_gem5_text(
            args.source, dest, **_trace_format_kwargs(args)
        )
    except ReproError as error:
        return _fail(str(error))
    except OSError as error:
        return _fail(f"converting the trace failed: {error}")
    if args.json:
        from .service.protocol import dumps_stable

        print(dumps_stable(report.to_dict()), end="")
        return 0
    print(
        f"converted {report.source}: {report.instructions} instruction(s) "
        f"({report.loads} load(s), {report.stores} store(s)), "
        f"{report.skipped_lines} line(s) skipped"
    )
    _print_trace_info(report.info, False)
    return 0


def _print_estimate(label: str, document: dict) -> None:
    print(f"{label} savings (scheme x node):")
    nodes = document["nodes"]
    for cache, grid in document["savings"].items():
        for scheme, row in zip(document["schemes"], grid):
            cells = "  ".join(
                f"{nm}nm {value:.3f}" for nm, value in zip(nodes, row)
            )
            print(f"  {cache:<6} {scheme:<11} {cells}")


def trace_simpoints_command(args) -> int:
    from pathlib import Path

    from .traces import estimate as est

    if args.window_instructions is not None and args.window_instructions <= 0:
        return _fail(
            f"--window-instructions must be positive, "
            f"got {args.window_instructions}"
        )
    if args.max_k < 1:
        return _fail(f"--max-k must be at least 1, got {args.max_k}")
    if args.max_error is not None and not args.exact:
        return _fail("--max-error needs --exact (nothing to compare against)")
    wants_estimate = args.estimate or args.exact
    try:
        plan_kwargs = {}
        if args.window_instructions is not None:
            plan_kwargs["window_instructions"] = args.window_instructions
        plan = est.plan_simpoints(
            args.path, max_k=args.max_k, seed=args.seed, **plan_kwargs
        )
        plan_path = est.save_plan(
            plan, Path(args.plan_out) if args.plan_out else None
        )
        document = {"plan": plan.to_dict(), "plan_path": str(plan_path)}
        if wants_estimate:
            nodes = tuple(args.nodes) if args.nodes else est.DEFAULT_NODES
            engine = ExecutionEngine()
            estimated = est.estimate_savings(plan, nodes=nodes, engine=engine)
            document["estimate"] = estimated.to_dict()
            if args.exact:
                exact = est.exact_savings(
                    plan.trace_path, nodes=nodes, engine=engine
                )
                document["exact"] = exact.to_dict()
                document["max_abs_error"] = estimated.max_abs_error(exact)
    except ReproError as error:
        return _fail(str(error))
    except OSError as error:
        return _fail(f"simpoint planning failed: {error}")
    if args.json:
        from .service.protocol import dumps_stable

        print(dumps_stable(document), end="")
    else:
        print(f"trace:    {plan.trace_path}")
        print(
            f"windows:  {plan.n_windows} x {plan.window_instructions} "
            f"instructions"
        )
        print(f"simpoints ({len(plan.windows)}):")
        for window, weight in zip(plan.windows, plan.weights):
            print(f"  window {window:>6}  weight {weight:.4f}")
        print(f"plan:     {plan_path}")
        if wants_estimate:
            _print_estimate("estimated", document["estimate"])
        if args.exact:
            _print_estimate("exact", document["exact"])
            print(f"max abs savings error: {document['max_abs_error']:.4f}")
    if (
        args.max_error is not None
        and document["max_abs_error"] > args.max_error
    ):
        return _fail(
            f"simpoint estimation error {document['max_abs_error']:.4f} "
            f"exceeds the --max-error bound {args.max_error}"
        )
    return 0


# ----------------------------------------------------------------------
# run (experiments)
# ----------------------------------------------------------------------
def _make_journal(args) -> Optional[RunJournal]:
    """The run journal implied by ``--run-id``/``--resume``, validated."""
    if args.resume and args.run_id and args.resume != args.run_id:
        raise ReproError(
            f"--run-id {args.run_id!r} conflicts with --resume {args.resume!r}"
        )
    run_id = args.resume or args.run_id
    if run_id is None:
        return None
    if args.no_cache:
        raise ReproError(
            "--run-id/--resume need the on-disk cache; drop --no-cache"
        )
    journal = RunJournal(resolve_cache_dir(), run_id)
    if args.resume and not journal.exists():
        raise ReproError(
            f"no journal for run {run_id!r} under {journal.describe()}; "
            "start it with --run-id first"
        )
    if not args.resume and journal.exists():
        raise ReproError(
            f"run {run_id!r} already has a journal; "
            f"continue it with --resume {run_id}"
        )
    return journal


def run_command(args) -> int:
    """``repro-leakage run <experiment>`` (also the bare historical form)."""
    if args.extra:
        return _fail(
            f"unexpected arguments {args.extra} after {args.experiment!r}; "
            "subactions like 'info'/'clear' belong to the 'cache' command"
        )
    if args.experiment == "list":
        for name in experiment_names():
            print(name)
        return 0
    benchmarks = args.benchmarks
    if benchmarks is not None:
        try:
            benchmarks = _resolve_benchmark_refs(benchmarks)
        except ReproError as error:
            return _fail(str(error))
    # Selection travels through the environment so pool and subprocess
    # workers resolve the same kernel the parent did.
    if args.kernel is not None:
        os.environ["REPRO_KERNEL"] = args.kernel
    try:
        journal = _make_journal(args)
        engine = ExecutionEngine(
            jobs=args.jobs,
            store=NullStore() if args.no_cache else None,
            journal=journal,
            resume=args.resume is not None,
            backend=args.backend,
        )
        suite = SuiteRunner(scale=args.scale, benchmarks=benchmarks, engine=engine)
        if args.experiment == "all":
            results = run_all(suite)
        else:
            results = [run_experiment(args.experiment, suite)]
    except ReproError as error:
        return _fail(str(error))
    report = "\n\n\n".join(result.render() for result in results)
    print(report)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
        if args.csv:
            from .experiments.reporting import save_csv

            for result in results:
                save_csv(result, args.csv)
    except OSError as error:
        return _fail(f"writing report outputs failed: {error}")
    telemetry = engine.telemetry
    if telemetry.jobs:
        print(telemetry.summary(), file=sys.stderr)
    if args.manifest:
        try:
            telemetry.write_manifest(args.manifest)
        except OSError as error:
            return _fail(f"writing the manifest failed: {error}")
    if journal is not None:
        written = journal.write_manifest(telemetry.manifest())
        if written:
            print(f"run journal: {journal.describe()}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def _spec_from_args(args) -> SweepSpec:
    """Resolve the sweep spec: a JSON file, or constructed from flags."""
    flag_axes = {
        "benchmarks": args.benchmarks,
        "scales": args.scales,
        "nodes": args.nodes,
    }
    if args.spec is not None:
        conflicting = [
            f"--{name}" for name, value in flag_axes.items() if value is not None
        ]
        if args.sweep_name is not None:
            conflicting.insert(0, "--sweep-name")
        if conflicting:
            raise ReproError(
                f"--spec conflicts with {', '.join(conflicting)}; put the "
                "axes in the spec file"
            )
        return SweepSpec.load(args.spec)
    if args.sweep_name is None:
        raise ReproError(
            "a sweep needs --spec FILE or --sweep-name NAME (plus optional "
            "--benchmarks/--scales/--nodes)"
        )
    kwargs = {
        name: tuple(value)
        for name, value in flag_axes.items()
        if value is not None
    }
    return SweepSpec(name=args.sweep_name, **kwargs)


def sweep_plan_command(args) -> int:
    try:
        spec = _spec_from_args(args)
        print(plan_text(spec, shard_count=args.shard_count))
        if args.save:
            print(f"spec written: {spec.save(args.save)}", file=sys.stderr)
    except ReproError as error:
        return _fail(str(error))
    return 0


def sweep_run_command(args) -> int:
    try:
        spec = _spec_from_args(args)
        assignment = ShardAssignment(args.shard_index, args.shard_count)
        run = run_shard(
            spec,
            assignment,
            jobs=args.jobs,
            backend=args.backend,
        )
    except ReproError as error:
        return _fail(str(error))
    for line in shard_run_summary(run):
        print(line, file=sys.stderr)
    return 0


def sweep_status_command(args) -> int:
    try:
        spec = _spec_from_args(args)
        if args.json:
            from .service.protocol import dumps_stable, sweep_status_payload
            from .sweep import SweepCoordinator

            coordinator = SweepCoordinator(spec)
            coordinator.ensure_spec()
            print(
                dumps_stable(sweep_status_payload(coordinator.status())),
                end="",
            )
            return 0
        print(status_text(spec))
    except ReproError as error:
        return _fail(str(error))
    return 0


def sweep_merge_command(args) -> int:
    try:
        spec = _spec_from_args(args)
        outcome = sweep_merge(spec, jobs=args.jobs, backend=args.backend)
    except ReproError as error:
        return _fail(str(error))
    print(outcome.report)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(outcome.report + "\n")
        if args.csv:
            from .sweep import save_csv as save_sweep_csv

            path = save_sweep_csv(outcome.results, args.csv)
            print(f"sweep csv: {path}", file=sys.stderr)
        if args.json:
            import json as json_module
            from pathlib import Path

            from .sweep import to_json_dict

            target = Path(args.json)
            if target.parent != Path("."):
                target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(
                json_module.dumps(
                    to_json_dict(outcome.results), indent=2, sort_keys=True
                )
                + "\n",
                encoding="utf-8",
            )
            print(f"sweep json: {target}", file=sys.stderr)
    except OSError as error:
        return _fail(f"writing sweep outputs failed: {error}")
    if outcome.telemetry.jobs:
        print(outcome.telemetry.summary(), file=sys.stderr)
    if outcome.manifest_path:
        print(f"sweep manifest: {outcome.manifest_path}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# serve / submit (the service daemon and its client)
# ----------------------------------------------------------------------
def serve_command(args) -> int:
    """``repro-leakage serve``: run the leakage-analysis daemon."""
    import asyncio

    from .service import ServiceConfig, ServiceDaemon

    weights = {}
    for entry in args.weight:
        name, sep, raw = entry.partition("=")
        if not sep or not name:
            return _fail(f"--weight needs CLIENT=WEIGHT, got {entry!r}")
        try:
            weight = float(raw)
        except ValueError:
            return _fail(f"--weight {entry!r}: the weight must be a number")
        if weight <= 0:
            return _fail(f"--weight {entry!r}: the weight must be positive")
        if name in weights:
            return _fail(
                f"--weight {entry!r}: client {name!r} already has a weight"
            )
        weights[name] = weight
    if args.peer_id is not None:
        from .engine.checkpoint import validate_run_id

        try:
            validate_run_id(args.peer_id, what="--peer-id")
        except ReproError as error:
            return _fail(str(error))
    for flag, value in (
        ("--lease-ttl", args.lease_ttl),
        ("--poll-interval", args.poll_interval),
        ("--ticket-ttl", args.ticket_ttl),
    ):
        if value is not None and value <= 0:
            return _fail(f"{flag} must be positive, got {value}")
    if args.socket and args.port is not None:
        return _fail("--socket and --port are mutually exclusive")
    try:
        config_overrides = {}
        if args.peer_id is not None:
            config_overrides["peer_id"] = args.peer_id
        if args.lease_ttl is not None:
            config_overrides["lease_ttl"] = args.lease_ttl
        if args.poll_interval is not None:
            config_overrides["poll_interval"] = args.poll_interval
        if args.ticket_ttl is not None:
            config_overrides["ticket_ttl"] = args.ticket_ttl
        daemon_config = ServiceConfig(
            host=args.host,
            port=args.port,
            socket=args.socket,
            jobs=args.jobs,
            backend=args.backend,
            max_queue=args.max_queue,
            retry_after=args.retry_after,
            client_weights=weights,
            **config_overrides,
        )
        daemon = ServiceDaemon(daemon_config)
        asyncio.run(daemon.run())
    except ReproError as error:
        return _fail(str(error))
    return 0


def _service_client(args):
    from .service.client import ServiceClient

    if args.url and args.socket:
        raise ReproError("--url and --socket are mutually exclusive")
    urls = args.url or [
        f"unix:{args.socket}" if args.socket else DEFAULT_SERVICE_URL
    ]
    return ServiceClient(urls, client=args.client, timeout=args.timeout)


def _rejected(rejected) -> int:
    print(
        f"error: {rejected} (retry after {rejected.retry_after:.1f}s)",
        file=sys.stderr,
    )
    return EXIT_REJECTED


def submit_jobs_command(args) -> int:
    from .service.client import ServiceRejected
    from .service.protocol import dumps_stable

    try:
        benchmarks = _resolve_benchmark_refs(args.benchmarks)
    except ReproError as error:
        return _fail(str(error))
    specs = [
        {"benchmark": name, "scale": args.scale} for name in benchmarks
    ]
    if args.retry < 1:
        return _fail(f"--retry must be at least 1, got {args.retry}")
    try:
        client = _service_client(args)
        if args.retry > 1:
            response = client.submit_with_retry(
                specs, max_attempts=args.retry
            )
        else:
            response = client.submit_jobs(specs)
        if args.no_wait:
            print(dumps_stable(response), end="")
            return 0
        documents = []
        for item in response["items"]:
            if item["status"] == "cached":
                documents.append(
                    {
                        "result": item["result"],
                        "execution": item["execution"],
                    }
                )
            else:
                ticket = client.wait(item["ticket"], timeout=args.timeout)
                documents.append(
                    {
                        "result": ticket["result"]["result"],
                        "execution": ticket["result"]["execution"],
                    }
                )
        print(dumps_stable({"jobs": documents}), end="")
    except ServiceRejected as rejected:
        return _rejected(rejected)
    except ReproError as error:
        return _fail(str(error))
    return 0


def submit_sweep_command(args) -> int:
    from .service.client import ServiceRejected
    from .service.protocol import dumps_stable

    try:
        spec = _spec_from_args(args)
        client = _service_client(args)
        response = client.submit_sweep(spec.to_dict())
        if args.no_wait:
            print(dumps_stable(response), end="")
            return 0
        ticket = client.wait(response["ticket"], timeout=args.timeout)
        result = ticket["result"]
        print(result["report"])
        print(
            f"sweep {spec.name} served: {result['grid_jobs']} point(s), "
            f"{result['cached_at_submit']} cached at submit, "
            f"{result['computed']} computed, "
            f"{result['coalesced']} coalesced; "
            f"report sha256 {result['report_sha256']}",
            file=sys.stderr,
        )
    except ServiceRejected as rejected:
        return _rejected(rejected)
    except ReproError as error:
        return _fail(str(error))
    return 0


def submit_ticket_command(args) -> int:
    import json as json_module

    from .service.protocol import dumps_stable

    try:
        client = _service_client(args)
        if args.follow:
            for event in client.events(args.ticket_id):
                print(json_module.dumps(event, sort_keys=True), flush=True)
            return 0
        print(dumps_stable(client.ticket(args.ticket_id)), end="")
    except ReproError as error:
        return _fail(str(error))
    return 0


def submit_status_command(args) -> int:
    from .service.protocol import dumps_stable

    try:
        print(dumps_stable(_service_client(args).status()), end="")
    except ReproError as error:
        return _fail(str(error))
    return 0


def submit_metricz_command(args) -> int:
    try:
        print(_service_client(args).metricz_text(), end="")
    except ReproError as error:
        return _fail(str(error))
    return 0


def submit_drain_command(args) -> int:
    from .service.protocol import dumps_stable

    try:
        print(dumps_stable(_service_client(args).drain()), end="")
    except ReproError as error:
        return _fail(str(error))
    return 0


def submit_shutdown_command(args) -> int:
    from .service.protocol import dumps_stable

    try:
        print(dumps_stable(_service_client(args).shutdown()), end="")
    except ReproError as error:
        return _fail(str(error))
    return 0


def submit_gc_command(args) -> int:
    from .service.protocol import dumps_stable

    if args.ticket_ttl is not None and args.ticket_ttl <= 0:
        return _fail(f"--ticket-ttl must be positive, got {args.ticket_ttl}")
    try:
        print(
            dumps_stable(_service_client(args).gc(ttl=args.ticket_ttl)),
            end="",
        )
    except ReproError as error:
        return _fail(str(error))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse error (2), --help/--version (0)
        code = exit_.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro-leakage list | head`);
        # detach stdout so the interpreter's shutdown flush can't raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as error:
        return _fail(str(error))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
