"""Program-side entry points the benchmark starts as child processes.

    python3 perfbench/launch.py cli [--spans FILE] -- ARGS...
        ``repro.cli.main(ARGS)``; with ``--spans`` the tracer's wrappers
        are installed first and the spans are written to FILE when the
        command returns (for ``serve``, after its graceful shutdown).
    python3 perfbench/launch.py fill --scale S
        Simulate the paper suite into ``REPRO_CACHE_DIR`` through the
        program's public API on a serial engine (paper-warm's set-up).
    python3 perfbench/launch.py mkcache DIR
        Create an empty result-cache directory (paper-cold's set-up).

The child's environment (``PYTHONPATH``, ``REPRO_CACHE_DIR``) comes from
``run.py``.
"""

from __future__ import annotations

import argparse


def _cli(args) -> int:
    from repro import cli

    tracer = None
    if args.spans:
        import tracer as tracing  # perfbench/ is sys.path[0] for this script

        tracer = tracing.Tracer()
        tracing.install(tracer, service=args.argv[:1] == ["serve"])
    try:
        return cli.main(args.argv)
    finally:
        if tracer is not None:
            tracer.write(args.spans)


def _fill(args) -> int:
    from repro.engine import ExecutionEngine
    from repro.experiments import SuiteRunner

    engine = ExecutionEngine(jobs=1, backend="serial")
    SuiteRunner(scale=args.scale, engine=engine).all_runs()
    return 0


def _mkcache(args) -> int:
    from repro.engine.store import resolve_cache_dir

    resolve_cache_dir(args.directory).mkdir(parents=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    verbs = parser.add_subparsers(dest="verb", required=True)
    cli = verbs.add_parser("cli")
    cli.add_argument("--spans", default=None)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    cli.set_defaults(handler=_cli)
    fill = verbs.add_parser("fill")
    fill.add_argument("--scale", type=float, required=True)
    fill.set_defaults(handler=_fill)
    mkcache = verbs.add_parser("mkcache")
    mkcache.add_argument("directory")
    mkcache.set_defaults(handler=_mkcache)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
