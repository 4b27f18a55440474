"""Spans around the program's public calls, installed from outside it.

The program carries no instrumentation of its own.  :func:`install`
replaces module attributes and class methods with thin wrappers that
record a span (name, start, end, parent, attributes) and then hand back
exactly what the wrapped callable returned.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON when the traced process ends.

Several modules import the functions they use under their own names, so
each such binding is replaced separately; every replacement wraps the
original object, never another wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

#: ``(module, attribute, span name)``: plain functions, wrapped at each
#: binding the program calls them through.
FUNCTIONS = (
    ("repro.experiments.figure7", "evaluate_policy", "core.evaluate_policy"),
    ("repro.experiments.figure8", "evaluate_policy", "core.evaluate_policy"),
    ("repro.experiments.ablations", "evaluate_policy", "core.evaluate_policy"),
    ("repro.prefetch.schemes", "evaluate_policy", "core.evaluate_policy"),
    # The result validator imports it lazily from here at call time.
    ("repro.core.savings", "evaluate_policy", "core.evaluate_policy"),
    ("repro.experiments.table2", "stacked_trio_savings", "core.stacked"),
    ("repro.sweep.aggregate", "stacked_trio_savings", "core.stacked"),
    ("repro.engine.parallel", "check_result", "engine.validate"),
    ("repro.engine.jobs", "make_benchmark", "workloads.make_benchmark"),
    (
        "repro.experiments.futurework",
        "prefetch_tradeoff_curve",
        "prefetch.tradeoff",
    ),
    ("repro.experiments.runner", "run_experiment", "experiments.run"),
)

#: Bindings that exist only in the service daemon.
SERVICE_FUNCTIONS = (("repro.service.server", "sweep_merge", "sweep.merge"),)

#: ``(module, class, method, span name)``.
METHODS = (
    ("repro.engine.jobs", "AnnotatingSimulator", "run", "prefetch.simulate"),
    ("repro.engine.parallel", "ExecutionEngine", "run", "engine.run"),
    ("repro.engine.store", "ResultStore", "get", "engine.store_get"),
    ("repro.engine.store", "ResultStore", "put", "engine.store_put"),
    (
        "repro.experiments.reporting",
        "ExperimentResult",
        "render",
        "experiments.render",
    ),
)


def _file_bytes(store, key) -> int:
    try:
        return os.stat(store.path_for(key)).st_size
    except OSError:
        return 0


def _describe(name, args, kwargs, result):
    """Span attributes read from a call's arguments and result."""
    if name == "core.evaluate_policy":
        intervals = args[1] if len(args) > 1 else kwargs["intervals"]
        return {"intervals": len(intervals)}
    if name == "engine.store_get":
        store, key = args[0], args[1]
        if result is None:
            return {"hit": False}
        return {"hit": True, "bytes": _file_bytes(store, key)}
    if name == "engine.store_put":
        store, key = args[0], args[1]
        return {"bytes": _file_bytes(store, key) if result else 0}
    if name == "experiments.run":
        return {"experiment": args[0] if args else kwargs["name"]}
    if name == "prefetch.simulate":
        return {
            "intervals": len(result.l1i.intervals) + len(result.l1d.intervals)
        }
    if name == "engine.run":
        return _describe_outcomes(result)
    return None


def _describe_outcomes(outcomes) -> dict:
    """Kernel profile of every job an ``ExecutionEngine.run`` simulated."""
    stages: dict = {}
    fast = slow = simulated = retries = 0
    for outcome in outcomes.values():
        retries += outcome.attempts - 1
        if not outcome.simulated:
            continue
        simulated += 1
        profile = outcome.annotated.result.profile
        if profile is None:
            continue
        fast += profile.fast_path_accesses
        slow += profile.slow_path_accesses
        for stage, seconds in profile.stage_seconds.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
    return {
        "jobs": len(outcomes),
        "simulated": simulated,
        "retries": retries,
        "fast_path_accesses": fast,
        "slow_path_accesses": slow,
        "stage_seconds": stages,
    }


class Tracer:
    """In-memory span recorder; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1][4] if stack else None]
        with self._lock:
            span.append(len(self.spans))
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, function):
        """A callable that records a span and returns ``function``'s result."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            attrs = _describe(name, args, kwargs, result)
            if attrs:
                span.append(attrs)
            return result

        return traced

    def wrap_chunks(self, chunks):
        """``Workload.chunks`` yielding the same chunks, one span per chunk."""

        @functools.wraps(chunks)
        def traced(*args, **kwargs):
            source = chunks(*args, **kwargs)
            while True:
                span = self._open("workloads.chunk")
                try:
                    chunk = next(source)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span.append({"accesses": len(chunk)})
                yield chunk

        return traced

    def write(self, path: str) -> None:
        """Dump every span as ``[name, start, end, parent, id, attrs?]``."""
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle)


def install(tracer: Tracer, service: bool = False) -> None:
    """Replace every traced binding with a wrapper around its original."""
    bindings = FUNCTIONS + (SERVICE_FUNCTIONS if service else ())
    originals: dict = {}
    for module_name, attribute, span_name in bindings:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute)
        if original not in originals:
            originals[original] = tracer.wrap(span_name, original)
        setattr(module, attribute, originals[original])
    for module_name, class_name, method, span_name in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, method, tracer.wrap(span_name, getattr(cls, method)))
    workload = importlib.import_module("repro.workloads.program").Workload
    workload.chunks = tracer.wrap_chunks(workload.chunks)
