"""End-to-end benchmark of the repro-leakage program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see README.md):

* ``paper-cold``: ``repro-leakage run all --scale 1.0 --jobs 1 --backend
  serial`` on an empty result cache.
* ``paper-warm``: the same command on a cache the set-up filled.
* ``served-sweep``: ``repro-leakage serve --jobs 2`` and one client that
  submits a 12-simulation sweep, waits, resubmits it and waits again.

Iterations repeat back to back until ``--seconds`` of measuring have
passed (at least one), and every end-to-end metric is the median over
the run's iterations.  ``--trace 1`` instead runs one untraced and one
traced iteration and reports the per-layer metrics of the traced one.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

The paper suite's generators carry fixed seeds, so the inputs are the
same for every ``--seed``; the seed is recorded with the run.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
PYTHON = sys.executable

PAPER_ARGS = ["run", "all", "--scale", "1.0", "--jobs", "1", "--backend", "serial"]
SERVE_ARGS = ["serve", "--jobs", "2", "--port", "0"]
SWEEP_SPEC = {
    "name": "perfbench",
    "benchmarks": ["ammp", "applu", "gcc", "gzip", "mesa", "vortex"],
    "scales": [0.5],
    "nodes": [70, 100, 130, 180],
    "pipelines": [None, {"width": 2, "base_cpi": 0.65}],
}

#: Per-child limit; the whole run must end within 180 s.
CHILD_TIMEOUT = 150.0
#: paper-cold's and served-sweep's set-up is timed at least this often per
#: run: ``setup()`` adds probes, every iteration adds its own.
SETUP_SAMPLES = 3
#: Poll interval of the service client, as the program's own client.
POLL_SECONDS = 0.05
MB = 1e6

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metric name -> unit, as declared in BENCHMARK.json.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark could not run the workload."""


# ----------------------------------------------------------------------
# Child processes and host readings
# ----------------------------------------------------------------------
def program_env(cache_dir: Path) -> dict:
    """The program's environment: this checkout's source, our cache dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_NATIVE_DIR"] = str(WORK / "native")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def program_argv(args: list, spans: Path = None) -> list:
    """``repro-leakage ARGS``; with ``spans``, traced through the launcher."""
    if spans is None:
        return [PYTHON, "-m", "repro"] + args
    return [PYTHON, str(BENCH / "launch.py"), "cli", "--spans", str(spans),
            "--"] + args


class Child:
    """One program process, reaped with ``wait4`` for its own rusage."""

    def __init__(self, argv, env, stdout: Path, stderr: Path) -> None:
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                stdin=subprocess.DEVNULL,
            )
        self.returncode = None
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0

    def reap(self, timeout: float = CHILD_TIMEOUT) -> int:
        """Wait for exit (killing it after ``timeout``); read its rusage.

        ``wait4`` reports this child plus every descendant it reaped, so
        daemon workers are counted once the daemon shut down cleanly.
        """
        if self.returncode is not None:
            return self.returncode
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        self._record(status, usage)
        return self.returncode

    def poll(self):
        """Reap the child if it has already exited; never blocks."""
        if self.returncode is None:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self._record(status, usage)
        return self.returncode

    def _record(self, status: int, usage) -> None:
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss * 1024 / MB

    def kill(self) -> None:
        if self.returncode is None:
            self.proc.kill()
            self.reap()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


def steal_seconds() -> float:
    """Host CPU seconds stolen by the hypervisor so far (all CPUs)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def tree_mb(directory: Path) -> float:
    total = 0
    for base, _, files in os.walk(directory):
        for name in files:
            try:
                total += os.lstat(os.path.join(base, name)).st_size
            except OSError:
                pass
    return total / MB


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Paper workloads
# ----------------------------------------------------------------------
SECTION = re.compile(r"^== ([A-Za-z0-9_]+): ", re.MULTILINE)


def check_paper_report(report: bytes, expected: dict) -> tuple:
    """``(attempted, failed)``: one operation per rendered experiment."""
    sections = expected["paper_sections"]
    text = report.decode("utf-8", errors="replace")
    starts = [(m.start(), m.group(1)) for m in SECTION.finditer(text)]
    found = {}
    for index, (start, name) in enumerate(starts):
        end = starts[index + 1][0] if index + 1 < len(starts) else len(text)
        found[name] = sha256(text[start:end].rstrip("\n").encode("utf-8"))
    failed = sum(1 for name, digest in sections.items() if found.get(name) != digest)
    if failed == 0 and sha256(report) != expected["paper_report_sha256"]:
        failed = 1
    return len(sections), failed


class PaperWorkload:
    """``run all --scale 1.0`` serially; cold or on a filled cache."""

    min_iterations = 1

    def __init__(self, work: Path, expected: dict, warm: bool) -> None:
        self.work = work
        self.expected = expected
        self.warm = warm
        self.count = 0
        self.cache = work / "cache"

    def _mkcache(self, cache: Path) -> float:
        start = time.perf_counter()
        with Child(
            [PYTHON, str(BENCH / "launch.py"), "mkcache", str(cache)],
            program_env(cache), self.work / "mkcache.out",
            self.work / "mkcache.err",
        ) as child:
            if child.reap() != 0 or not cache.is_dir():
                raise BenchError("creating the empty cache directory failed")
        return time.perf_counter() - start

    def setup(self) -> list:
        """Set-up times of the run, before any iteration.

        paper-warm simulates the suite into the cache once per run;
        paper-cold times set-up probes (each iteration adds its own).
        """
        if not self.warm:
            samples = []
            for probe in range(SETUP_SAMPLES - 1):
                path = self.work / f"probe{probe}"
                samples.append(self._mkcache(path))
                shutil.rmtree(path)
            return samples
        start = time.perf_counter()
        with Child(
            [PYTHON, str(BENCH / "launch.py"), "fill", "--scale", "1.0"],
            program_env(self.cache), self.work / "fill.out",
            self.work / "fill.err",
        ) as child:
            if child.reap() != 0:
                raise BenchError(
                    "filling the cache failed:\n"
                    + (self.work / "fill.err").read_text(errors="replace")[-2000:]
                )
        return [time.perf_counter() - start]

    def iterate(self, spans: Path = None) -> dict:
        self.count += 1
        setup = []
        if not self.warm:
            self.cache = self.work / f"cache{self.count}"
            setup.append(self._mkcache(self.cache))
        argv = program_argv(PAPER_ARGS, spans)
        out = self.work / f"report{self.count}.txt"
        err = self.work / f"stderr{self.count}.txt"
        start = time.perf_counter()
        with Child(argv, program_env(self.cache), out, err) as child:
            code = child.reap()
        report = out.read_bytes()
        attempted, failed = check_paper_report(report, self.expected)
        wall = time.perf_counter() - start
        if code != 0:
            failed = attempted
            print(err.read_text(errors="replace")[-2000:], file=sys.stderr)
        elif failed:
            print(
                f"paper report: {failed} of {attempted} experiment(s) differ"
                f" from the pinned output (sha256 {sha256(report)})",
                file=sys.stderr,
            )
        result = {
            "wall_s": wall,
            "cpu_s": child.cpu_s,
            "setup": setup,
            "peak_rss_mb": child.peak_rss_mb,
            "cache_mb": tree_mb(self.cache),
            "attempted": attempted,
            "failed": failed,
            "digest": sha256(report),
        }
        if not self.warm:
            shutil.rmtree(self.cache, ignore_errors=True)
        return result


# ----------------------------------------------------------------------
# Served sweep
# ----------------------------------------------------------------------
def request(port: int, method: str, path: str, body=None) -> tuple:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"X-Client": "perfbench"}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def metricz(port: int) -> dict:
    status, raw = request(port, "GET", "/v1/metricz")
    if status != 200:
        raise BenchError(f"GET /v1/metricz answered {status}")
    counters = {}
    for line in raw.decode("utf-8").splitlines():
        name, _, value = line.rpartition(" ")
        try:
            counters[name] = float(value)
        except ValueError:
            pass
    return counters


class ServedSweep:
    """A fresh daemon per iteration; one client, two submissions."""

    #: The daemon's peak RSS depends on how its two threads overlap their
    #: simulations, so a run always takes the median over two daemons.
    min_iterations = 2

    def __init__(self, work: Path, expected: dict) -> None:
        self.work = work
        self.expected = expected
        self.count = 0

    def setup(self) -> list:
        """Start and stop probe daemons; each iteration adds its own."""
        samples = []
        for probe in range(SETUP_SAMPLES - 1):
            daemon, port, cache, seconds = self._start(f"probe{probe}")
            samples.append(seconds)
            try:
                self._stop(daemon, port)
            finally:
                daemon.kill()
            shutil.rmtree(cache, ignore_errors=True)
        return samples

    def _start(self, name: str, spans: Path = None) -> tuple:
        """Spawn a daemon on an empty cache; wait for ``/v1/status``."""
        cache = self.work / f"cache-{name}"
        err = self.work / f"daemon-{name}.err"
        start = time.perf_counter()
        daemon = Child(
            program_argv(SERVE_ARGS, spans), program_env(cache),
            self.work / f"daemon-{name}.out", err,
        )
        try:
            port = None
            deadline = start + 60
            while port is None:
                if daemon.poll() is not None or time.perf_counter() > deadline:
                    raise BenchError(
                        "the daemon did not start:\n"
                        + err.read_text(errors="replace")[-2000:]
                    )
                found = re.search(r"serving on http://[^:]+:(\d+)", err.read_text())
                if found:
                    port = int(found.group(1))
                else:
                    time.sleep(0.005)
            while True:
                try:
                    if request(port, "GET", "/v1/status")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise BenchError("/v1/status never answered")
                time.sleep(0.005)
        except BaseException:
            daemon.kill()
            raise
        return daemon, port, cache, time.perf_counter() - start

    def _stop(self, daemon: Child, port: int) -> None:
        """Graceful shutdown, so the daemon reaps its workers."""
        status, _ = request(port, "POST", "/v1/shutdown")
        if status != 202 or daemon.reap(60) != 0:
            raise BenchError("the daemon did not shut down cleanly")

    def _submit(self, port: int) -> dict:
        """One sweep submission, polled until its ticket is terminal."""
        start = time.perf_counter()
        status, raw = request(port, "POST", "/v1/sweeps", SWEEP_SPEC)
        if status not in (200, 202):
            return {"ok": False, "status": status, "polls": 0,
                    "seconds": time.perf_counter() - start}
        ticket = json.loads(raw)["ticket"]
        polls = 0
        while True:
            polls += 1
            status, raw = request(port, "GET", f"/v1/tickets/{ticket}")
            document = json.loads(raw)
            if status != 200 or document["state"] in ("done", "failed"):
                break
            if time.perf_counter() - start > CHILD_TIMEOUT:
                raise BenchError(f"ticket {ticket} still {document['state']!r}")
            time.sleep(POLL_SECONDS)
        result = document.get("result") or {}
        digest = result.get("report_sha256")
        ok = (
            document.get("state") == "done"
            and digest == self.expected["served_report_sha256"]
        )
        if not ok:
            print(
                f"served-sweep: ticket {ticket} ended {document.get('state')!r}"
                f" with report sha256 {digest}",
                file=sys.stderr,
            )
        return {
            "ok": ok,
            "digest": digest,
            "polls": polls,
            "seconds": time.perf_counter() - start,
        }

    def iterate(self, spans: Path = None) -> dict:
        self.count += 1
        daemon, port, cache, seconds = self._start(f"run{self.count}", spans)
        try:
            before = metricz(port)
            start = time.perf_counter()
            passes = [self._submit(port), self._submit(port)]
            wall = time.perf_counter() - start
            after = metricz(port)
            self._stop(daemon, port)
        finally:
            daemon.kill()
        failed = sum(1 for p in passes if not p["ok"])
        result = {
            "wall_s": wall,
            "cpu_s": daemon.cpu_s,
            "peak_rss_mb": daemon.peak_rss_mb,
            "cache_mb": tree_mb(cache),
            "attempted": len(passes),
            "failed": failed,
            "digest": passes[0].get("digest"),
            "setup": [seconds],
            "service": {
                "startup_s": seconds,
                "sweep_cold_s": passes[0]["seconds"],
                "sweep_cached_s": passes[1]["seconds"],
                "ticket_polls": sum(p["polls"] for p in passes),
                "before": before,
                "after": after,
            },
        }
        shutil.rmtree(cache, ignore_errors=True)
        return result


# ----------------------------------------------------------------------
# Per-layer metrics from a traced iteration
# ----------------------------------------------------------------------
def layer_metrics(spans: list, iteration: dict, untraced_wall: float) -> dict:
    """Every per-layer metric from one traced iteration's spans.

    Span rows are ``[name, start, end, parent, id, attrs?]``.  A layer a
    workload bypasses reports 0.
    """
    by_id = {span[4]: span for span in spans}
    values = {name: 0.0 for name in PER_LAYER}
    experiments = {
        name[len("experiments."):-len("_s")]
        for name in PER_LAYER
        if name.startswith("experiments.") and name != "experiments.render_s"
    }

    def seconds(span):
        return span[2] - span[1]

    def attrs(span):
        return span[5] if len(span) > 5 else {}

    engine_under = {}  # experiments.run span id -> nested engine.run time
    stages = {}
    fast = slow = 0
    for span in spans:
        name = span[0]
        a = attrs(span)
        if name in ("workloads.chunk", "workloads.make_benchmark"):
            values["workloads.generate_s"] += seconds(span)
            values["workloads.accesses"] += a.get("accesses", 0)
        elif name == "prefetch.simulate":
            values["prefetch.simulate_s"] += seconds(span)
            values["prefetch.intervals"] += a.get("intervals", 0)
        elif name == "prefetch.tradeoff":
            values["prefetch.tradeoff_s"] += seconds(span)
        elif name == "engine.run":
            values["engine.run_s"] += seconds(span)
            values["engine.jobs"] += a.get("jobs", 0)
            values["engine.retries"] += a.get("retries", 0)
            fast += a.get("fast_path_accesses", 0)
            slow += a.get("slow_path_accesses", 0)
            for stage, value in a.get("stage_seconds", {}).items():
                stages[stage] = stages.get(stage, 0.0) + value
            parent = span[3]
            while parent is not None and by_id[parent][0] != "experiments.run":
                parent = by_id[parent][3]
            if parent is not None:
                engine_under[parent] = engine_under.get(parent, 0.0) + seconds(span)
        elif name == "engine.validate":
            values["engine.validate_s"] += seconds(span)
        elif name == "engine.store_get":
            values["engine.store_get_s"] += seconds(span)
            if a.get("hit"):
                values["engine.cache_hits"] += 1
                values["engine.store_read_mb"] += a.get("bytes", 0) / MB
            else:
                values["engine.cache_misses"] += 1
        elif name == "engine.store_put":
            values["engine.store_put_s"] += seconds(span)
            values["engine.store_write_mb"] += a.get("bytes", 0) / MB
        elif name == "core.evaluate_policy":
            values["core.evaluate_policy_s"] += seconds(span)
            values["core.evaluate_policy_calls"] += 1
            values["core.intervals_priced"] += a.get("intervals", 0)
        elif name == "core.stacked":
            values["core.stacked_s"] += seconds(span)
            values["core.stacked_calls"] += 1
        elif name == "experiments.render":
            values["experiments.render_s"] += seconds(span)
        elif name == "sweep.merge":
            values["sweep.merge_s"] += seconds(span)
    for span in spans:
        if span[0] == "experiments.run":
            experiment = attrs(span).get("experiment")
            if experiment in experiments:
                values[f"experiments.{experiment}_s"] += (
                    seconds(span) - engine_under.get(span[4], 0.0)
                )
    values["cache.frontend_s"] = stages.get("frontend", 0.0)
    values["cache.residual_s"] = stages.get("residual", 0.0)
    values["cache.assembly_s"] = stages.get("assembly", 0.0)
    values["prefetch.annotate_s"] = stages.get("annotate", 0.0)
    values["cache.fast_path_share"] = fast / (fast + slow) if fast + slow else 0.0
    values["cache.slow_path_accesses"] = slow

    service = iteration.get("service")
    if service is not None:
        before, after = service["before"], service["after"]

        def delta(counter):
            return after.get(counter, 0.0) - before.get(counter, 0.0)

        values["service.startup_s"] = service["startup_s"]
        values["service.sweep_cold_s"] = service["sweep_cold_s"]
        values["service.sweep_cached_s"] = service["sweep_cached_s"]
        values["service.compute_s"] = delta("repro_service.compute_seconds")
        values["service.admitted"] = delta("repro_service.admission.admitted")
        values["service.rejected"] = delta("repro_service.admission.rejected")
        values["service.coalesced"] = delta("repro_service.coalesce.coalesced")
        values["service.ticket_polls"] = service["ticket_polls"]
        values["service.store_hit_rate"] = after.get(
            "repro_service.store.hit_rate", 0.0
        )
        # Client-side time: the daemon's spans overlap on its threads.
        values["trace.unaccounted_s"] = 0.0
    else:
        roots = sum(seconds(s) for s in spans if s[3] is None)
        values["trace.unaccounted_s"] = iteration["wall_s"] - roots
    values["trace.wall_s"] = iteration["wall_s"]
    values["trace.overhead_s"] = iteration["wall_s"] - untraced_wall
    return values


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build() -> None:
    """Byte-compile the sources and build the native kernel, unmeasured."""
    env = program_env(WORK / "cache-build")
    subprocess.run(
        [PYTHON, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH)],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT,
    )
    subprocess.run(
        [PYTHON, "-c", "from repro.cache.native import load_native; load_native()"],
        env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT,
    )


def make_workload(name: str, work: Path, expected: dict):
    if name == "paper-cold":
        return PaperWorkload(work, expected, warm=False)
    if name == "paper-warm":
        return PaperWorkload(work, expected, warm=True)
    if name == "served-sweep":
        return ServedSweep(work, expected)
    raise BenchError(f"unknown workload {name!r}")


def _terminate(signum, frame) -> None:
    """SIGTERM unwinds like an error, so every child is killed and reaped."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", required=True,
        choices=[workload["name"] for workload in SPEC["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())

    run_start = time.perf_counter()
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    build()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steal_start = steal_seconds()
    try:
        workload = make_workload(args.workload, work, expected)
        setup = workload.setup()
        iterations = []
        if args.trace:
            iterations.append(workload.iterate())
            spans_path = work / "spans.json"
            traced = workload.iterate(spans=spans_path)
            spans = json.loads(spans_path.read_text())["spans"]
        else:
            measure_start = time.perf_counter()
            while True:
                iteration_start = time.perf_counter()
                iterations.append(workload.iterate())
                now = time.perf_counter()
                if (
                    now - measure_start >= args.seconds
                    and len(iterations) >= workload.min_iterations
                ):
                    break
                # Stay inside the 180 s budget of one run.
                if now - run_start + 1.5 * (now - iteration_start) > CHILD_TIMEOUT:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host = {
        "host.steal_s": steal_seconds() - steal_start,
        "host.loadavg_1m": os.getloadavg()[0],
    }

    runs = iterations + ([traced] if args.trace else [])
    attempted = sum(i["attempted"] for i in runs)
    failed = sum(i["failed"] for i in runs)
    digests = {i["digest"] for i in runs}
    correct = failed == 0 and len(digests) == 1

    if args.trace:
        values = layer_metrics(spans, traced, iterations[0]["wall_s"])
        values.update(host)
        metrics = {
            name: {"value": values[name], "unit": PER_LAYER[name]}
            for name in PER_LAYER
        }
        print(
            f"{args.workload} seed={args.seed} traced: "
            + ", ".join(
                f"{n}={values[n]:.4g}"
                for n in ("trace.wall_s", "trace.overhead_s", "trace.unaccounted_s",
                          "host.steal_s", "host.loadavg_1m")
            )
        )
    else:
        values = {
            name: statistics.median(i[name] for i in iterations)
            for name in END_TO_END if name != "setup_s"
        }
        values["setup_s"] = statistics.median(
            setup + [s for i in iterations for s in i["setup"]]
        )
        metrics = {
            name: {"value": values[name], "unit": END_TO_END[name]}
            for name in END_TO_END
        }
        walls = " ".join(f"{i['wall_s']:.2f}" for i in iterations)
        print(
            f"{args.workload} seed={args.seed}: {len(iterations)} iteration(s)"
            f" (wall_s {walls}); "
            + ", ".join(f"{n}={values[n]:.4g}" for n in END_TO_END)
            + f"; host.steal_s={host['host.steal_s']:.2f}"
            f" host.loadavg_1m={host['host.loadavg_1m']:.2f}"
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(1)
