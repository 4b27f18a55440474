"""Record the substrate performance baseline.

Runs ``benchmarks/bench_substrate.py``, ``benchmarks/bench_service.py``
and ``benchmarks/bench_traces.py`` through pytest-benchmark and writes the JSON results to
``BENCH_substrate.json`` at the repo root — the committed perf
trajectory future changes are compared against (the batched-kernel
acceptance bar was ">= 2x over the recorded
``test_simulator_throughput`` mean"; the service benches track serving
overhead: cold vs cached vs coalesced round-trips and request
throughput at saturation).

Usage::

    python scripts/bench_baseline.py              # full substrate suite
    python scripts/bench_baseline.py -k simulator # subset, pytest -k style
    python scripts/bench_baseline.py --out /tmp/bench.json

Compare a fresh run against the committed baseline with::

    python scripts/bench_baseline.py --out /tmp/new.json
    python scripts/bench_baseline.py --compare /tmp/new.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_substrate.json"


def run_benchmarks(out: Path, keyword: str | None) -> int:
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(REPO_ROOT / "benchmarks" / "bench_substrate.py"),
        str(REPO_ROOT / "benchmarks" / "bench_service.py"),
        str(REPO_ROOT / "benchmarks" / "bench_traces.py"),
        "-q",
        "--benchmark-only",
        f"--benchmark-json={out}",
    ]
    if keyword:
        command += ["-k", keyword]
    env_path = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        env_path + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else env_path
    )
    print(f"$ {' '.join(command)}")
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if result.returncode == 0:
        print(f"baseline written to {out}")
    return result.returncode


def load_means(path: Path) -> dict:
    document = json.loads(path.read_text(encoding="utf-8"))
    return {
        bench["name"]: bench["stats"]["mean"]
        for bench in document.get("benchmarks", [])
    }


def compare(baseline: Path, candidate: Path) -> int:
    old, new = load_means(baseline), load_means(candidate)
    shared = sorted(set(old) & set(new))
    if not shared:
        print("no overlapping benchmarks to compare")
        return 1
    width = max(len(name) for name in shared)
    regressed = False
    for name in shared:
        ratio = old[name] / new[name] if new[name] else float("inf")
        flag = ""
        if ratio < 0.9:
            flag = "  <-- regression"
            regressed = True
        print(
            f"{name:<{width}}  {old[name] * 1e3:9.2f} ms -> "
            f"{new[name] * 1e3:9.2f} ms  ({ratio:5.2f}x){flag}"
        )
    return 1 if regressed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", dest="keyword", default=None,
                        help="pytest -k expression selecting benchmarks")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    parser.add_argument("--compare", type=Path, default=None, metavar="JSON",
                        help="compare JSON against the committed baseline "
                             "instead of running benchmarks")
    arguments = parser.parse_args()
    if arguments.compare is not None:
        return compare(DEFAULT_OUT, arguments.compare)
    return run_benchmarks(arguments.out, arguments.keyword)


if __name__ == "__main__":
    raise SystemExit(main())
