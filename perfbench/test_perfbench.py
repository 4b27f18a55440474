"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They check the declarations in ``BENCHMARK.json`` and ``layers.json``,
the output gate, and that the tracer's wrappers leave the program's
output byte-identical (a traced and an untraced ``run all --scale 0.1``).
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH / "layers.json").read_text())["layers"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]


def test_names_are_plain_and_unique():
    names = WORKLOADS + METRICS
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert len(set(names)) == len(names)


def test_declared_workloads_are_the_runnable_ones():
    parser_choices = ("paper-cold", "paper-warm", "served-sweep")
    assert tuple(WORKLOADS) == parser_choices
    for workload in parser_choices:
        assert run.make_workload(workload, ROOT, {}) is not None


def test_layer_table_names_only_declared_metrics_and_workloads():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    listed = [metric for layer in LAYERS for metric in layer["metrics"]]
    assert sorted(listed) == sorted(per_layer)
    for layer in LAYERS:
        for entry in layer["moves"] + layer["bypassed_by"]:
            assert entry["metric"] in end_to_end, entry
            assert entry["workload"] in WORKLOADS, entry


def test_gate_counts_each_differing_experiment():
    expected = json.loads((BENCH / "expected.json").read_text())
    sections = list(expected["paper_sections"])
    report = "\n\n\n".join(f"== {name}: x ==\nbody" for name in sections)
    attempted, failed = run.check_paper_report(report.encode(), expected)
    assert (attempted, failed) == (len(sections), len(sections))
    attempted, failed = run.check_paper_report(b"", expected)
    assert failed == attempted == 13


def _run_all(tmp_path: Path, name: str, traced: bool) -> tuple:
    cache = tmp_path / f"cache-{name}"
    env = run.program_env(cache)
    env["TMPDIR"] = str(tmp_path)
    args = ["run", "all", "--scale", "0.1", "--jobs", "1", "--backend", "serial"]
    spans = tmp_path / f"spans-{name}.json"
    done = subprocess.run(
        run.program_argv(args, spans if traced else None),
        env=env, cwd=ROOT, capture_output=True, timeout=300, check=True,
    )
    return done.stdout, spans


def test_wrappers_return_exactly_what_they_wrap(tmp_path):
    plain, _ = _run_all(tmp_path, "plain", traced=False)
    traced, spans_path = _run_all(tmp_path, "traced", traced=True)
    assert run.sha256(traced) == run.sha256(plain)

    spans = json.loads(spans_path.read_text())["spans"]
    names = {span[0] for span in spans}
    assert {
        "workloads.chunk", "workloads.make_benchmark", "prefetch.simulate",
        "prefetch.tradeoff", "engine.run", "engine.validate",
        "engine.store_get", "engine.store_put", "core.evaluate_policy",
        "core.stacked", "experiments.run", "experiments.render",
    } <= names
    values = run.layer_metrics(spans, {"wall_s": 1.0}, 1.0)
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    for experiment in ("table2", "figure7", "figure8", "futurework_tradeoff"):
        assert values[f"experiments.{experiment}_s"] > 0
    assert values["engine.jobs"] == 6
    assert values["engine.cache_misses"] == 6
    assert values["prefetch.annotate_s"] > 0
