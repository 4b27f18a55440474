"""Golden reports: the paper's numbers as a byte-exact, tested contract.

* ``results_scale0.1.txt`` is ``repro-leakage run all --scale 0.1 --jobs
  1 --backend serial``; the test reruns that command on an empty cache
  and compares bytes.
* ``results_scale1.txt`` is the scale-1.0 report; its sha256 must be the
  digest the end-to-end benchmark pins in ``perfbench/expected.json``.
* The orderings of DESIGN.md §6 are asserted on the scale-0.1 suite,
  which reads the simulations the golden run left in its cache.

When the model changes on purpose, regenerate both files in the same
change and explain the diff in EXPERIMENTS.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import ExecutionEngine
from repro.engine.store import ResultStore
from repro.experiments import figure7, table2
from repro.experiments.suite import SuiteRunner

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SCALE = 0.1
GOLDEN_COMMAND = [
    "run", "all", "--scale", str(GOLDEN_SCALE), "--jobs", "1",
    "--backend", "serial",
]
NODES = (70, 100, 130, 180)  #: Table 2 columns, smallest node first.


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-cache")


def test_scale_01_report_is_byte_identical(cache_dir):
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *GOLDEN_COMMAND],
        capture_output=True, env=env, timeout=600, check=False,
    )
    assert completed.returncode == 0, completed.stderr.decode(errors="replace")
    golden = (ROOT / "results_scale0.1.txt").read_bytes()
    assert completed.stdout == golden


def test_scale_1_report_matches_the_benchmark_pin():
    pinned = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    digest = hashlib.sha256((ROOT / "results_scale1.txt").read_bytes()).hexdigest()
    assert digest == pinned["paper_report_sha256"]


# ----------------------------------------------------------------------
# DESIGN.md §6 orderings
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def suite(cache_dir):
    engine = ExecutionEngine(jobs=1, store=ResultStore(cache_dir), backend="serial")
    return SuiteRunner(scale=GOLDEN_SCALE, engine=engine)


@pytest.fixture(scope="module")
def scaling(suite):
    return table2.compute(suite)


@pytest.fixture(scope="module")
def sweep(suite):
    return figure7.compute(suite)


@pytest.mark.parametrize("cache", ["icache", "dcache"])
def test_hybrid_beats_sleep_beats_drowsy(scaling, cache):
    for nm in NODES:
        cell = scaling[cache][nm]
        assert cell["OPT-Hybrid"] >= cell["OPT-Sleep"], nm
        assert cell["OPT-Hybrid"] >= cell["OPT-Drowsy"], nm
        if nm <= 130:
            # Sleep dominates drowsy at 130 nm and below (the paper's shift).
            assert cell["OPT-Sleep"] >= cell["OPT-Drowsy"], nm


@pytest.mark.parametrize("cache", ["icache", "dcache"])
def test_savings_rise_as_the_node_shrinks(scaling, cache):
    for scheme in table2.SCHEMES:
        column = [scaling[cache][nm][scheme] for nm in reversed(NODES)]
        assert column == sorted(column), scheme
    hybrid = [scaling[cache][nm]["OPT-Hybrid"] for nm in reversed(NODES)]
    assert len(set(hybrid)) == len(hybrid), "hybrid savings must strictly rise"


def test_drowsy_dominates_the_icache_at_180nm(scaling):
    cell = scaling["icache"][180]
    assert cell["OPT-Drowsy"] > cell["OPT-Sleep"]


@pytest.mark.parametrize("cache", ["icache", "dcache"])
def test_hybrid_never_below_sleep_across_thresholds(sweep, cache):
    for sleep, hybrid in zip(sweep[cache]["sleep"], sweep[cache]["hybrid"]):
        assert hybrid >= sleep


def test_dcache_gap_smaller_than_icache_gap_at_180nm(scaling):
    def gap(cache):
        return scaling[cache][180]["OPT-Hybrid"] - scaling[cache][180]["OPT-Sleep"]

    assert gap("dcache") < gap("icache")


@pytest.mark.xfail(
    strict=True,
    reason="known deviation (EXPERIMENTS.md, Figure 7): the calibrated D-cache "
    "mid-band mass matches the I-cache's, so the 70 nm hybrid-sleep gaps "
    "sit within a point of each other, D above I",
)
def test_dcache_gap_smaller_than_icache_gap_at_70nm(sweep):
    def gaps(cache):
        return [h - s for s, h in zip(sweep[cache]["sleep"], sweep[cache]["hybrid"])]

    assert all(d < i for d, i in zip(gaps("dcache"), gaps("icache")))
