"""Smoke tests of the benchmark: each workload at its smallest size.

Run from the repository root with ``python3 -m pytest bench``.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def bench(workload, trace, cwd=ROOT):
    """Run the benchmark for no more than its fixed ops; (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def digest(stdout):
    return re.search(r"^digest sha256=([0-9a-f]{64}) .*matches stored", stdout, re.M).group(1)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    return request.param, bench(request.param, 0), bench(request.param, 1)


def test_prints_every_metric_with_its_unit(runs):
    _, (code0, out0), (code1, out1) = runs
    assert code0 == 0 and code1 == 0
    for out, kind in ((out0, "end_to_end"), (out1, "per_layer")):
        res = result(out)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        for name, unit in expected.items():
            assert re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}$", out, re.M)
    assert re.search(r"^failed_frac 0 fraction", out0, re.M)


def test_digest_is_stored_and_same_traced_and_untraced(runs):
    _, (_, out0), (_, out1) = runs
    assert digest(out0) == digest(out1)


def test_lp_calls_are_traced_where_callers_look_them_up(runs):
    workload, _, (_, out1) = runs
    metrics = result(out1)["metrics"]
    under_witness_search = metrics["lp.calls.minimal_strong_witness"]["value"]
    if workload.startswith("trial-"):
        assert under_witness_search > 0
    else:
        assert under_witness_search == 0
        assert metrics["lp.calls.invariants"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
