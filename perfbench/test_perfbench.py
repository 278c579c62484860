"""Smoke tests of the benchmark: every workload at small size, in seconds.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counts that later changes may cite; they must repeat for one seed
COUNTS = ("hafnian.calls", "hafnian.grid_points", "heralding.elements",
          "heralding.odd_parity_elements")


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


def assert_metrics(metrics, spec):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    metrics = run(workload, 0)
    assert_metrics(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted_and_counts_repeat(workload):
    first = run(workload, 1)
    assert_metrics(first, SPEC["per_layer"])
    second = run(workload, 1)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "herald":
        odd = first["heralding.odd_parity_elements"]["value"]
        assert 0 < odd < first["heralding.elements"]["value"]


def test_unknown_workload_is_refused():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout


def test_each_pass_has_fresh_inputs_and_the_same_outputs(tmp_path,
                                                         monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import workloads

    wl = workloads.Herald(3, workloads.SIZES["herald"][1], str(tmp_path))
    configs = []
    for pass_id in (1, 2):
        items = wl.items(pass_id)
        configs.append([p.read_text() for p in sorted(tmp_path.iterdir())])
        outputs = workloads.run_items(items)[1]
        assert not any(wl.check(outputs).failed)
    assert configs[0] != configs[1]
