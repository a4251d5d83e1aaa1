"""The benchmark's own checks: BENCHMARK.json declares exactly the workloads
and metrics the benchmark prints, and quick mode passes its output checks.

    python3 -m pytest perfbench/test_benchmark.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _triples(metrics):
    return [(m["name"], m["unit"], m["better"]) for m in metrics]


def test_declared_metrics_and_workloads_match_the_code():
    bench = _declared()
    assert _triples(bench["end_to_end"]) == run.END_TO_END
    assert _triples(bench["per_layer"]) == tracer.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert bench["paths"] == [os.path.basename(HERE)]


def test_quick_mode_prints_every_declared_metric_with_its_unit():
    bench = _declared()
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--quick"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    seen = set()
    for line in proc.stdout.splitlines():
        res = json.loads(line)
        seen.add((res["workload"], res["trace"]))
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want[res["trace"]], res["workload"]
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    assert seen == {(w, t) for w in workloads.WORKLOADS for t in (0, 1)}
