"""The bench harness runs one traced ``build`` pass and reports every metric.

No timing is checked: the pass only has to finish correct, with no failed
operation, and name the per-layer metrics BENCHMARK.json declares.  A
refactor that drops a name the tracer wraps fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_build_pass_reports_declared_metrics():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["correct"] is True
    assert report["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {name: m["unit"] for name, m in report["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
