"""The bench harness runs traced ``build`` and ``quadrature`` passes.

No timing is checked: each pass only has to finish correct, with no failed
operation.  The ``build`` pass must name the per-layer metrics BENCHMARK.json
declares, so a refactor that drops a name the tracer wraps fails here.  The
``quadrature`` pass must count as many integrand evaluations in ``quad``'s
results as density calls, so a pass that skips ``quad`` fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_tiny_pass(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["correct"] is True
    assert report["failed"] == 0
    return report


def test_bench_build_pass_reports_declared_metrics():
    report = traced_tiny_pass("build")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {name: m["unit"] for name, m in report["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_bench_quadrature_pass_counts_every_density_call():
    metrics = traced_tiny_pass("quadrature")["metrics"]
    assert metrics["quadrature.evaluations"]["value"] > 0
    assert metrics["quadrature.evaluations"] == metrics["measures.density_evals"]
