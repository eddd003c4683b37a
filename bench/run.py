"""Benchmark entry point: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {set-means,quadrature,build,cli}
                         --seed N --seconds S --trace {0,1}

With ``--trace 0`` it starts ``workloads.py`` three times as a fresh
interpreter and times each one until it reports ``ready`` (import plus input
generation); the first two stop there, the third goes on to the timed phase.
``setup_s`` is the median of the three.  With ``--trace 1`` one traced
process runs.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; a fuller record goes to
``.bench_out/result-<workload>-seed<N>-trace<T>.json``.  Any failure exits
non-zero without printing a result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_reference_speed, pick_cpu

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run must end within 180 s


def start(args, extra, deadline):
    """Start a worker; return it and the seconds until it printed ``ready``.

    The worker starts pinned to the faster CPU.  The seconds come as timed
    and scaled to the reference speed by the probe before the start and the
    one the worker takes just before ``ready``.
    """
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    before = pick_cpu()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    word, _, after = proc.stdout.readline().partition(" ")
    setup = time.perf_counter() - t0
    if word != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup, at_reference_speed(setup, (before + float(after)) / 2)


def finish(proc, deadline) -> str:
    """Wait for a worker within the deadline; return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker passed the deadline and was killed")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="meanmeasure benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("set-means", "quadrature", "build", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small rounds, for the self-test")
    ap.add_argument("--plant-fault", action="store_true",
                    help="spoil one output, for the self-test")
    args = ap.parse_args()
    if not (ROOT / "src" / "meanmeasure" / "__init__.py").is_file():
        print(f"no meanmeasure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    extra = [f for f, on in (("--tiny", args.tiny),
                             ("--plant-fault", args.plant_fault)) if on]

    setups = []  # (as timed, scaled)
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, *setup = start(args, extra + ["--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup)
    proc, *setup = start(args, extra, deadline)
    setups.append(setup)
    record = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    if not args.trace:
        record["metrics"]["setup_s"] = {
            "value": statistics.median(s for _, s in setups), "unit": "s"}
        record["as_timed"] = dict(record.get("as_timed", {}),
                                  setup_s=statistics.median(t for t, _ in setups))
        record["setup_samples_s"] = setups

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
