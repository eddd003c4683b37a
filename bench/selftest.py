"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the root.

For every workload it runs ``run.py`` with small rounds, untraced and
traced, and checks the printed result against ``BENCHMARK.json``: the four
keys, every metric name with its unit, and the failed share (only the
harmonic ``construct`` command of ``cli`` fails, once per round).  It then
spoils one recorded output of each workload and checks that the oracle
counts it as a failed operation, and it checks that ``run.py`` refuses to run
where the meanmeasure sources are missing.  Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("set-means", "quadrature", "build", "cli")
CLI_OPS = 7  # commands in one cli round; one of them fails


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--tiny",
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what, problems):
    if not cond:
        problems.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists other workloads", problems)

    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            r = result(run(workload, trace))
            expect(set(r) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: keys {sorted(r)}", problems)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == wanted[trace], f"{tag}: metrics {got}", problems)
            expect(all(isinstance(v["value"], (int, float))
                       for v in r["metrics"].values()), f"{tag}: values", problems)
            expect(r["correct"] is True, f"{tag}: not correct", problems)
            expect(isinstance(r["attempted"], int) and r["attempted"] >= 1,
                   f"{tag}: attempted {r['attempted']}", problems)
            want_failed = r["attempted"] // CLI_OPS if workload == "cli" else 0
            expect(r["failed"] == want_failed,
                   f"{tag}: failed {r['failed']} of {r['attempted']}", problems)
            print(f"ok  {tag}: {r['attempted']} attempted, {r['failed']} failed",
                  flush=True)

        # the spoiled operation fails the oracle, so it counts as failed in
        # every round and the result is no longer correct
        r = result(run(workload, 0, "--plant-fault"))
        base = r["attempted"] // CLI_OPS if workload == "cli" else 0
        expect(r["correct"] is False and r["failed"] > base,
               f"{workload}: planted fault not reported ({r})", problems)
        print(f"ok  {workload} --plant-fault: {r['failed'] - base} more failed "
              f"of {r['attempted']}", flush=True)

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("set-means", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}",
           problems)
    shutil.rmtree(bare)
    print(f"ok  without sources: exit {proc.returncode}", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
