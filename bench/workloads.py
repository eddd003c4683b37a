"""One benchmark workload, run in a process of its own.

Usage (``run.py`` starts this; see README.md)::

    python bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
                              [--setup-only] [--tiny] [--plant-fault]

The process imports meanmeasure, makes one round of operations from the
seed and prints ``ready``; that line ends the set-up that ``run.py`` times.
It then runs whole rounds for ``--seconds``, checks the first round's
outputs against the oracle and every later output against the first
round's, and prints one JSON object as its last line.

With ``--trace 1`` the untraced rounds take half of ``--seconds``; it then
replays the same number of rounds with ``tracer`` installed and reports the
per-layer metrics instead.  ``--tiny`` shrinks the rounds for the self-test;
``--plant-fault`` corrupts one recorded output so the self-test can see the
oracle reject it.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

_t = time.perf_counter()
import meanmeasure as mm  # noqa: E402
IMPORT_S = time.perf_counter() - _t

import numpy as np  # noqa: E402

from speed import at_reference_speed, pick_cpu, probe  # noqa: E402
from tracer import Tracer, Totals  # noqa: E402

clock = time.perf_counter

# the windows meanmeasure's verify suites draw from
WINDOWS = {
    "lebesgue": (-50.0, 50.0),
    "exponential": (-5.0, 5.0),
    "geometric": (0.1, 100.0),
    "harmonic": (0.1, 100.0),
    "logarithmic": (0.1, 100.0),
    "square": (0.1, 100.0),
}
MEASURES = tuple(WINDOWS)

# largest decade 10^k a set-means set is shifted by, per measure: one decade
# below the first shift where random unions left the hull or raised
TOP_SHIFT = {"lebesgue": 5, "exponential": 2, "geometric": 3, "harmonic": 2,
             "logarithmic": 4, "square": 5}
SHIFT_SHARE = 0.25
# lebesgue and exponential, whose windows hold 0, are left out of quadrature:
# there err misses the rounding of moments that cancel across 0 (CHANGES.md)
QUAD_MEASURES = ("geometric", "harmonic", "logarithmic", "square")
DIM_EVERY = 20  # one double_integral_mean in every 20 quadrature operations
# double_integral_mean pairs as fractions of the window; the cost runs from
# 0.1 ms to 65 ms with the pair, so pairs sit at fixed places, jittered by 1%
DIM_PLACES = ((0.002, 0.05), (0.05, 0.2), (0.2, 0.9), (0.4, 0.5))
DIM_TOL = 1e-5  # acceptance criterion 8
BUILD_MEANS = ("arithmetic", "geometric", "harmonic", "logarithmic")
BUILD_WINDOWS = ((0.25, 64.0), (2.0, 50.0), (0.01, 0.9))
# built means against the catalog mean: the harmonic tabulation is off by up
# to 5.9e-6 in the top 2% of its window, so the bound is 2e-5, and the fresh
# reconstruct pairs stay in the lower 95% of the window (CHANGES.md)
BUILT_MEAN_REL_TOL = 2e-5
FRESH_SHARE = 0.95
SWEEP_REL_TOL = 1e-9
TRACE_SHARE = 0.5  # of --seconds for the untraced pass of a traced run

UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "rss_peak_mb": "MB",
    "intervals.normalize_us": "us", "intervals.setop_us": "us",
    "measures.mass_us": "us", "measures.moment_us": "us",
    "means.mean_self_us": "us", "quadrature.quad_calls": "count/op",
    "quadrature.quad_us": "us", "quadrature.evaluations": "count/op",
    "measures.density_evals": "count/op", "means.double_integral_ms": "ms",
    "construct.build_ms": "ms", "construct.tables_ms": "ms",
    "construct.selfcheck_ms": "ms", "construct.tabulate_join_ms": "ms",
    "construct.logF_evals": "count/op", "construct.built_mean_us": "us",
    "cli.import_ms": "ms", "cli.mean_ms": "ms", "cli.construct_ms": "ms",
    "cli.compare_ms": "ms", "cli.sweep_ms": "ms", "cli.verify_ms": "ms",
    "setparse.parse_us": "us", "verify.run_suites_ms": "ms",
    "trace.self_share": "ratio", "trace.overhead_s": "s",
}


class Timings:
    """Operation latencies of the rounds run.

    ``best[j]`` is the fastest of operation j's runs.  ``runs`` holds every
    latency and ``probes`` the mean ``probe`` time just before and just
    after each run; both are kept only for workloads with few operations a
    round.
    """

    def __init__(self, n_ops: int, keep_runs: bool):
        self.best = np.full(n_ops, np.inf)
        self.runs = [] if keep_runs else None
        self.probes = [] if keep_runs else None
        self.total = 0.0  # summed latency of every run of every operation

    def add_round(self, seconds: np.ndarray, probes: np.ndarray) -> None:
        np.minimum(self.best, seconds, out=self.best)
        self.total += float(seconds.sum())
        if self.runs is not None:
            self.runs.extend(seconds.tolist())
            self.probes.extend(probes.tolist())

    def at_reference_speed(self) -> np.ndarray:
        """Every latency scaled to the reference speed by the probes around it
        (README.md, "End-to-end metrics")."""
        return at_reference_speed(np.array(self.runs), np.array(self.probes))


@dataclasses.dataclass
class Verdict:
    failed: bool = False  # the operation raised or exited non-zero
    wrong: bool = False  # the oracle rejected its output
    note: str = ""


class OpError:
    """An operation that raised; equal to another of the same error."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.text == self.text

    def __repr__(self):
        return self.text


def random_pairs(rng, window, k):
    lo, hi = window
    pts = np.sort(rng.uniform(lo, hi, size=2 * k))
    return [(float(pts[2 * i]), float(pts[2 * i + 1])) for i in range(k)]


def inside(window):
    """The window pulled in by a millionth of its width, for open domains."""
    lo, hi = window
    pad = 1e-6 * (hi - lo)
    return lo + pad, hi - pad


def set_check(oracle, measure, pairs, out) -> Verdict:
    intervals, value, err = out
    want = oracle.canonical(pairs)
    if intervals != want:
        return Verdict(wrong=True, note=f"normalize gave {intervals}, want {want}")
    exact = oracle.set_mean(measure, intervals)
    if not abs(value - exact) <= err:
        return Verdict(wrong=True, note=f"{measure} {intervals}: {value!r} is "
                       f"{abs(value - exact):.3g} from {exact!r}, err {err:.3g}")
    if not intervals[0][0] <= value <= intervals[-1][1]:
        return Verdict(wrong=True, note=f"{measure} {intervals}: {value!r} "
                       f"outside the hull")
    return Verdict()


# -- workloads -----------------------------------------------------------------


class Workload:
    """One round of operations made from the seed, and their oracle checks.

    ``items`` are the inputs, one per operation; ``make_ops`` binds them to
    meanmeasure's API as it is bound when called (wrapped, once traced);
    ``check`` judges one first-round output; ``plant`` spoils the output of
    operation ``plant_at`` for the self-test.
    """

    plant_at = 0
    items: list
    # How the timed phase is summarised (README.md, "End-to-end metrics").
    # With many operations a round, each operation's latency is the fastest
    # of its runs, and op_tail_ms is their 99th percentile.  With few
    # (``pooled``), every run counts, and op_tail_ms is the mean of the
    # slowest quarter of runs.  ``pin_each_op`` picks the fastest CPU before
    # every operation, else before every round.
    pooled = False
    pin_each_op = False

    def close(self) -> None:
        pass


class SetMeans(Workload):
    """normalize + closed-form mean on random unions, some of them shifted."""

    def __init__(self, rng, tiny):
        size = 60 if tiny else 3000
        self.items = []
        for j in range(size):
            measure = MEASURES[j % len(MEASURES)]
            pairs = random_pairs(rng, WINDOWS[measure], int(rng.integers(1, 9)))
            if rng.random() < SHIFT_SHARE:
                s = 10.0 ** int(rng.integers(1, TOP_SHIFT[measure] + 1))
                pairs = [(lo + s, hi + s) for lo, hi in pairs]
            rng.shuffle(pairs)
            self.items.append((measure, pairs))
        rng.shuffle(self.items)

    def make_ops(self, tracer):
        specs = {m: mm.catalog(m) for m in MEASURES}
        normalize, mean = mm.normalize, mm.mean

        def op(spec, pairs):
            H = normalize(pairs)
            r = mean(spec, H)
            return (H.intervals, r.value, r.err), None

        return [(op, (specs[m], pairs)) for m, pairs in self.items]

    def check(self, oracle, item, out, extra):
        measure, pairs = item
        return set_check(oracle, measure, pairs, out)

    def plant(self, item, out):
        intervals, value, err = out
        return intervals, value + 2.0 * err + 1e-3 * abs(value), err


class Quadrature(Workload):
    """The same unions, unshifted, against densities alone; some double integrals."""

    def __init__(self, rng, tiny):
        size = 40 if tiny else 2000
        dims = size // DIM_EVERY
        self.items = []
        for j in range(size - dims):
            measure = QUAD_MEASURES[j % len(QUAD_MEASURES)]
            pairs = random_pairs(rng, WINDOWS[measure], int(rng.integers(1, 9)))
            rng.shuffle(pairs)
            self.items.append(("mean", measure, pairs))
        for j in range(dims):
            measure = QUAD_MEASURES[j % len(QUAD_MEASURES)]
            lo, hi = WINDOWS[measure]
            fa, fb = DIM_PLACES[j // len(QUAD_MEASURES) % len(DIM_PLACES)]
            a, b = (lo + (hi - lo) * f * (1.0 + 0.02 * (rng.random() - 0.5))
                    for f in (fa, fb))
            self.items.append(("dim", measure, (a, b)))
        rng.shuffle(self.items)
        self.plant_at = next(j for j, it in enumerate(self.items) if it[0] == "dim")

    def make_ops(self, tracer):
        specs = {m: dataclasses.replace(mm.catalog(m), cdf=None, antiderivative=None)
                 for m in QUAD_MEASURES}
        normalize, mean, dim = mm.normalize, mm.mean, mm.double_integral_mean

        def op_mean(spec, pairs):
            H = normalize(pairs)
            r = mean(spec, H)
            return (H.intervals, r.value, r.err), None

        def op_dim(spec, pair):
            return dim(spec, *pair), None

        return [((op_dim if kind == "dim" else op_mean), (specs[m], arg))
                for kind, m, arg in self.items]

    def check(self, oracle, item, out, extra):
        kind, measure, arg = item
        if kind == "mean":
            return set_check(oracle, measure, arg, out)
        exact = oracle.set_mean(measure, [arg])
        if abs(out - exact) <= DIM_TOL:
            return Verdict()
        return Verdict(wrong=True, note=f"{measure} {arg}: double integral "
                       f"{out!r}, mean {exact!r}")

    def plant(self, item, out):
        return out * (1.0 + 1e-3)


class Build(Workload):
    """build() then means of fixed unions on the built measure."""

    pooled = True
    pin_each_op = True

    def __init__(self, rng, tiny):
        means_per_op = 4 if tiny else 400
        self.items = []
        for name in BUILD_MEANS:
            for window in BUILD_WINDOWS:
                box = inside(window)
                sets = [mm.normalize(random_pairs(rng, box, int(rng.integers(1, 9))))
                        for _ in range(means_per_op)]
                lo, hi = box
                fresh = [random_pairs(rng, (lo, lo + FRESH_SHARE * (hi - lo)), 1)[0]
                         for _ in range(50)]
                self.items.append((name, window, sets, fresh))
        order = rng.permutation(len(self.items))
        self.items = [self.items[i] for i in order]

    def make_ops(self, tracer):
        build, ordinary_mean, mean = mm.build, mm.ordinary_mean, mm.mean

        def means(spec, sets):
            return tuple(mean(spec, H).value for H in sets)

        if tracer is not None:
            counted = tracer.counter("bench.built_means")
            traced_means = tracer.wrap("bench.built_means", means)

            def means(spec, sets):
                counted[0] += len(sets)
                return traced_means(spec, sets)

        def op(name, window, sets):
            spec = build(ordinary_mean(name), window)
            return means(spec, sets), spec

        return [(op, (name, window, sets)) for name, window, sets, _ in self.items]

    def check(self, oracle, item, out, spec):
        name, window, sets, fresh = item
        catalog_measure = oracle.PROPORTIONAL[name]
        for H, value in zip(sets, out):
            exact = oracle.set_mean(catalog_measure, H.intervals)
            if abs(value - exact) > BUILT_MEAN_REL_TOL * abs(exact):
                return Verdict(wrong=True, note=f"built {name} {window} on "
                               f"{H.intervals}: {value!r}, catalog {exact!r}")
        for a, b in fresh:
            got = mm.reconstruct(spec, a, b)
            want = oracle.pair_mean(name, a, b)
            if abs(got - want) > max(1e-9, 1e-6 * abs(want)):
                return Verdict(wrong=True, note=f"built {name} {window}: "
                               f"K({a!r}, {b!r}) = {got!r}, want {want!r}")
        return Verdict()

    def plant(self, item, out):
        return (out[0] * (1.0 + 1e-3),) + out[1:]


# README.md's command-line section, plus construct --mean geometric
CLI_COMMANDS = (
    ("mean", "--measure", "geometric", "--set", "[1,4]"),
    ("mean", "--measure", "geometric", "--set", "[1, e^2] U [e^4, e^8]"),
    ("construct", "--mean", "harmonic", "--window", "0.25,64"),
    ("construct", "--mean", "geometric"),
    ("compare", "--mu", "geometric", "--nu", "lebesgue", "--window", "0.1,100"),
    ("sweep", "--measure", "geometric", "--set", "[1,2]",
     "--shifts", "0,1,10,100", "--out", "{tmp}/rows.csv"),
    ("verify", "--cases", "500"),
)


class Cli(Workload):
    """Cold ``python -m meanmeasure.cli`` runs, one child at a time."""

    pooled = True
    pin_each_op = True

    def __init__(self, rng, tiny):
        OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        commands = [[a.format(tmp=self.tmp) for a in c] for c in CLI_COMMANDS]
        if tiny:
            commands[-1] = ["verify", "--cases", "20"]
        self.items = [commands[i] for i in rng.permutation(len(commands))]
        self.plant_at = next(j for j, c in enumerate(self.items) if c[0] == "verify")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.trace_dir = None

    def make_ops(self, tracer):
        runs = itertools.count()
        if tracer is not None:
            self.trace_dir = Path(tempfile.mkdtemp(prefix="cli-trace-", dir=OUT))

        def op(args):
            if tracer is None:
                prefix = [sys.executable, "-m", "meanmeasure.cli"]
            else:  # one span file per run, numbered in running order
                prefix = [sys.executable, str(BENCH / "cli_runner.py"),
                          str(self.trace_dir / f"{next(runs):05d}.json"), "--"]
            p = subprocess.run(prefix + args, env=self.env, cwd=ROOT,
                               capture_output=True, text=True, timeout=150)
            produced = None
            if "--out" in args:
                out_path = Path(args[args.index("--out") + 1])
                if out_path.exists():
                    produced = out_path.read_text()
                    out_path.unlink()
            return (p.returncode, p.stdout, produced), p.stderr

        return [(op, (args,)) for args in self.items]

    def check(self, oracle, args, out, stderr):
        code, stdout, produced = out
        if code != 0:
            return Verdict(failed=True, note=f"{' '.join(args)}: exit {code}: "
                           f"{stderr.strip()[-200:]}")
        cmd = args[0]
        try:
            if cmd == "mean":
                report = json.loads(stdout)
                text = args[args.index("--set") + 1]
                pairs = ([(1.0, 4.0)] if text == "[1,4]" else
                         [(1.0, math.e ** 2), (math.e ** 4, math.e ** 8)])
                exact = oracle.set_mean("geometric", oracle.canonical(pairs))
                ok = abs(report["value"] - exact) <= report["err"]
                if text == "[1,4]":
                    ok = ok and abs(report["value"] - 2.0) <= report["err"]
            elif cmd == "construct":
                ok = json.loads(stdout)["round_trip_max_rel_err"] <= 1e-6
            elif cmd == "compare":
                ok = json.loads(stdout)["status"] == "certified"
            elif cmd == "sweep":
                ok = self._sweep_ok(oracle, produced)
            else:
                lines = stdout.strip().splitlines()
                ok = len(lines) == 8 and all(": PASS (" in ln for ln in lines)
        except (ValueError, KeyError, TypeError) as exc:
            return Verdict(wrong=True, note=f"{cmd}: unreadable output ({exc})")
        return Verdict() if ok else Verdict(wrong=True, note=f"{' '.join(args)}: "
                                            f"{(stdout or produced or '')[:300]}")

    @staticmethod
    def _sweep_ok(oracle, csv_text) -> bool:
        lines = (csv_text or "").split("\n")
        if lines[0] != "x,mean,avg,abs_diff,ratio_bound" or lines[-1] != "":
            return False
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:-1]]
        if [r[0] for r in rows] != [0.0, 1.0, 10.0, 100.0]:
            return False
        for x, m, a, d, ratio in rows:
            exact = oracle.set_mean("geometric", [(1.0 + x, 2.0 + x)])
            want_ratio = ((2.0 + x) / (1.0 + x)) ** 1.5
            if abs(m - exact) > SWEEP_REL_TOL * abs(exact) \
                    or abs(a - (1.5 + x)) > 1e-15 * (1.5 + x) \
                    or abs(d - abs(m - a)) > 1e-15 * abs(a) \
                    or abs(ratio - want_ratio) > 1e-12 * want_ratio:
                return False
        return True

    def plant(self, args, out):
        code, stdout, produced = out
        return code, stdout.replace("PASS", "FAIL", 1), produced

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def collect_trace(self, totals: Totals, keep_as: str) -> list:
        """Merge the children's aggregates; keep the last round's span files."""
        import_s = []
        paths = sorted(self.trace_dir.glob("*.json"))
        for path in paths:
            doc = json.loads(path.read_text())
            totals.merge(doc)
            import_s.append(doc["import_s"])
        for path in paths[:-len(self.items)]:
            path.unlink()
        shutil.rmtree(OUT / keep_as, ignore_errors=True)
        self.trace_dir.rename(OUT / keep_as)
        return import_s


WORKLOADS = {"set-means": SetMeans, "quadrature": Quadrature, "build": Build,
             "cli": Cli}


# -- timed rounds ----------------------------------------------------------------


def run_rounds(ops, seconds, lat: Timings, first=None, rounds=None,
               tracer=None, pin_each_op=False):
    """Run whole rounds of ``ops`` for ``seconds`` (or exactly ``rounds``).

    A round starts only if, at the pace so far, it ends within ``seconds``;
    the first round always runs.  The first round's outputs are kept (or
    compared with ``first`` when given); later outputs are compared with
    them.  Returns the outputs, the rounds run, the wall time and the
    indices of outputs that differed.
    """
    keep = first is None
    first = [None] * len(ops) if keep else first
    differ = []
    buf = np.empty(len(ops))
    probes = np.zeros(len(ops))
    done = 0
    opno = 0
    begin = clock()
    while True:
        for j, (fn, args) in enumerate(ops):
            if pin_each_op or j == 0:
                before = pick_cpu()
            if tracer is not None:
                tracer.op = opno
            opno += 1
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # an operation failure, counted below
                out = (OpError(exc), None)
            buf[j] = clock() - t0
            if pin_each_op:
                probes[j] = (before + probe()) / 2
            if keep and done == 0:
                first[j] = out
            elif out[0] != first[j][0]:
                differ.append(j)
        lat.add_round(buf, probes)
        done += 1
        spent = clock() - begin
        if done == rounds or (rounds is None and spent * (done + 1) / done > seconds):
            break
    return first, done, clock() - begin, differ


def judge(workload, outputs, plant):
    """Oracle verdicts for the first round's outputs, one per operation."""
    import oracle  # mpmath loads here, after the timed phase
    verdicts = []
    for j, (item, (out, extra)) in enumerate(zip(workload.items, outputs)):
        if isinstance(out, OpError):
            verdicts.append(Verdict(failed=True, note=repr(out)))
            continue
        if plant and j == workload.plant_at:
            out = workload.plant(item, out)
        verdicts.append(workload.check(oracle, item, out, extra))
    return verdicts


def tally(verdicts, rounds, differ):
    """Failed operations over all rounds, and whether every output was right.

    An operation fails in every round if it failed in the first; a later
    output that differs from the first round's is a failure of its own.
    """
    bad = [v.failed or v.wrong for v in verdicts]
    failed = sum(bad) * rounds + sum(1 for j in differ if not bad[j])
    correct = not any(v.wrong for v in verdicts) and not differ
    return failed, correct


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(totals: Totals, ops: int, import_s: list, in_ops: bool,
                  lat: Timings) -> dict:
    """Per-layer metrics of a traced pass; README.md defines each one.

    ``import_s`` holds the package import times; ``in_ops`` says whether they
    fall inside the operations (the CLI children) or in set-up.
    """
    def per_op(x):
        return x / ops

    def per_call(x, name):
        n = totals.calls(name)
        return x / n if n else 0.0

    def per_count(x, name):
        n = totals.count(name)
        return x / n if n else 0.0

    def selfs(prefix):
        return totals.self_time(lambda n: n == prefix or n.startswith(prefix + "."))

    build = "construct.build"
    m = {
        "intervals.normalize_us": per_op(selfs("intervals.normalize")) * 1e6,
        "intervals.setop_us": per_op(selfs("intervals.IntervalSet")) * 1e6,
        "measures.mass_us": per_op(selfs("measures.MeasureSpec.mass_with_error")
                                   + selfs("measures.MeasureSpec.mu")) * 1e6,
        "measures.moment_us": per_op(selfs("measures.MeasureSpec.moment_with_error")
                                     + selfs("measures.MeasureSpec.first_moment")) * 1e6,
        "means.mean_self_us": per_op(selfs("means.mean")) * 1e6,
        "quadrature.quad_calls": per_op(totals.calls("quadrature.quad")),
        "quadrature.quad_us": per_op(selfs("quadrature.quad")) * 1e6,
        "quadrature.evaluations": per_op(totals.count("quadrature.evaluations")),
        "measures.density_evals": per_op(totals.count("measures.density_evals")),
        "means.double_integral_ms": per_call(
            totals.inclusive("means.double_integral_mean"),
            "means.double_integral_mean") * 1e3,
        "construct.build_ms": per_call(totals.inclusive(build), build) * 1e3,
        "construct.tables_ms": per_call(totals.inclusive(
            "construct.ConstructedMeasure.__init__", build), build) * 1e3,
        "construct.selfcheck_ms": per_call(totals.inclusive(
            "construct.reconstruct", build), build) * 1e3,
        "construct.tabulate_join_ms": per_call(selfs(build), build) * 1e3,
        "construct.logF_evals": per_op(totals.count("construct.ConstructedMeasure.log_F")),
        "construct.built_mean_us": per_count(totals.inclusive("bench.built_means"),
                                             "bench.built_means") * 1e6,
        "cli.import_ms": sum(import_s) / len(import_s) * 1e3,
    }
    for cmd in ("mean", "construct", "compare", "sweep", "verify"):
        name = f"cli.cmd_{cmd}"
        m[f"cli.{cmd}_ms"] = per_call(totals.inclusive(name), name) * 1e3
    m["setparse.parse_us"] = per_op(selfs("setparse")) * 1e6
    m["verify.run_suites_ms"] = per_call(totals.inclusive("verify.run_suites"),
                                         "verify.run_suites") * 1e3
    program_self = totals.self_time(lambda n: not n.startswith("bench."))
    m["trace.self_share"] = (program_self + sum(import_s) * in_ops) / lat.total
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--plant-fault", action="store_true")
    args = ap.parse_args(argv)

    rng = np.random.default_rng([args.seed, list(WORKLOADS).index(args.workload)])
    workload = WORKLOADS[args.workload](rng, args.tiny)
    ops = workload.make_ops(None)
    # the probe on the CPU run.py pinned us to ends the set-up
    print(f"ready {probe()!r}", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    try:
        result = measure(workload, ops, args)
    finally:
        workload.close()
    for note in result["notes"][:5]:
        print(f"check: {note}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def measure(workload, ops, args) -> dict:
    lat = Timings(len(ops), workload.pooled)
    # a traced run splits its time: the traced pass replays the untraced
    # pass's rounds and takes up to twice as long (set-means)
    seconds = args.seconds * (TRACE_SHARE if args.trace else 1.0)
    first, rounds, wall, differ = run_rounds(ops, seconds, lat,
                                             pin_each_op=workload.pin_each_op)
    verdicts = judge(workload, first, args.plant_fault)
    result = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
              "ops_per_round": len(ops), "wall_s": wall}
    is_cli = isinstance(workload, Cli)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        t_lat = Timings(len(ops), False)
        _, _, t_wall, t_differ = run_rounds(workload.make_ops(tracer), 0.0, t_lat,
                                            first=first, rounds=rounds,
                                            tracer=tracer,
                                            pin_each_op=workload.pin_each_op)
        totals = Totals()
        totals.merge(tracer.snapshot())
        if is_cli:
            import_s = workload.collect_trace(totals, f"trace-cli-seed{args.seed}")
        else:
            import_s = [IMPORT_S]
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(totals, rounds * len(ops), import_s, is_cli, t_lat)
        metrics["trace.overhead_s"] = t_wall - wall
        differ += t_differ
        rounds *= 2  # both passes count as attempted operations
    failed, correct = tally(verdicts, rounds, differ)
    if not args.trace:
        if workload.pooled:
            def summary(runs):
                runs = np.sort(runs)
                return ((rounds * len(ops) - failed) / runs.sum(), np.median(runs),
                        runs[-max(1, round(len(runs) / 4)):].mean())

            ops_per_s, p50, tail = summary(lat.at_reference_speed())
            raw = summary(lat.runs)
            result["as_timed"] = {"ops_per_s": raw[0], "op_p50_ms": raw[1] * 1e3,
                                  "op_tail_ms": raw[2] * 1e3}
        else:
            ok = sum(not (v.failed or v.wrong) for v in verdicts)
            ops_per_s = ok / lat.best.sum()
            p50, tail = np.median(lat.best), np.percentile(lat.best, 99.0)
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": float(p50) * 1e3,
            "op_tail_ms": float(tail) * 1e3,
            "rss_peak_mb": rss_mb(resource.RUSAGE_CHILDREN if is_cli
                                  else resource.RUSAGE_SELF),
        }
        result["ops_per_s_all_runs"] = (rounds * len(ops) - failed) / wall
        if lat.runs is not None:
            result["latencies_s"] = lat.runs
            result["probes_s"] = lat.probes
    result.update(correct=correct, attempted=rounds * len(ops), failed=failed,
                  metrics={k: {"value": v, "unit": UNITS[k]}
                           for k, v in metrics.items()},
                  notes=sorted({v.note for v in verdicts if v.note})[:20])
    return result


if __name__ == "__main__":
    sys.exit(main())
