"""The CPU's current speed, measured with a fixed loop, and CPU choice.

The benchmark's host drifts between two speeds about 1.5x apart, per CPU
and within seconds (README.md, "End-to-end metrics").  ``probe`` measures
the current speed, ``pick_cpu`` pins the process to the faster CPU, and
times taken between two probes are scaled to ``PROBE_REF_S``.
"""

import math
import os
import time

clock = time.perf_counter
# The CPUs to choose from.  A process started by one that had pinned itself
# inherits a single CPU, so the parent passes its own set in BENCH_CPUS.
if "BENCH_CPUS" in os.environ:
    CPUS = [int(c) for c in os.environ["BENCH_CPUS"].split(",") if c]
elif hasattr(os, "sched_getaffinity"):
    CPUS = sorted(os.sched_getaffinity(0))
else:
    CPUS = []
os.environ["BENCH_CPUS"] = ",".join(map(str, CPUS))
# probe() on a fast CPU of the machine the reference figures come from
PROBE_REF_S = 0.55e-3


def probe() -> float:
    """Seconds a fixed 10,000-step loop takes now: the CPU's current speed."""
    t = math.inf
    for _ in range(2):
        t0 = clock()
        s = 0
        for i in range(10_000):
            s += i * i
        t = min(t, clock() - t0)
    return t


def pick_cpu() -> float:
    """Pin this process to whichever of its CPUs runs ``probe`` fastest.

    The shared host slows each CPU by about 1.5x for spells of a fraction of
    a second to seconds, one CPU at a time more often than both.  Starting
    each long operation on the CPU that is fast at that moment takes some of
    that drift out of the figures.  Child processes inherit the pinning.
    Returns the probe time on the chosen CPU.
    """
    best = None
    try:
        for cpu in CPUS if len(CPUS) > 1 else ():
            os.sched_setaffinity(0, {cpu})
            t = probe()
            if best is None or t < best[0]:
                best = (t, cpu)
        if best is not None:
            os.sched_setaffinity(0, {best[1]})
    except OSError:  # pinning refused: measure where the scheduler puts us
        best = None
    return probe() if best is None else best[0]


def at_reference_speed(seconds, probe_s):
    """``seconds`` timed while ``probe`` took ``probe_s`` (the mean of a probe
    just before and one just after), scaled to a CPU on which it takes
    PROBE_REF_S.  Works elementwise on numpy arrays."""
    return seconds * PROBE_REF_S / probe_s
