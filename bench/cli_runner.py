"""Run one ``meanmeasure`` command with the tracer installed.

Usage: ``python bench/cli_runner.py TRACE_JSON -- ARGS...``

Equivalent to ``python -m meanmeasure.cli ARGS...`` (same exit code and
output), except that the package import is timed, the public API is wrapped
by ``tracer.Tracer`` before ``meanmeasure.cli.main`` runs, and the spans go
to TRACE_JSON at exit.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_runner.py TRACE_JSON -- ARGS...")
    t0 = time.perf_counter()
    import meanmeasure.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer(cap=5_000)
    tracer.install()
    try:
        return meanmeasure.cli.main(args)
    finally:
        tracer.dump(trace_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
