"""Command-line front end.

Subcommands: ``mean`` (evaluate a measure-weighted mean of a set expression),
``construct`` (synthesize the measure generating a named two-argument mean),
``compare`` (certify an inequality between two catalog measures), ``sweep``
(translate a set toward infinity and tabulate mean vs. centroid), and
``verify`` (run the randomized property suites).

Exit codes: 0 success, 1 verification failure (witness printed), 2 usage or
parse error (an ``--out`` path that cannot be written too, found before any
work), 3 numeric failure.  Reports go to stdout as JSON (floats with 17
significant digits) or, for ``sweep``, as CSV; ``--out PATH`` writes the
same bytes atomically instead.  ``verify`` always prints its PASS/FAIL and
witness lines; its ``--out PATH`` also writes, atomically, a JSON list with
one ``{suite, cases, passed, witnesses}`` entry per suite.

A module that only some subcommands use is imported when one of them runs:
the synthesis by ``construct``, the property suites by ``verify``, and the
set-expression parser by ``mean`` and ``sweep``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import InvalidInterval, MeanMeasureError, ParseError, UnknownMeasure
from .intervals import IntervalSet
from .means import certify_leq, infinity_sweep, mean
from .measures import CATALOG_NAMES, _linspace, catalog


class _Unwritable(MeanMeasureError):
    """An ``--out`` path that cannot be written: a usage error."""


_USAGE_ERRORS = (ParseError, InvalidInterval, UnknownMeasure, _Unwritable)


# -- deterministic emitters ---------------------------------------------------


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _jsonable(obj):
    """Coerce witnesses into plain JSON-friendly structures."""
    if isinstance(obj, IntervalSet):
        return [list(p) for p in obj.intervals]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_dump_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    # strings: minimal escaping
    escaped = (str(obj).replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n"))
    return f'"{escaped}"'


def _emit(text: str, out_path) -> None:
    """Print to stdout, or write the whole payload atomically to a file."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_beside(out_path, text)


def _check_out(out_path) -> None:
    """Fail, before any work, on an ``--out`` path that cannot be written:
    a directory, or one whose directory takes no new file."""
    if os.path.isdir(out_path):
        raise _Unwritable(f"cannot write {out_path!r}: Is a directory")
    _write_beside(out_path, None)


def _write_beside(out_path, text) -> None:
    """Write ``text`` to a temporary file beside ``out_path``, then move it
    there; with ``text`` None, only make and remove the temporary file."""
    import tempfile

    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".meanmeasure-")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text or "")
        if text is not None:
            os.replace(tmp, out_path)
    except OSError as exc:
        raise _Unwritable(f"cannot write {out_path!r}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _parse_window(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise InvalidInterval(f"window must be LO,HI, got {text!r}") from None
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInterval(f"window needs finite lo < hi, got {text!r}")
    return lo, hi


# -- subcommands --------------------------------------------------------------


def cmd_mean(args) -> int:
    from .setparse import parse_set

    spec = catalog(args.measure)
    H = parse_set(args.set)
    report = mean(spec, H)
    payload = {
        "value": report.value,
        "mass": report.mass,
        "moment": report.moment,
        "err": report.err,
    }
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


def cmd_construct(args) -> int:
    from .construct import build, ordinary_mean

    k = ordinary_mean(args.mean)
    window = _parse_window(args.window)
    spec = build(k, window)
    cm = spec.construction
    lo, hi = window
    probes = map(math.exp, _linspace(math.log(lo), math.log(hi), 12)[1:-1])
    density_probes = [{"x": x, "w": spec.density(x)} for x in probes]
    payload = {
        "mean": k.name,
        "window": [lo, hi],
        "grid_points": cm.nodes,
        "x0": cm.x0,
        "left_scale": cm.left_scale,
        "density_probes": density_probes,
        "round_trip_max_rel_err": cm.round_trip_max_rel_err,
    }
    _emit(_dump_json(payload) + "\n", args.out)
    return 0


def cmd_compare(args) -> int:
    mu_spec = catalog(args.mu)
    nu_spec = catalog(args.nu)
    window = _parse_window(args.window)
    cert = certify_leq(mu_spec, nu_spec, window, n_probe=args.probes,
                       n_random=args.random, rng=args.seed)
    payload = {
        "mu": mu_spec.name,
        "nu": nu_spec.name,
        "window": [window[0], window[1]],
        "status": cert.status,
        "ratio_check": None if cert.ratio is None else cert.ratio.status,
        "witness": _jsonable(cert.witness),
    }
    _emit(_dump_json(payload) + "\n", args.out)
    return 0 if cert.certified else 1


def cmd_sweep(args) -> int:
    from .setparse import parse_set

    spec = catalog(args.measure)
    H = parse_set(args.set)
    try:
        shifts = [float(s) for s in args.shifts.split(",") if s.strip()]
    except ValueError:
        raise InvalidInterval(f"bad shift list {args.shifts!r}") from None
    if not shifts:
        raise InvalidInterval("empty shift list")
    rows = infinity_sweep(spec, H, shifts)
    lines = ["x,mean,avg,abs_diff,ratio_bound"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in
                              (r.x, r.mean, r.avg, r.abs_diff, r.ratio_bound)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suites

    if args.cases < 1:
        raise InvalidInterval(f"--cases must be at least 1, got {args.cases!r}")
    names = None
    if args.suites is not None:
        names = [s.strip() for s in args.suites.split(",") if s.strip()]
    results = run_suites(names, cases=args.cases, seed=args.seed)
    lines = []
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name}: {status} ({r.cases} cases)")
        if not r.passed:
            all_ok = False
            for w in r.failures:
                lines.append(f"  witness: {_jsonable(w)!r}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        payload = [{"suite": r.name, "cases": r.cases, "passed": r.passed,
                    "witnesses": _jsonable(r.failures)} for r in results]
        _emit(_dump_json(payload) + "\n", args.out)
    sys.stdout.write(text)
    return 0 if all_ok else 1


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanmeasure",
        description="Measure-weighted means on interval sets, and the "
                    "measures generating a given two-argument mean.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mean", help="evaluate the mean of a set expression")
    p.add_argument("--measure", required=True, choices=CATALOG_NAMES)
    p.add_argument("--set", required=True, help="e.g. \"[1, e^2] U [e^4, e^8]\"")
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("construct", help="synthesize the measure behind a mean")
    p.add_argument("--mean", required=True,
                   help="arithmetic | geometric | harmonic | logarithmic | power:p")
    p.add_argument("--window", default="0.25,64")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("compare", help="certify mean-by-mu <= mean-by-nu")
    p.add_argument("--mu", required=True, choices=CATALOG_NAMES)
    p.add_argument("--nu", required=True, choices=CATALOG_NAMES)
    p.add_argument("--window", required=True, help="LO,HI")
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--random", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="translate a set to infinity, emit CSV")
    p.add_argument("--measure", required=True, choices=CATALOG_NAMES)
    p.add_argument("--set", required=True)
    p.add_argument("--shifts", required=True, help="comma-separated shifts")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--suites", default=None,
                   help="comma list of suite names (default: all); an "
                        "unknown name is an error that lists them")
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():
        p.add_argument("--out", metavar="PATH",
                       help="write the report to PATH, atomically")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MeanMeasureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
