"""Command-line front end for expansions, identity checks, and sign scans.

    qser expand <name>   [--order N] [--format table|csv|json]
    qser verify <target> [--order N] [--format table|csv|json]
    qser scan <target>   [--n-max N] [--format table|csv|json]

Exit codes: 0 when the expectation was met, 1 when a mathematical mismatch
was found or the reader of stdout hung up, 2 on usage errors and on
requests past ``catalog.MAX_PREC`` coefficients. stdout carries data only
and is byte-identical across identical runs; diagnostics go to stderr. JSON
documents are single compact lines with every coefficient as a decimal
string, so no consumer ever rounds a big integer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, checks

__all__ = ["main", "VERIFY_TARGETS", "SCAN_TARGETS", "FORMATS"]

VERIFY_TARGETS = tuple(checks.VERIFY_CHECKS)
SCAN_TARGETS = (*checks.SIGN_SCANS, "conjecture13", "asymptotic-c")
FORMATS = ("table", "csv", "json")

# each report prints at most this many of its violations
MAX_VIOLATIONS = 20


def _usage_error(message: str) -> int:
    print(f"qser: {message}", file=sys.stderr)
    return 2


def _print_json(doc) -> None:
    print(json.dumps(doc, separators=(",", ":")))


def _report_dict(report: checks.Report) -> dict:
    divergence = None
    if report.first_divergence is not None:
        divergence = {
            "index": report.first_divergence.index,
            "lhs": str(report.first_divergence.lhs),
            "rhs": str(report.first_divergence.rhs),
        }
    return {
        "subject": report.subject,
        "order_checked": report.order_checked,
        "status": report.status.value,
        "first_divergence": divergence,
        "violations": [
            {"index": v.index, "value": str(v.value), "expected": v.expected.value}
            for v in report.violations[:MAX_VIOLATIONS]
        ],
    }


def _print_reports(fmt, reports, doc, csv_tail, width, extras=()) -> None:
    """Print reports as the JSON doc, as csv rows, or as table lines.

    A csv row carries a report's divergence or one of its violations in the
    three columns named by csv_tail, or leaves them empty. A table line
    pads the subject to width; the extras lines follow the table only.
    """
    if fmt == "json":
        _print_json(doc)
    elif fmt == "csv":
        print(f"subject,order_checked,status,{csv_tail}")
        for r in reports:
            d = r.first_divergence
            rows = [(d.index, d.lhs, d.rhs)] if d is not None else [
                (v.index, v.value, v.expected.value) for v in r.violations[:MAX_VIOLATIONS]
            ]
            for row in rows or [("", "", "")]:
                print(",".join(map(str, (r.subject, r.order_checked, r.status.value, *row))))
    else:
        for r in reports:
            line = f"{r.subject:<{width}} {r.status.value:<9} order={r.order_checked}"
            if r.first_divergence is not None:
                d = r.first_divergence
                line += f"  first divergence at n={d.index}: lhs={d.lhs} rhs={d.rhs}"
            if r.falsified_at is not None:
                line += f"  falsified_at={list(r.falsified_at)}"
            print(line)
            for v in r.violations[:MAX_VIOLATIONS]:
                print(f"    n={v.index} value={v.value} expected={v.expected.value}")
        for line in extras:
            print(line)


# -- expand -------------------------------------------------------------------


def cmd_expand(args) -> int:
    if args.name not in catalog.NAMES:
        return _usage_error(
            f"unknown series name {args.name!r} (valid: {', '.join(catalog.NAMES)})"
        )
    if args.order < 1:
        return _usage_error(f"--order must be >= 1, got {args.order}")
    series = catalog.build(args.name, args.order)
    if args.fmt == "json":
        _print_json({"name": args.name, "coeffs": [str(v) for v in series]})
    elif args.fmt == "csv":
        print("n,coefficient")
        for n, v in enumerate(series):
            print(f"{n},{v}")
    else:
        wn = max(len("n"), len(str(series.prec - 1)))
        wv = max(len("coefficient"), max(len(str(v)) for v in series))
        print(f"{'n':>{wn}}  {'coefficient':>{wv}}")
        for n, v in enumerate(series):
            print(f"{n:>{wn}}  {str(v):>{wv}}")
    return 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.target != "all" and args.target not in VERIFY_TARGETS:
        return _usage_error(
            f"unknown verify target {args.target!r} (valid: {', '.join(VERIFY_TARGETS + ('all',))})"
        )
    if args.order < 1:
        return _usage_error(f"--order must be >= 1, got {args.order}")
    targets = VERIFY_TARGETS if args.target == "all" else (args.target,)
    # dissections first: their 5*order+4 builds meet the precision ceiling
    # before anything is computed, and cover most of what the rest reads
    first = sorted(targets, key=lambda t: not t.startswith("dissect-"))
    done = {t: checks.VERIFY_CHECKS[t](args.order) for t in first}
    reports = [done[t] for t in targets]
    docs = [_report_dict(r) for r in reports]
    doc = docs if args.target == "all" else docs[0]
    _print_reports(args.fmt, reports, doc, "divergence_index,lhs,rhs", 12)
    return 0 if all(r.ok() for r in reports) else 1


# -- scan ---------------------------------------------------------------------


def cmd_scan(args) -> int:
    if args.target not in SCAN_TARGETS:
        return _usage_error(
            f"unknown scan target {args.target!r} (valid: {', '.join(SCAN_TARGETS)})"
        )
    if args.n_max < 0:
        return _usage_error(f"--n-max must be >= 0, got {args.n_max}")
    extras = []
    if args.target == "conjecture13":
        parts = checks.check_conjecture13(args.n_max)
        reports = list(parts.values())
        falsified = {k: list(r.falsified_at or ()) for k, r in parts.items()}
        doc = {
            "subject": "conjecture13",
            "order_checked": args.n_max,
            "status": "falsified" if any(falsified.values()) else "verified",
            "first_divergence": None,
            "violations": [
                {**v, "series": k}
                for k, r in parts.items()
                for v in _report_dict(r)["violations"]
            ],
            "falsified_at": falsified,
        }
        ok = falsified == checks.CONJ13_FALSIFIED_AT
        summary = "expectation met" if ok else "UNEXPECTED OUTCOME"
        periods = " ".join(f"{k}={v}" for k, v in falsified.items())
        extras.append(f"conjecture13    {summary}: {periods}")
    elif args.target == "asymptotic-c":
        report = checks.scan_asymptotic(args.n_max)
        checked = len(checks.asymptotic_range(args.n_max))
        agreements = checked - len(report.violations)
        print(
            f"qser: asymptotic-c checked {checked} indices, {agreements} sign agreements",
            file=sys.stderr,
        )
        reports = [report]
        doc = {**_report_dict(report), "checked": checked, "agreements": agreements}
        ok = report.ok()
        extras.append(f"asymptotic-c    checked={checked} agreements={agreements}")
    else:
        name, pattern = checks.SIGN_SCANS[args.target]
        reports = [checks.scan_signs(name, pattern, args.n_max, subject=args.target)]
        doc = _report_dict(reports[0])
        ok = reports[0].ok()
    _print_reports(args.fmt, reports, doc, "index,value,expected", 15, extras)
    return 0 if ok else 1


# -- entry point ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qser",
        description="Exact integer q-series expansions, identity checks, and sign scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print coefficients of a named series")
    p.add_argument("name", help=f"series name, one of: {', '.join(catalog.NAMES)}")
    p.add_argument("--order", type=int, default=10, help="number of coefficients (default 10)")
    p.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="check an identity coefficient-by-coefficient")
    p.add_argument("target", help=f"one of: {', '.join(VERIFY_TARGETS + ('all',))}")
    p.add_argument("--order", type=int, default=200, help="comparison order (default 200)")
    p.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="scan coefficient signs against a pattern")
    p.add_argument("target", help=f"one of: {', '.join(SCAN_TARGETS)}")
    p.add_argument("--n-max", dest="n_max", type=int, default=500, help="largest index (default 500)")
    p.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits after --help and on usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        else:
            code = args.func(args)
        sys.stdout.flush()
    except catalog.PrecisionTooLarge as exc:
        return _usage_error(str(exc))
    except BrokenPipeError:
        # Reader hung up early (e.g. piped into head). Point stdout at
        # devnull so the interpreter's exit flush cannot raise again, and
        # die quietly instead of spraying a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
