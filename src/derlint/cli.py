"""Command line front end.

Two subcommands: lint runs the recognizer over files or directories and
writes one report per certificate, diff analyzes a table of external
chain validation outcomes and optionally joins it against lint output.

Exit status for lint: 0 when every certificate was accepted, 1 when any
was rejected, 2 for usage problems, files that could not be read or
directories that could not be listed.
diff exits 0 on success and 2 on bad input.  Either exits 2, quietly,
when its standard output is closed before the report is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .differential import analyze, cross_tabulate, load_report_lines, read_records, write_report

if TYPE_CHECKING:
    from .ingest import CertificateReport

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2

# The lint stack is imported only when lint runs, so diff loads just the
# analyzer.  perfbench's traced run wraps these names here, so each is a
# module attribute, resolved from ingest on first access.
_INGEST_NAMES = ("lint", "load_input", "run_batch")


def __getattr__(name: str):
    if name not in _INGEST_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import ingest

    value = globals()[name] = getattr(ingest, name)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="derlint", description="Strict recognizer for DER encoded certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser("lint", help="check certificates and report diagnostics")
    p_lint.add_argument("paths", nargs="*", help="files or directories; stdin when omitted")
    p_lint.add_argument("--format", choices=("auto", "pem", "der"), default="auto", help="input container format")
    p_lint.add_argument("--report", choices=("json", "text"), default="json", help="report style")
    p_lint.add_argument("--no-timing", action="store_true", help="omit parse timings from reports")
    p_lint.add_argument("--max-size", type=int, metavar="BYTES", help="largest accepted input")
    p_lint.add_argument("--registry", metavar="FILE", help="alternate algorithm registry")

    p_diff = sub.add_parser("diff", help="analyze chain validation outcomes from external validators")
    p_diff.add_argument("--records", required=True, metavar="CSV", help="chain outcome table")
    p_diff.add_argument("--reports", metavar="JSONL", help="lint output to cross tabulate against")
    p_diff.add_argument("--report", choices=("json", "text"), default="json", help="report style")
    return parser


def _print_text_report(report: CertificateReport, out) -> None:
    timing = "" if report.parse_time_micros is None else f", {report.parse_time_micros} us"
    print(f"{report.doc_id}: {report.outcome} ({report.size_bytes} bytes{timing})", file=out)
    for d in report.diagnostics:
        offset = "?" if d.byte_offset is None else str(d.byte_offset)
        where = f" ({d.grammar_path})" if d.grammar_path else ""
        detail = f": {d.message}" if d.message else ""
        print(f"  [{d.severity.value}] {d.code.value} at byte {offset}{where}{detail}", file=out)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .diagnostics import Histogram
    from .ingest import LintOptions, load_documents
    from .registry import load_registry

    this = sys.modules[__name__]  # run_batch and lint are looked up as module attributes
    registry = None
    if args.registry:
        try:
            registry = load_registry(args.registry)
        except (OSError, ValueError) as exc:
            print(f"derlint: registry: {exc}", file=sys.stderr)
            return EXIT_ERROR
    options = LintOptions(fmt=args.format, registry=registry, timing=not args.no_timing)
    # LintOptions states the default bound, so diff never imports der for it.
    if args.max_size is not None:
        if args.max_size <= 0:
            print("derlint: --max-size must be positive", file=sys.stderr)
            return EXIT_ERROR
        options.max_size = args.max_size

    if args.paths:
        results = this.run_batch(args.paths, options)
    else:
        docs = load_documents(sys.stdin.buffer.read(), "<stdin>", options.fmt)
        results = (this.lint(doc, options) for doc in docs)

    # Each report is printed as soon as it is linted; only the counts are kept.
    histogram = Histogram()
    io_failed = False
    for result in results:
        if isinstance(result, tuple):
            path, message = result
            print(f"derlint: {path}: {message}", file=sys.stderr)
            io_failed = True
            continue
        histogram.add(result.diagnostics)
        if args.report == "json":
            print(json.dumps(result.to_json_dict()))
        else:
            _print_text_report(result, sys.stdout)

    if args.report == "json":
        print(json.dumps({"summary": histogram.to_json_dict()}))
    else:
        print(f"{histogram.accepted} accepted, {histogram.rejected} rejected of {histogram.total}")

    if io_failed:
        return EXIT_ERROR
    if histogram.rejected:
        return EXIT_REJECTED
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        # utf-8-sig: a spreadsheet export starts with a byte-order mark, which is not part of the header.
        with open(args.records, "r", encoding="utf-8-sig") as fh:
            analysis = analyze(read_records(fh))
    except (OSError, ValueError) as exc:
        print(f"derlint: records: {exc}", file=sys.stderr)
        return EXIT_ERROR

    crosstab = None
    if args.reports:
        try:
            with open(args.reports, "r", encoding="utf-8-sig") as fh:
                ours = load_report_lines(fh)
        except (OSError, ValueError) as exc:
            print(f"derlint: reports: {exc}", file=sys.stderr)
            return EXIT_ERROR
        crosstab = cross_tabulate(analysis.verdicts, ours)

    write_report(sys.stdout, analysis, crosstab, args.report)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _cmd_lint(args) if args.command == "lint" else _cmd_diff(args)
    except BrokenPipeError:
        # The reader has gone (`derlint lint ... | head`).  Point stdout at
        # devnull, as CPython's signal docs advise, so that the interpreter's
        # final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
