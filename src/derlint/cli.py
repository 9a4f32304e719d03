"""Command line front end.

Two subcommands: lint runs the recognizer over files or directories and
writes one report per certificate, diff analyzes a table of external
chain validation outcomes and optionally joins it against lint output.

Exit status for lint: 0 when every certificate was accepted, 1 when any
was rejected, 2 for usage problems, files that could not be read,
directories that could not be listed or a forked worker that failed.
diff exits 0 on success and 2 on bad input.  Either exits 2, quietly,
when its standard output is closed before the report is written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .ingest import CertificateReport

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2

CHUNK_FILES = 32  # files per chunk of a lint batch: what a forked worker lints at a time, and what is printed at once
FORK_CHUNKS = 10  # a smaller batch is linted inline: forked, it ran slower or even (experiments/fork_crossover.py)

# The lint stack is imported only when lint runs, and the analyzer (with csv)
# only when diff runs, so each command loads just its own.  perfbench's traced
# run wraps the analyzer's names here, so each is a module attribute, resolved
# from its module on first access.  lint reaches ingest directly; its three
# names stay only as part of this module's import surface.
_LAZY_NAMES = {
    "lint": "ingest",
    "load_input": "ingest",
    "run_batch": "ingest",
    "analyze": "differential",
    "cross_tabulate": "differential",
    "load_report_lines": "differential",
    "read_records": "differential",
    "write_report": "differential",
}


def __getattr__(name: str):
    home = _LAZY_NAMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __package__), name)
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
    from .ingest import LintOptions, collect_paths, lint, lint_files, load_documents
    from .registry import load_registry

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
        files = collect_paths(args.paths)
        chunks = [files[i : i + CHUNK_FILES] for i in range(0, len(files), CHUNK_FILES)]
    else:
        chunks = [load_documents(sys.stdin.buffer.read(), "<stdin>", options.fmt)]

    def lint_chunk(chunk: list, out, err) -> tuple[Histogram, bool]:  # its counts, and whether a read failed
        counts, io_failed = Histogram(), False
        for result in lint_files(chunk, options) if args.paths else (lint(doc, options) for doc in chunk):
            if isinstance(result, tuple):
                print(f"derlint: {result[0]}: {result[1]}", file=err)
                io_failed = True
                continue
            counts.add(result.diagnostics)
            if args.report == "json":
                print(json.dumps(result.to_json_dict()), file=out)
            else:
                _print_text_report(result, out)
        return counts, io_failed

    # Reports come in path order, each as soon as it is linted, or from forked workers a chunk at a time.
    histogram = Histogram()
    io_failed = False
    try:
        with contextlib.closing(_in_order(lint_chunk, chunks)) as results:
            for counts, failed in results:
                histogram.merge(counts)
                io_failed = io_failed or failed
    except EOFError:  # a forked worker ended before it sent all of a chunk's reports
        print("derlint: a lint worker failed; the reports after these are missing", file=sys.stderr)
        return EXIT_ERROR

    if args.report == "json":
        print(json.dumps({"summary": histogram.to_json_dict()}))
    else:
        print(f"{histogram.accepted} accepted, {histogram.rejected} rejected of {histogram.total}")

    if io_failed:
        return EXIT_ERROR
    if histogram.rejected:
        return EXIT_REJECTED
    return EXIT_OK


def _in_order(work, chunks: list):
    """Yield work(chunk, out, err) per chunk in order: inline to stdout and stderr, or forked, the text piped back."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n = min(cpus, len(chunks)) if hasattr(os, "fork") and len(chunks) >= FORK_CHUNKS else 1
    inline = (work(chunk, sys.stdout, sys.stderr) for chunk in chunks)
    if n < 2:
        yield from inline
        return
    import pickle
    import signal
    pids, readers = [], []  # chunk k goes to worker k mod n, which sends its results down readers[k]'s pipe
    try:
        try:
            for k in range(n):
                r, w = os.pipe()
                readers.append(open(r, "rb"))
                with open(w, "wb") as pipe:  # the parent's copy closes at once; a worker never leaves this block
                    pids.append(os.fork())
                    if pids[-1] == 0:
                        try:
                            for reader in readers:  # hold no read end, so that writes fail once the parent has gone
                                reader.close()
                            for chunk in chunks[k::n]:
                                out, err = io.StringIO(), io.StringIO()
                                result = work(chunk, out, err)
                                pickle.dump((out.getvalue(), err.getvalue(), result), pipe)
                                pipe.flush()  # the whole chunk goes now, not when the next one fills the buffer
                            os._exit(0)
                        except Exception as exc:  # a broken pipe means the parent has gone, and its exit says why
                            if not isinstance(exc, BrokenPipeError):
                                sys.excepthook(*sys.exc_info())
                        finally:
                            os._exit(1)
        except OSError:  # no pipe or process to be had, as under a process limit: lint inline, as on one CPU
            yield from inline  # a worker already started fills its pipe, then waits to be killed below
            return
        for i in range(len(chunks)):
            try:
                out, err, result = pickle.load(readers[i % n])  # EOFError when the worker ended before sending it
            except pickle.UnpicklingError as exc:  # the worker ended while sending it
                raise EOFError(exc) from exc
            sys.stdout.write(out)
            sys.stderr.write(err)
            yield result
    finally:
        for pid in pids:  # a worker still running has sent nothing that will be read
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _cmd_diff(args: argparse.Namespace) -> int:
    this = sys.modules[__name__]  # the analyzer's names are looked up as module attributes
    try:
        # utf-8-sig: a spreadsheet export starts with a byte-order mark, which is not part of the header.
        # newline="\n": lines end at LF only and keep their CR, as read_records splits a string, so csv itself
        # judges a CR: part of a CRLF, or inside a quoted field, or else an error (newline="" would end a line there).
        with open(args.records, "r", encoding="utf-8-sig", newline="\n") as fh:
            analysis = this.analyze(this.read_records(fh))
    except (OSError, ValueError) as exc:
        print(f"derlint: records: {exc}", file=sys.stderr)
        return EXIT_ERROR

    crosstab = None
    if args.reports:
        try:
            with open(args.reports, "r", encoding="utf-8-sig") as fh:
                ours = this.load_report_lines(fh)
        except (OSError, ValueError) as exc:
            print(f"derlint: reports: {exc}", file=sys.stderr)
            return EXIT_ERROR
        crosstab = this.cross_tabulate(analysis.verdicts, ours)

    this.write_report(sys.stdout, analysis, crosstab, args.report)
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
