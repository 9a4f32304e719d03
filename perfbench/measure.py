"""Timed runs of each workload, and the checks of their outputs.

In-process workloads (typical, large-san, reject) call ``lint_bytes`` in
a closed loop with one caller, in windows of a fixed number of
documents.  After the loop, the differential analysis runs in process
over the workload's outcome table, repeatedly.  batch-cli runs
``derlint lint DIR`` and ``derlint diff`` as child processes, alternately,
until the time is up.

Every timed interval (a window, a differential pass, a child process)
is paired with the host-speed kernel run next to it, and metrics are
computed from scaled times (see hostspeed.py); the same metrics from
the unscaled times go to the detail line.  Rates are medians over
intervals.  A document's latency is the median of its calls in the run,
which leaves out one-off stalls (a collection, a burst of contention),
and the latency percentiles are over documents.

Every output is compared with the expectation the corpus fixed when it
was generated.  Each mismatch is one failure.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checkout
import corpus
import derlint
import derlint.differential as differential
import hostspeed
import tracing

CHILD_TIMEOUT_S = 120
SETUP_REPEATS = 9
# In process: the share of the run given to the differential phase.
DIFF_SHARE = 0.2
MAX_PROBLEMS = 10
BATCH_DOCS = 2000
# In process: leaf chains per validator in the outcome table, the same
# for every workload, so that one pass is short and a run holds dozens.
TABLE_LEAVES = 3000

HERE = Path(__file__).resolve().parent

# Set-up for in-process workloads: import, default registry load and the
# first lint_bytes call, timed inside a fresh interpreter, followed by
# the host-speed kernel in that same interpreter.
_SETUP_SCRIPT = """
import sys, time
data = sys.stdin.buffer.read()
fmt, here = sys.argv[1:3]
t0 = time.perf_counter()
import derlint
derlint.lint_bytes(data, "setup", derlint.LintOptions(fmt=fmt))
setup = time.perf_counter() - t0
sys.path.insert(0, here)
import hostspeed
print(setup, hostspeed.kernel_seconds())
"""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)


@dataclass
class Interval:
    """One timed stretch of work and the host-speed scale measured next to it."""

    seconds: float
    scale: float
    docs: int = 0
    kib: float = 0.0
    traced: bool = False

    def rate(self, amount: float, scaled: bool) -> float:
        return amount / (self.seconds * (self.scale if scaled else 1.0))


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check_report(doc: corpus.Doc, outcome: str, codes: set[str], offsets, size: int, tally: Tally) -> None:
    if outcome != doc.verdict:
        tally.fail(f"{doc.doc_id}: {outcome}, expected {doc.verdict}")
    elif doc.codes is not None and codes != doc.codes:
        tally.fail(f"{doc.doc_id}: codes {sorted(codes)}, expected {sorted(doc.codes)}")
    elif any(o is not None and not 0 <= o <= size for o in offsets):
        tally.fail(f"{doc.doc_id}: byte offset outside the input")


def check_analysis(table: corpus.Outcomes, verdicts, missing, crosstab: dict, tally: Tally) -> None:
    """Compare derlint's differential output with the table's expectations."""
    seen: set[tuple[str, str]] = set()
    for v in verdicts:
        key = (v["validator_id"], v["chain_id"])
        got = (v["verdict"], v["rule_applied"], v["leaf_label"], v["parent_label"])
        if key in seen:
            tally.fail(f"diff: {key} reported twice")
        elif table.verdicts.get(key) != got:
            tally.fail(f"diff: {key} -> {got}, expected {table.verdicts.get(key)}")
        seen.add(key)
    for m in missing:
        key = (m["validator_id"], m["chain_id"])
        if key in seen:
            tally.fail(f"diff: {key} reported twice")
        elif table.missing.get(key) != m["parent_chain_id"]:
            tally.fail(f"diff: {key} missing parent {m['parent_chain_id']}, expected {table.missing.get(key)}")
        seen.add(key)
    unaccounted = (table.verdicts.keys() | table.missing.keys()) - seen
    if unaccounted:
        tally.fail(f"diff: {len(unaccounted)} record(s) not accounted for", len(unaccounted))
    expected = {
        "disagreements": table.disagreements,
        "by_code": {v: sorted(codes) for v, codes in table.by_code.items()},
        "agreements": table.agreements,
        "accepted_here_rejected_there": table.accepted_here_rejected_there,
        "unjoined": sorted(table.unjoined),
    }
    got = {
        "disagreements": crosstab["disagreements"],
        # Counts per code depend on how often a code repeats inside one
        # certificate, which the corpus does not fix; the code sets it does.
        "by_code": {v: sorted(codes) for v, codes in crosstab["by_code"].items()},
        "agreements": crosstab["agreements"],
        "accepted_here_rejected_there": crosstab["accepted_here_rejected_there"],
        "unjoined": sorted((u["validator_id"], u["chain_id"]) for u in crosstab["unjoined"]),
    }
    for key in expected:
        if expected[key] != got[key]:
            tally.fail(f"diff: crosstab {key} differs from expectation")


# --- child processes ------------------------------------------------------------


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(cmd: list[str], cwd: Path, stdout_path: Path | None = None, stdin: bytes | None = None, env: dict | None = None):
    """Run cmd to completion; return (wall seconds, max RSS KiB, exit code, stdout bytes).

    The child's resource usage comes from wait4, so other children never
    blur its peak RSS.
    """
    out = open(stdout_path, "wb") if stdout_path is not None else subprocess.PIPE
    previous = signal.signal(signal.SIGALRM, _alarm)
    proc = None
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=cwd,
            env=checkout.CHILD_ENV if env is None else env,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=out,
        )
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            # Piped payloads are small: the set-up input and opcode counts.
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            captured = proc.stdout.read() if stdout_path is None else b""
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except _Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise RuntimeError(f"{cmd[1:3]} ran longer than {CHILD_TIMEOUT_S} s") from None
        finally:
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, proc.returncode, captured
    finally:
        signal.signal(signal.SIGALRM, previous)
        if stdout_path is not None:
            out.close()
        elif proc is not None:
            proc.stdout.close()


def setup_inproc(first: corpus.Doc, fmt: str, workdir: Path) -> list[Interval]:
    cmd = [sys.executable, "-c", _SETUP_SCRIPT, fmt, str(HERE)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        _, _, code, out = run_child(cmd, workdir, stdin=first.data)
        if code != 0:
            raise RuntimeError(f"set-up child exited with {code}")
        if i:  # the first run only fills the bytecode cache
            seconds, kernel = map(float, out.split())
            times.append(Interval(seconds, hostspeed.scale(kernel)))
    return times


def opcode_pass(workload: str, workdir: Path) -> tuple[dict, int, bool]:
    """Counts from two interpreters with different hash seeds; (counts, docs, identical)."""
    results = []
    for hash_seed in ("1", "2"):
        sub = workdir / f"opcodes-{hash_seed}"
        sub.mkdir()
        cmd = [sys.executable, str(HERE / "opcodes.py"), workload, str(sub)]
        _, _, code, out = run_child(cmd, workdir, env={**checkout.CHILD_ENV, "PYTHONHASHSEED": hash_seed})
        if code != 0:
            raise RuntimeError(f"opcode pass exited with {code}")
        results.append(json.loads(out))
    first, second = results
    return first["counts"], first["docs"], first == second


# --- in-process workloads ---------------------------------------------------------


@dataclass
class LoopResult:
    windows: list[Interval] = field(default_factory=list)
    # Untraced calls, in order, with the corpus index of each call's
    # document; the i-th untraced window covers calls starts[i]:starts[i+1].
    latencies_ns: array = field(default_factory=lambda: array("q"))
    doc_index: array = field(default_factory=lambda: array("l"))
    starts: list[int] = field(default_factory=list)
    diff_passes: list[Interval] = field(default_factory=list)
    diff_records: int = 0


def lint_loop(docs, options, window: int, deadline: float, tally: Tally, tracer: tracing.Tracer | None, result: LoopResult) -> None:
    """Closed loop over docs in windows; with a tracer, every other window is traced."""
    n = len(docs)
    pos = 0
    while time.perf_counter() < deadline or len(result.windows) < (1 if tracer is None else 2):
        traced = tracer is not None and len(result.windows) % 2 == 1
        first = pos
        chunk = docs[pos : pos + window]
        pos = (pos + window) % n
        reports = []
        latencies = []
        scale = hostspeed.scale(hostspeed.kernel_seconds())
        if traced:
            tracer.scale = scale
            tracer.install()
        lint_bytes = derlint.lint_bytes
        begin = time.perf_counter_ns()
        for doc in chunk:
            if traced:
                tracer.doc = doc.doc_id
            t0 = time.perf_counter_ns()
            try:
                report = lint_bytes(doc.data, doc.doc_id, options)
            except Exception as exc:  # a crash is a failed document, not a failed run
                report = exc
            latencies.append(time.perf_counter_ns() - t0)
            # Keep what the check needs, not the report and its tree.
            reports.append(report if isinstance(report, Exception) else (report.outcome, report.diagnostics))
        seconds = (time.perf_counter_ns() - begin) / 1e9
        if traced:
            tracer.uninstall()
        else:
            result.starts.append(len(result.latencies_ns))
            result.latencies_ns.extend(latencies)
            result.doc_index.extend(range(first, first + len(chunk)))
        kib = 0
        for doc, report in zip(chunk, reports):
            kib += len(doc.data)
            if isinstance(report, Exception):
                tally.fail(f"{doc.doc_id}: raised {report!r}")
                continue
            outcome, diags = report
            check_report(doc, outcome, {d.code.value for d in diags}, [d.byte_offset for d in diags], len(doc.data), tally)
        tally.attempted += len(chunk)
        result.windows.append(Interval(seconds, scale, len(chunk), kib / 1024, traced))


def diff_loop(table: corpus.Outcomes, docs, deadline: float, tally: Tally, tracer: tracing.Tracer | None, result: LoopResult) -> None:
    rejecting = {d.doc_id: sorted(d.rejecting_codes) for d in docs}
    if tracer is not None:
        tracer.install()
    try:
        while time.perf_counter() < deadline or not result.diff_passes:
            scale = hostspeed.scale(hostspeed.kernel_seconds())
            if tracer is not None:
                tracer.scale = scale
            start = time.perf_counter()
            analysis = differential.analyze(differential.read_records(table.csv_text))
            crosstab = differential.cross_tabulate(analysis.verdicts, rejecting)
            result.diff_passes.append(Interval(time.perf_counter() - start, scale))
            result.diff_records += table.records
            tally.attempted += table.records
            as_json = analysis.to_json_dict()
            check_analysis(table, as_json["verdicts"], as_json["missing_parent_chains"], crosstab.to_json_dict(), tally)
    finally:
        if tracer is not None:
            tracer.uninstall()


@dataclass
class InprocWorkload:
    name: str
    make_docs: object
    corpus_size: int
    window: int
    fmt: str

    def run(self, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
        rng = random.Random(seed)
        docs = self.make_docs(rng, self.corpus_size)
        table = corpus.outcome_table(rng, docs, leaves=TABLE_LEAVES)
        out = {"corpus_sha256": corpus.digest(docs, table), "tally": Tally(), "docs": len(docs), "records": table.records}
        options = derlint.LintOptions(fmt=self.fmt)
        if not trace:
            out["setup"] = setup_inproc(docs[0], self.fmt, workdir)
        # Warm-up: lazy registry load, compiled patterns, first-call paths.
        for doc in docs[: self.window]:
            derlint.lint_bytes(doc.data, doc.doc_id, options)
        # The corpus and tables live to the end: keep them out of the
        # collector's way, so it only ever walks derlint's own objects.
        gc.freeze()

        tracer = tracing.Tracer() if trace else None
        result = LoopResult()
        start = time.perf_counter()
        lint_loop(docs, options, self.window, start + seconds * (1 - DIFF_SHARE), out["tally"], tracer, result)
        diff_loop(table, docs, start + seconds, out["tally"], tracer, result)
        out["result"] = result
        if trace:
            out["tracer"] = tracer
            out["opcodes"] = opcode_pass(self.name, workdir)
        else:
            out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out


def document_latencies(calls) -> list[float]:
    """Each document's median over its calls; calls are (document, latency) pairs."""
    by_doc = defaultdict(list)
    for doc, latency in calls:
        by_doc[doc].append(latency)
    return [statistics.median(v) for v in by_doc.values()]


def _inproc_calls(result: LoopResult, scaled: bool):
    plain = [w for w in result.windows if not w.traced]
    ends = result.starts[1:] + [len(result.latencies_ns)]
    for w, begin, end in zip(plain, result.starts, ends):
        factor = (w.scale if scaled else 1.0) / 1000
        for i in range(begin, end):
            yield result.doc_index[i], result.latencies_ns[i] * factor


def inproc_metrics(out: dict, scaled: bool = True) -> dict:
    result: LoopResult = out["result"]
    plain = [w for w in result.windows if not w.traced]
    latencies = document_latencies(_inproc_calls(result, scaled))
    return {
        "setup_s": (statistics.median(s.seconds * (s.scale if scaled else 1.0) for s in out["setup"]), "s"),
        "docs_per_s": (statistics.median(w.rate(w.docs, scaled) for w in plain), "docs/s"),
        "kib_per_s": (statistics.median(w.rate(w.kib, scaled) for w in plain), "KiB/s"),
        "latency_p50_us": (percentile(latencies, 0.50), "us"),
        "latency_p99_us": (percentile(latencies, 0.99), "us"),
        "peak_rss_mib": (out["peak_rss_mib"], "MiB"),
        "diff_records_per_s": (statistics.median(p.rate(out["records"], scaled) for p in result.diff_passes), "records/s"),
    }


def inproc_samples(out: dict) -> dict:
    result: LoopResult = out["result"]
    return {
        "latency_calls": len(result.latencies_ns),
        "latency_documents": len(set(result.doc_index)),
        "windows": sum(not w.traced for w in result.windows),
        "diff_passes": len(result.diff_passes),
    }


def overhead_share(plain: list[Interval], traced: list[Interval]) -> float:
    def rate(intervals):
        return statistics.median(i.rate(i.docs, True) for i in intervals)

    return 1.0 - rate(traced) / rate(plain)


def traced_inproc_metrics(out: dict) -> dict:
    result: LoopResult = out["result"]
    traced = [w for w in result.windows if w.traced]
    metrics = tracing.layer_metrics(out["tracer"], sum(w.docs for w in traced), result.diff_records)
    metrics["trace.overhead_share"] = (overhead_share([w for w in result.windows if not w.traced], traced), "ratio")
    return metrics


# --- batch-cli --------------------------------------------------------------------


def run_cli(workdir: Path, stdout_path: Path, args: tuple[str, ...], totals: Path | None = None):
    """One derlint command through cli_child.py; return (interval, max RSS KiB, exit code)."""
    speed = workdir / "speed.json"
    trace = ("--trace", str(totals)) if totals is not None else ()
    wall, rss, code, _ = run_child([sys.executable, str(HERE / "cli_child.py"), str(speed), *trace, *args], workdir, stdout_path)
    sample = json.loads(speed.read_text())
    return Interval(wall - sample["kernel_overhead_s"], hostspeed.scale(sample["kernel_s"])), rss, code


def check_lint_output(docs: dict[str, corpus.Doc], text: str, code: int, tally: Tally) -> list[tuple[str, int]]:
    """Check one lint run's JSON lines; return each document's reported parse time in µs."""
    latencies = []
    seen: set[str] = set()
    summary = None
    for line in text.splitlines():
        obj = json.loads(line)
        if "summary" in obj:
            summary = obj["summary"]
            continue
        doc_id = obj["id"]
        doc = docs.get(doc_id)
        if doc is None:
            tally.fail(f"lint: unexpected report {doc_id!r}")
            continue
        if doc_id in seen:
            tally.fail(f"lint: duplicate report {doc_id!r}")
            continue
        seen.add(doc_id)
        diags = obj["diagnostics"]
        check_report(doc, obj["outcome"], {d["code"] for d in diags}, [d["byte_offset"] for d in diags], len(doc.data), tally)
        latencies.append((doc_id, obj["parse_time_micros"]))
    missing = len(docs) - len(seen)
    if missing:
        tally.fail(f"lint: {missing} report(s) missing", missing)
    rejected = sum(d.verdict == corpus.REJECTED for d in docs.values())
    if summary is None or (summary["total"], summary["rejected"]) != (len(docs), rejected):
        tally.fail(f"lint: summary {summary} does not match {len(docs)} documents, {rejected} rejected")
    if code != (1 if rejected else 0):
        tally.fail(f"lint: exit status {code}")
    return latencies


@dataclass
class BatchCliWorkload:
    name: str = "batch-cli"

    def run(self, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
        rng = random.Random(seed)
        docs = corpus.typical_docs(rng, BATCH_DOCS, prefix="doc")
        docs, file_bytes = corpus.write_batch_dir(rng, docs, workdir, "corpus")
        table = corpus.outcome_table(rng, docs, leaves=3 * BATCH_DOCS)
        (workdir / "records.csv").write_text(table.csv_text)
        by_id = {d.doc_id: d for d in docs}
        single = next(d for d in docs if d.verdict == corpus.ACCEPTED)
        (workdir / "one.der").write_bytes(single.data)
        out = {"corpus_sha256": corpus.digest(docs, table), "tally": Tally(), "docs": len(docs), "records": table.records}
        tally = out["tally"]

        if not trace:
            # The first run only fills the bytecode cache.
            out["setup"] = [run_cli(workdir, workdir / "one.jsonl", ("lint", "one.der"))[0] for _ in range(SETUP_REPEATS + 1)][1:]
        tracer = tracing.Tracer() if trace else None
        lint_runs, traced_lint_runs, diff_runs = [], [], []
        latencies: list[tuple[str, int, float]] = []  # (document, parse µs, scale of its run)
        reports = workdir / "reports.jsonl"
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(diff_runs) < 2:
            traced = trace and len(lint_runs) > len(traced_lint_runs)
            totals = workdir / "lint-trace.json"
            interval, rss, code = run_cli(workdir, reports, ("lint", "corpus"), totals if traced else None)
            interval.docs, interval.kib = len(docs), file_bytes / 1024
            run_latencies = check_lint_output(by_id, reports.read_text(), code, tally)
            tally.attempted += len(docs)
            if traced:
                tracer.merge(json.loads(totals.read_text()), interval.scale)
                traced_lint_runs.append(interval)
            else:
                lint_runs.append((interval, rss))
                latencies.extend((doc_id, us, interval.scale) for doc_id, us in run_latencies)

            totals = workdir / "diff-trace.json"
            diff_args = ("diff", "--records", "records.csv", "--reports", "reports.jsonl")
            interval, _, code = run_cli(workdir, workdir / "diff.json", diff_args, totals if trace else None)
            tally.attempted += table.records
            if code != 0:
                tally.fail(f"diff: exit status {code}", table.records)
            else:
                payload = json.loads((workdir / "diff.json").read_text())
                check_analysis(table, payload["verdicts"], payload["missing_parent_chains"], payload["crosstab"], tally)
            if trace:
                tracer.merge(json.loads(totals.read_text()), interval.scale, layers={"differential"})
            diff_runs.append(interval)
        out.update(lint_runs=lint_runs, traced_lint_runs=traced_lint_runs, diff_runs=diff_runs, latencies=latencies, tracer=tracer)
        if trace:
            out["opcodes"] = opcode_pass(self.name, workdir)
        return out


def batch_metrics(out: dict, scaled: bool = True) -> dict:
    latencies = document_latencies((doc, us * (scale if scaled else 1.0)) for doc, us, scale in out["latencies"])
    return {
        "setup_s": (statistics.median(s.seconds * (s.scale if scaled else 1.0) for s in out["setup"]), "s"),
        "docs_per_s": (statistics.median(r.rate(r.docs, scaled) for r, _ in out["lint_runs"]), "docs/s"),
        "kib_per_s": (statistics.median(r.rate(r.kib, scaled) for r, _ in out["lint_runs"]), "KiB/s"),
        "latency_p50_us": (percentile(latencies, 0.50), "us"),
        "latency_p99_us": (percentile(latencies, 0.99), "us"),
        "peak_rss_mib": (statistics.median(rss for _, rss in out["lint_runs"]) / 1024, "MiB"),
        "diff_records_per_s": (statistics.median(r.rate(out["records"], scaled) for r in out["diff_runs"]), "records/s"),
    }


def batch_samples(out: dict) -> dict:
    return {
        "latency_calls": len(out["latencies"]),
        "latency_documents": out["docs"],
        "lint_runs_s": [r.seconds for r, _ in out["lint_runs"]],
        "diff_runs_s": [r.seconds for r in out["diff_runs"]],
    }


def traced_batch_metrics(out: dict) -> dict:
    traced_runs = out["traced_lint_runs"]
    metrics = tracing.layer_metrics(out["tracer"], out["docs"] * len(traced_runs), out["records"] * len(out["diff_runs"]))
    metrics["trace.overhead_share"] = (overhead_share([r for r, _ in out["lint_runs"]], traced_runs), "ratio")
    return metrics
