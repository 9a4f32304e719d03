"""Exact opcode counts per derlint module over a fixed sample.

An opcode executed in a frame of derlint module M counts toward M; one
executed in any other frame (the standard library, generated dataclass
methods) counts toward the innermost derlint frame below it on the
stack.  The sample comes from a fixed seed, not from the run's seed, and
every path is run once before counting so that lazy set-up (the
registry, compiled regular expressions) is not counted.  The count is a
property of the code alone: it must not change with PYTHONHASHSEED.

Run as a script in a fresh interpreter; it prints one JSON object:

    python3 perfbench/opcodes.py WORKLOAD WORKDIR
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

SAMPLE_SEED = 0
SAMPLE_DOCS = {"typical": 40, "large-san": 4, "reject": 400, "batch-cli": 40}


def count_opcodes(fn, modules_by_file: dict[str, str]) -> Counter:
    counts: Counter = Counter()
    owner: dict = {}

    def on_call(frame, event, arg):
        module = modules_by_file.get(frame.f_code.co_filename) or owner.get(frame.f_back)
        if module is None:
            return None
        owner[frame] = module
        frame.f_trace_opcodes = True

        def on_event(frame, event, arg):
            if event == "opcode":
                counts[module] += 1
            elif event == "return":
                owner.pop(frame, None)
            return on_event

        return on_event

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return counts


def _sample(workload: str, workdir: Path):
    """(callable that runs the sample once, number of documents)."""
    import corpus
    import derlint
    import derlint.cli
    import derlint.differential as differential

    rng = random.Random(SAMPLE_SEED)
    n = SAMPLE_DOCS[workload]
    if workload == "batch-cli":
        docs = corpus.typical_docs(rng, n, prefix="doc")
        docs, _ = corpus.write_batch_dir(rng, docs, workdir, "sample")
        table = corpus.outcome_table(rng, docs)
        (workdir / "records.csv").write_text(table.csv_text)

        def run() -> None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                derlint.cli.main(["lint", "sample"])
            (workdir / "reports.jsonl").write_text(out.getvalue())
            with contextlib.redirect_stdout(io.StringIO()):
                derlint.cli.main(["diff", "--records", "records.csv", "--reports", "reports.jsonl"])

        return run, len(docs)

    make = {"typical": corpus.typical_docs, "large-san": corpus.large_san_docs, "reject": corpus.reject_docs}[workload]
    docs = make(rng, n)
    table = corpus.outcome_table(rng, docs)
    rejecting = {d.doc_id: sorted(d.rejecting_codes) for d in docs}
    options = derlint.LintOptions(fmt="der") if workload == "reject" else None

    def run() -> None:
        for d in docs:
            derlint.lint_bytes(d.data, d.doc_id, options)
        analysis = differential.analyze(differential.read_records(table.csv_text))
        differential.cross_tabulate(analysis.verdicts, rejecting)

    return run, len(docs)


def _main(argv: list[str]) -> int:
    import os

    import checkout

    checkout.prepare()
    workload, workdir = argv[0], Path(argv[1])
    os.chdir(workdir)
    run, docs = _sample(workload, workdir)
    run()
    modules = {str(p): p.stem for p in checkout.PACKAGE.glob("*.py")}
    counts = count_opcodes(run, modules)
    print(json.dumps({"docs": docs, "counts": dict(sorted(counts.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
