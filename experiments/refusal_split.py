"""Where a refused document's time goes: the scan, parse_certificate's refusal, the digest and the rest of lint_bytes.

For each kind of document in perfbench's reject corpus (perfbench/corpus.py, reject_docs: random byte strings,
truncated leaves and leaves with one octet after them), this script times four calls on every document of that
kind, in process time, and keeps the minimum over its runs:

* scan: parse_tlv_tree, the structural scan that refuses the document;
* parse_certificate: the scan and the walk's refusal, what lint's timing reports;
* digest: the sha256 that the report carries;
* lint_bytes: the whole call, with perfbench's options (fmt="der", timing on).

It also counts the Python frames one lint_bytes call runs (the "call" events of a sys.settrace tracer, so a
generator frame counts each time it resumes).  Standard library only; run from the repository root:

    python3 experiments/refusal_split.py --seed 1 --docs 6000 --runs 15

It prints one Markdown row per kind, in microseconds per document, and a row over the whole mix.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from derlint.der import parse_tlv_tree  # noqa: E402
from derlint.diagnostics import RecognitionError  # noqa: E402
from derlint.grammar import parse_certificate  # noqa: E402
from derlint.ingest import LintOptions, lint_bytes  # noqa: E402

KINDS = {None: "random", frozenset({"TRUNCATED_INPUT"}): "truncated", frozenset({"TRAILING_BYTES"}): "trailing"}
OPTIONS = LintOptions(fmt="der")


def _scan(docs: list[bytes]) -> None:
    for data in docs:
        try:
            parse_tlv_tree(data)
        except RecognitionError:
            pass


def _parse(docs: list[bytes]) -> None:
    for data in docs:
        parse_certificate(data)


def _digest(docs: list[bytes]) -> None:
    for data in docs:
        sha256(data).hexdigest()


def _lint(docs: list[bytes]) -> None:
    for data in docs:
        lint_bytes(data, "<input>", OPTIONS)


STAGES = {"scan": _scan, "parse_certificate": _parse, "digest": _digest, "lint_bytes": _lint}


def frames(docs: list[bytes]) -> int:
    """The Python frames that lint_bytes runs over docs."""
    count = 0

    def on_call(frame, event, arg):
        nonlocal count
        count += 1

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        _lint(docs)
    finally:
        sys.settrace(previous)
    return count - 1  # _lint's own frame


def split(docs: list[bytes], runs: int) -> dict[str, float]:
    """Microseconds per document of each stage, the minimum over runs; the stages alternate within a run."""
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(runs):
        for name, stage in STAGES.items():
            started = time.process_time_ns()
            stage(docs)
            best[name] = min(best[name], (time.process_time_ns() - started) / 1000 / len(docs))
    best["frames"] = frames(docs) / len(docs)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="perfbench's corpus seed")
    parser.add_argument("--docs", type=int, default=6000, help="documents in the corpus (perfbench's reject: 6000)")
    parser.add_argument("--runs", type=int, default=15, help="timed runs per stage; the minimum is kept")
    args = parser.parse_args()

    by_kind: dict[str, list[bytes]] = {kind: [] for kind in KINDS.values()}
    for doc in corpus.reject_docs(random.Random(args.seed), args.docs):
        by_kind[KINDS[doc.codes]].append(doc.data)
    _lint([data for docs in by_kind.values() for data in docs[:100]])  # warm-up: the registry loads on first use
    print(f"Python {sys.version.split()[0]}, seed {args.seed}, {args.docs} documents, min of {args.runs} runs")
    print()
    print("| kind | docs | scan µs | parse_certificate µs | digest µs | lint_bytes µs | frames/doc |")
    print("|---|---|---|---|---|---|---|")
    rows = {kind: split(docs, args.runs) for kind, docs in by_kind.items() if docs}
    total = sum(len(by_kind[kind]) for kind in rows)
    columns = [*STAGES, "frames"]
    rows["all"] = {k: sum(row[k] * len(by_kind[kind]) for kind, row in rows.items()) / total for k in columns}
    for kind, row in rows.items():
        docs = total if kind == "all" else len(by_kind[kind])
        times = " | ".join(f"{row[name]:.2f}" for name in STAGES)
        print(f"| {kind} | {docs} | {times} | {row['frames']:.1f} |")


if __name__ == "__main__":
    main()
