"""derlint benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload typical --seed 1 --seconds 15 --trace 0

With --trace 0 the result carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced run (spans around each
layer's public functions, plus exact opcode counts per module).  The
last line of standard output is the result; the line before it holds
provenance, sample counts and any failed checks.  Exits 2 without a
result when the tree holds no derlint sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

import checkout

WORKLOAD_NAMES = ("typical", "large-san", "reject", "batch-cli")
MODULES = ("cli", "der", "diagnostics", "differential", "extensions", "grammar", "ingest", "matchers", "names", "registry", "values")


def _workloads():
    import corpus
    from measure import BatchCliWorkload, InprocWorkload

    # Windows of about 0.1 s; the corpus is a whole number of windows.
    return {
        "typical": InprocWorkload("typical", corpus.typical_docs, corpus_size=2000, window=100, fmt="auto"),
        # 1,000 documents, so that p99 over documents has ten beyond it.
        "large-san": InprocWorkload("large-san", corpus.large_san_docs, corpus_size=1000, window=20, fmt="auto"),
        # Declared DER, so that random strings reach the structural layer
        # instead of stopping at format detection.
        "reject": InprocWorkload("reject", corpus.reject_docs, corpus_size=6000, window=1000, fmt="der"),
        "batch-cli": BatchCliWorkload(),
    }


def _opcode_metrics(opcodes) -> tuple[dict, dict]:
    counts, docs, identical = opcodes
    metrics = {f"{m}.opcodes_per_doc": (counts.get(m, 0) / docs, "opcodes/doc") for m in MODULES}
    metrics["derlint.opcodes_per_doc"] = (sum(counts.values()) / docs, "opcodes/doc")
    return metrics, {"opcode_sample_docs": docs, "opcodes_identical_across_hash_seeds": identical, "opcodes": counts}


def _write_spans(tracer, workload: str, seed: int) -> str:
    path = checkout.OUT / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, doc in tracer.kept_spans():
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "doc": doc}) + "\n")
    return str(path.relative_to(checkout.ROOT))


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import measure

    spec = _workloads()[workload]
    workdir = checkout.OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        out = spec.run(seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    inproc = workload != "batch-cli"
    tally = out["tally"]
    detail = {
        "workload": workload,
        "trace": int(trace),
        "provenance": checkout.provenance(seed, out["corpus_sha256"]),
        "documents": out["docs"],
        "records": out["records"],
        "failed_share": tally.failed / tally.attempted,
        "problems": tally.problems,
    }
    correct = tally.failed == 0
    if trace:
        metrics = (measure.traced_inproc_metrics if inproc else measure.traced_batch_metrics)(out)
        opcode_metrics, opcode_detail = _opcode_metrics(out["opcodes"])
        metrics.update(opcode_metrics)
        detail.update(opcode_detail)
        tracer = out["tracer"]
        detail["unmeasured_layers"] = sorted(set(measure.tracing.LAYERS) - tracer.measured_layers)
        detail["missing_targets"] = tracer.missing
        detail["spans_file"] = _write_spans(tracer, workload, seed)
        correct = correct and opcode_detail["opcodes_identical_across_hash_seeds"]
    else:
        compute = measure.inproc_metrics if inproc else measure.batch_metrics
        metrics = compute(out)
        detail["unscaled_metrics"] = {name: value for name, (value, _) in compute(out, scaled=False).items()}
        detail.update((measure.inproc_samples if inproc else measure.batch_samples)(out))
        detail["setup_runs_s"] = [s.seconds for s in out["setup"]]
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        checkout.prepare()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
