"""Forked against inline `derlint lint` on the same CPUs, from 64 to 100,000 documents: time, docs/s and peak RSS.

`derlint lint` forks only for a batch of at least `cli.FORK_CHUNKS` chunks of `cli.CHUNK_FILES` files.  This
script checks that bound and measures what forking gives at scale.  It copies `src/` twice into a temporary
directory, once with `FORK_CHUNKS = 2` (fork as soon as there are two chunks) and once with `FORK_CHUNKS` out of
reach (always inline), and runs `python3 -m derlint.cli lint --no-timing DIR` from each, with stdout to /dev/null,
alternating which goes first, in pairs.  Both run unpinned, so a pair differs in the fork decision alone: pinning
a run with taskset changes its time by itself.

Each DIR holds seeded typical documents of perfbench's corpus (perfbench/corpus.py: WebPKI-shaped leaves, a tenth
of them planted catalog fixtures), generated and written 10,000 at a time, spread over DER, single-block PEM and
multi-block PEM files the way the batch-cli workload writes them.  Each run is started by a small launcher
process, which times it, interpreter start included, and reads its peak RSS from wait4: Linux carries a
process's peak RSS across exec, so a command started straight from this script, which holds a batch of
documents, would report this script's peak instead.  wait4 gives the largest peak among the command and the
workers it reaped, not their sum.  Nothing is downloaded; each DIR is removed after its size.

    python3 experiments/fork_crossover.py OUT.json [--docs 64 160 318 413 509 814 1280 10000 100000]
        [--runs 21] [--seed 1]

Sizes of at least 10,000 documents run LARGE_RUNS (5) pairs, the others --runs.  It prints one line per size and
writes every run, with the medians, to OUT.json.  The crossover is the smallest size whose median paired
difference (forked minus inline) is below zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import corpus  # noqa: E402

MODES = {"forked": 2, "inline": 10**9}  # FORK_CHUNKS in each copy of src/
BATCH = 10_000  # documents generated and written at a time, so this script stays small
LARGE = 10_000  # sizes from here on run LARGE_RUNS pairs
LARGE_RUNS = 5

# Runs argv with stdout to /dev/null; prints wall seconds, peak RSS in KiB and the exit status as JSON.
LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps({"wall_s": time.perf_counter() - start, "peak_rss_kib": usage.ru_maxrss,
                  "exit": os.waitstatus_to_exitcode(status)}))
"""


def copy_src(tmp: Path, mode: str) -> Path:
    top = tmp / mode
    shutil.copytree(ROOT / "src", top, ignore=shutil.ignore_patterns("__pycache__"))
    cli = top / "derlint" / "cli.py"
    text, n = re.subn(r"^FORK_CHUNKS = \d+", f"FORK_CHUNKS = {MODES[mode]}", cli.read_text(), flags=re.M)
    if n != 1:
        raise SystemExit("cli.py has no FORK_CHUNKS line")
    cli.write_text(text)
    return top


def write_documents(top: Path, count: int, seed: int) -> tuple[int, int]:
    """Write count seeded typical documents under top; return (files, bytes)."""
    rng = random.Random(seed)
    written = 0
    for part, start in enumerate(range(0, count, BATCH)):
        docs = corpus.typical_docs(rng, min(BATCH, count - start), prefix=f"p{part}")
        _, size = corpus.write_batch_dir(rng, docs, top, f"part{part:02d}")
        written += size
    return sum(len(files) for _, _, files in os.walk(top)), written


def run_lint(src: Path, top: Path) -> dict:
    cmd = [sys.executable, "-m", "derlint.cli", "lint", "--no-timing", str(top)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *cmd], env=env, capture_output=True, text=True, check=True)
    run = json.loads(proc.stdout)
    if run["exit"] not in (0, 1):
        raise SystemExit(f"lint exited {run['exit']}")
    return run


def summary(runs: list[dict], count: int) -> dict:
    wall = statistics.median(r["wall_s"] for r in runs)
    rss = statistics.median(r["peak_rss_kib"] for r in runs)
    return {
        "median_ms": round(1e3 * wall, 1),
        "docs_per_s": round(count / wall, 1),
        "peak_rss_mib": round(rss / 1024, 2),
        "peak_rss_kib_per_doc": round(rss / count, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--docs", type=int, nargs="+", default=[64, 160, 318, 413, 509, 814, 1280, 10_000, 100_000])
    parser.add_argument("--runs", type=int, default=21)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    result = {
        "command": "python3 -m derlint.cli lint --no-timing DIR, unpinned, from src/ with FORK_CHUNKS 2 and 10**9, "
                   "from a small launcher",
        "host": {"usable_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seed": args.seed,
        "sizes": [],
    }
    with tempfile.TemporaryDirectory(prefix="derlint-fork-crossover-") as tmp:
        srcs = {mode: copy_src(Path(tmp), mode) for mode in MODES}
        for docs in args.docs:
            top = Path(tmp) / f"docs{docs}"
            files, size_bytes = write_documents(top, docs, args.seed)
            pairs = LARGE_RUNS if docs >= LARGE else args.runs
            runs: dict[str, list[dict]] = {mode: [] for mode in MODES}
            for i in range(pairs):
                for mode in ("forked", "inline") if i % 2 == 0 else ("inline", "forked"):
                    runs[mode].append(run_lint(srcs[mode], top))
            shutil.rmtree(top)
            forked, inline = ([r["wall_s"] for r in runs[mode]] for mode in ("forked", "inline"))
            q = statistics.quantiles(inline, n=4)
            size = {
                "docs": docs,
                "files": files,
                "bytes": size_bytes,
                "pairs": pairs,
                "forked": summary(runs["forked"], docs),
                "inline": summary(runs["inline"], docs),
                "median_pair_diff_ms": round(1e3 * statistics.median(f - s for f, s in zip(forked, inline)), 1),
                "forked_faster_pairs": sum(f < s for f, s in zip(forked, inline)),
                "inline_iqr_ms": round(1e3 * (q[2] - q[0]), 1),
                "runs": runs,
            }
            result["sizes"].append(size)
            print(f"{docs} docs in {files} files: forked {size['forked']['median_ms']} ms, inline "
                  f"{size['inline']['median_ms']} ms, median pair difference {size['median_pair_diff_ms']:+} ms, "
                  f"forked faster in {size['forked_faster_pairs']} of {pairs}; peak RSS forked "
                  f"{size['forked']['peak_rss_mib']} MiB, inline {size['inline']['peak_rss_mib']} MiB", flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
