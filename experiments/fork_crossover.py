"""Where forked lint workers start to pay: `derlint lint` on small batches, forked and inline, on the same CPUs.

`derlint lint` forks only for a batch of at least `cli.FORK_CHUNKS` chunks of `cli.CHUNK_FILES` files.  This
script checks that bound.  It copies `src/` twice into a temporary directory, once with `FORK_CHUNKS = 2` (fork
as soon as there are two chunks) and once with `FORK_CHUNKS` out of reach (always inline), and runs
`python3 -m derlint.cli lint --no-timing DIR` from each, alternating which goes first, RUNS pairs per size.  Both
run unpinned, so the comparison is the fork decision alone: a run pinned with taskset differs in more than that.
Each DIR holds seeded typical documents of perfbench's corpus (perfbench/corpus.py), spread over DER,
single-block PEM and multi-block PEM files the way the batch-cli workload writes them.  Wall time is measured
around the whole command, interpreter start included.  Nothing is downloaded; the directory is removed afterwards.

    python3 experiments/fork_crossover.py OUT.json [--docs 64 160 318 413 509 814 1280] [--runs 21] [--seed 1]

It prints one line per size and writes every run, with the medians, to OUT.json.  The crossover is the smallest
size whose median paired difference (forked minus inline) is below zero.
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import corpus  # noqa: E402

MODES = {"forked": 2, "inline": 10**9}  # FORK_CHUNKS in each copy of src/


def copy_src(tmp: Path, mode: str) -> Path:
    top = tmp / mode
    shutil.copytree(ROOT / "src", top, ignore=shutil.ignore_patterns("__pycache__"))
    cli = top / "derlint" / "cli.py"
    text, n = re.subn(r"^FORK_CHUNKS = \d+", f"FORK_CHUNKS = {MODES[mode]}", cli.read_text(), flags=re.M)
    if n != 1:
        raise SystemExit("cli.py has no FORK_CHUNKS line")
    cli.write_text(text)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--docs", type=int, nargs="+", default=[64, 160, 318, 413, 509, 814, 1280])
    parser.add_argument("--runs", type=int, default=21)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    result = {
        "command": "python3 -m derlint.cli lint --no-timing DIR, unpinned, from src/ with FORK_CHUNKS 2 and 10**9",
        "host": {"usable_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seed": args.seed,
        "sizes": [],
    }
    with tempfile.TemporaryDirectory(prefix="derlint-fork-crossover-") as tmp:
        srcs = {mode: copy_src(Path(tmp), mode) for mode in MODES}
        for docs in args.docs:
            top = Path(tmp) / f"docs{docs}"
            rng = random.Random(args.seed)
            corpus.write_batch_dir(rng, corpus.typical_docs(rng, docs, prefix="p"), top, "c")
            files = sum(len(names) for _, _, names in os.walk(top))
            runs = {mode: [] for mode in MODES}
            for i in range(args.runs):
                for mode in ("forked", "inline") if i % 2 == 0 else ("inline", "forked"):
                    env = {**os.environ, "PYTHONPATH": str(srcs[mode])}
                    start = time.perf_counter()
                    subprocess.run([sys.executable, "-m", "derlint.cli", "lint", "--no-timing", str(top)], env=env,
                                   stdout=subprocess.DEVNULL, check=False)
                    runs[mode].append(time.perf_counter() - start)
            q = statistics.quantiles(runs["inline"], n=4)
            size = {
                "docs": docs,
                "files": files,
                "forked_ms": round(1e3 * statistics.median(runs["forked"]), 1),
                "inline_ms": round(1e3 * statistics.median(runs["inline"]), 1),
                "median_pair_diff_ms": round(1e3 * statistics.median(f - s for f, s in zip(*runs.values())), 1),
                "forked_faster_pairs": sum(f < s for f, s in zip(*runs.values())),
                "inline_iqr_ms": round(1e3 * (q[2] - q[0]), 1),
                "runs_s": runs,
            }
            result["sizes"].append(size)
            print(f"{docs} docs in {files} files: forked {size['forked_ms']} ms, inline {size['inline_ms']} ms, "
                  f"median pair difference {size['median_pair_diff_ms']:+} ms, forked faster in "
                  f"{size['forked_faster_pairs']} of {args.runs}", flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
