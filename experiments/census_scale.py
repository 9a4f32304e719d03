"""`derlint lint` over 10,000 and 100,000 files' worth of documents: docs/s and peak RSS, on one CPU and on all.

For each size, the script writes seeded typical documents of perfbench's corpus (perfbench/corpus.py: WebPKI-shaped
leaves, a tenth of them planted catalog fixtures) under a temporary directory, spread over DER, single-block PEM
and multi-block PEM files the way perfbench's batch-cli workload writes them.  It then runs
`python3 -m derlint.cli lint --no-timing DIR` with stdout to /dev/null, RUNS times under `taskset -c 0` (one CPU,
so lint runs inline) and RUNS times unrestricted (lint forks one worker per usable CPU), alternating which goes
first.  Each run is started by a small launcher process, which times it and reads its peak RSS from wait4: Linux
carries a process's peak RSS across exec, so a child started straight from this script, which holds a batch of
documents, would report this script's peak instead.  wait4 gives the largest peak among the command and the
workers it reaped, not their sum.  The directory is removed afterwards; nothing is downloaded.

    python3 experiments/census_scale.py OUT.json [--sizes 10000 100000] [--runs 5] [--seed 1]

It prints one line per run and writes every run, with the medians, to OUT.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

import corpus  # noqa: E402

BATCH = 10_000  # documents generated and written at a time, so this script stays small

# Runs argv with stdout to /dev/null; prints wall seconds, peak RSS in KiB and the exit status as JSON.
LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps({"wall_s": time.perf_counter() - start, "peak_rss_kib": usage.ru_maxrss,
                  "exit": os.waitstatus_to_exitcode(status)}))
"""


def write_documents(top: Path, count: int, seed: int) -> tuple[int, int]:
    """Write count seeded typical documents under top; return (files, bytes)."""
    rng = random.Random(seed)
    written = 0
    for part, start in enumerate(range(0, count, BATCH)):
        docs = corpus.typical_docs(rng, min(BATCH, count - start), prefix=f"p{part}")
        _, size = corpus.write_batch_dir(rng, docs, top, f"part{part:02d}")
        written += size
    return sum(len(files) for _, _, files in os.walk(top)), written


def run_lint(top: Path, one_cpu: bool) -> dict:
    cmd = [sys.executable, "-m", "derlint.cli", "lint", "--no-timing", str(top)]
    if one_cpu:
        cmd = ["taskset", "-c", "0", *cmd]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *cmd], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if shutil.which("taskset") is None:
        print("taskset is not installed", file=sys.stderr)
        return 2
    cpus = len(os.sched_getaffinity(0))
    result = {
        "command": "python3 -m derlint.cli lint --no-timing DIR, from a small launcher; one_cpu under taskset -c 0",
        "host": {"usable_cpus": cpus, "machine": platform.machine(), "python": platform.python_version()},
        "seed": args.seed,
        "sizes": {},
    }
    for count in args.sizes:
        with tempfile.TemporaryDirectory(prefix="derlint-census-scale-") as tmp:
            files, size = write_documents(Path(tmp), count, args.seed)
            runs = []
            for i in range(args.runs):
                for one_cpu in (True, False) if i % 2 == 0 else (False, True):
                    run = run_lint(Path(tmp), one_cpu)
                    if run["exit"] not in (0, 1):
                        print(f"lint exited {run['exit']}", file=sys.stderr)
                        return 2
                    run.update(mode="one_cpu" if one_cpu else "all_cpus", docs_per_s=count / run["wall_s"])
                    runs.append(run)
                    print(f"{count} docs, {run['mode']}: {run['docs_per_s']:,.0f} docs/s, "
                          f"peak RSS {run['peak_rss_kib'] / 1024:.1f} MiB")
        summary = {}
        for mode in ("one_cpu", "all_cpus"):
            mine = [r for r in runs if r["mode"] == mode]
            rss = statistics.median(r["peak_rss_kib"] for r in mine)
            summary[mode] = {
                "docs_per_s_median": round(statistics.median(r["docs_per_s"] for r in mine), 1),
                "peak_rss_mib_median": round(rss / 1024, 2),
                "peak_rss_kib_per_doc": round(rss / count, 4),
            }
        summary["speedup"] = round(summary["all_cpus"]["docs_per_s_median"] / summary["one_cpu"]["docs_per_s_median"], 3)
        result["sizes"][str(count)] = {"files": files, "bytes": size, "summary": summary, "runs": runs}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
