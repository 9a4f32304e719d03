"""The experiment scripts still run against the package.

experiments/memo_traffic.py counts the extension entries that reach the
walk by patching names in derlint.extensions and derlint.grammar, so a
rename there breaks it.  Here it runs over 50 seeded typical documents of
perfbench's corpus, in a fresh interpreter, since the script puts src,
tests and perfbench first on sys.path itself.

experiments/fork_crossover.py rewrites cli.FORK_CHUNKS in two copies of
src/, so a rename there breaks it.  Here it runs two pairs at its smallest
size, one lint process at a time.

experiments/refusal_split.py times parse_tlv_tree, parse_certificate and
lint_bytes on perfbench's reject corpus, so a rename there breaks it.  Here
it runs once over 30 documents.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MEMO_TRAFFIC = """
import json, random, runpy, sys
script = runpy.run_path(sys.argv[1])
import corpus
docs = [doc.data for doc in corpus.typical_docs(random.Random(1), 50)]
print(json.dumps(script["traffic"](docs)))
"""


def test_memo_traffic_counts_entries_of_typical_documents():
    done = subprocess.run(
        [sys.executable, "-c", MEMO_TRAFFIC, str(ROOT / "experiments" / "memo_traffic.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    for name, (entries, short, answered) in rows.items():
        assert entries >= short >= answered, name
    entries, short, answered = (sum(row[k] for row in rows.values()) for k in range(3))
    # The registry's memo starts empty, so the first of each short entry reaches the walk.
    assert entries >= short > answered >= 1


def test_fork_crossover_writes_two_pairs_at_the_smallest_size(tmp_path):
    out = tmp_path / "crossover.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "experiments" / "fork_crossover.py"), str(out), "--docs", "64", "--runs", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    (size,) = json.loads(out.read_text())["sizes"]
    assert (size["docs"], size["pairs"]) == (64, 2)
    assert size["files"] > 0 and size["bytes"] > 0 and 0 <= size["forked_faster_pairs"] <= 2
    assert isinstance(size["inline_iqr_ms"], float) and size["inline_iqr_ms"] >= 0
    for mode in ("forked", "inline"):
        assert size[mode]["median_ms"] > 0 and size[mode]["docs_per_s"] > 0, mode
        assert size[mode]["peak_rss_mib"] > 0 and size[mode]["peak_rss_kib_per_doc"] > 0, mode
        assert len(size["runs"][mode]) == 2, mode
        for run in size["runs"][mode]:
            assert run["exit"] in (0, 1) and run["wall_s"] > 0 and run["peak_rss_kib"] > 0, mode
    assert isinstance(size["median_pair_diff_ms"], float)


def test_refusal_split_prints_a_row_per_kind():
    done = subprocess.run(
        [sys.executable, str(ROOT / "experiments" / "refusal_split.py"), "--docs", "30", "--runs", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    rows = {}
    for line in done.stdout.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| ") and cells[1].isdigit():
            rows[cells[0]] = (int(cells[1]), [float(cell) for cell in cells[2:]])
    assert set(rows) == {"random", "truncated", "trailing", "all"}
    assert sum(rows[kind][0] for kind in ("random", "truncated", "trailing")) == rows["all"][0] == 30
    for kind, (_, (scan, parse, digest, whole, frames)) in rows.items():
        assert 0 < scan and 0 < parse and 0 < digest and 0 < whole, kind
        # lint_bytes runs at least itself, lint and parse_certificate, and the scan.
        assert frames >= 4, kind
