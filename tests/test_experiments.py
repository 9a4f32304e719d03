"""The experiment scripts still run against the package.

experiments/memo_traffic.py counts the extension entries that reach the
walk by patching names in derlint.extensions and derlint.grammar, so a
rename there breaks it.  Here it runs over 50 seeded typical documents of
perfbench's corpus, in a fresh interpreter, since the script puts src,
tests and perfbench first on sys.path itself.
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
