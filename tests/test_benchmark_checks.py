"""The benchmark's own checks run with this suite.

perfbench's tests check, among other things, that every derlint name its
traced run wraps still resolves, so a rename in the package fails here and
not only when the benchmark runs.  They run in a fresh interpreter, since
perfbench puts the checkout's derlint first on sys.path itself.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_checks_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
