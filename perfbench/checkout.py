"""Locate the derlint source tree this benchmark measures.

The benchmark always measures the tree it sits in: ``src/derlint`` and
``tests/support`` next to the ``perfbench`` directory.  An installed copy
of derlint elsewhere must never be picked up instead, so the import is
checked against the expected file location.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "derlint"
TESTS = ROOT / "tests"
OUT = ROOT / ".perfbench_out"

# Children get the same view of the tree as this process.
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in ("DERLINT_REGISTRY", "PYTHONPATH")}
CHILD_ENV["PYTHONPATH"] = str(SRC)


class CheckoutError(Exception):
    """The tree does not hold the sources the benchmark needs."""


def prepare() -> None:
    """Put the tree's derlint and test support first on sys.path and import them."""
    for needed in (PACKAGE / "__init__.py", TESTS / "support" / "certs.py", TESTS / "support" / "encoder.py"):
        if not needed.is_file():
            raise CheckoutError(f"missing {needed.relative_to(ROOT)}")
    # The bundled registry is part of what is measured; an override would
    # change verdicts and cost.
    os.environ.pop("DERLINT_REGISTRY", None)
    for entry in (str(TESTS), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import derlint

    if Path(derlint.__file__).resolve().parent != PACKAGE:
        raise CheckoutError(f"derlint imported from {derlint.__file__}, not from {PACKAGE}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, corpus_digest: str) -> dict:
    import derlint

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "derlint_version": derlint.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "registry_sha256": _sha256_file(PACKAGE / "data" / "registry.txt"),
        "seed": seed,
        "corpus_sha256": corpus_digest,
    }
