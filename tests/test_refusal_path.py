"""What a refused document must not pay for.

Most of what a refused document costs is the code around the scan, so
lint_bytes hands a declared-DER document straight to lint: the container
readers load_input and load_documents have nothing to decide for it.
lint works out the outcome with a plain loop, not a generator, and a
root that ends before its region does is scanned by _scan_early_root,
which builds no TlvNode.  This test lints a random string, a truncated
leaf and a leaf with one octet after it under a call trace, and fails if
load_input or load_documents runs, if a generator frame runs, or if a
TlvNode is created.
"""

import inspect
import random
import sys

import pytest

import derlint.der
from derlint.der import TlvNode
from derlint.ingest import LintOptions, lint, lint_bytes, load_documents, load_input

from support import certs

LEAF = certs.base_cert()
REFUSED = {
    "random": random.Random(0x5EED).randbytes(2048),
    "truncated": LEAF[: len(LEAF) // 2],
    "trailing": LEAF + b"\x00",
}


class _CountedNode(TlvNode):
    """A TlvNode whose creation runs a Python frame, so that a call trace sees it."""

    __slots__ = ()

    def __init__(self):
        pass


@pytest.fixture(autouse=True)
def counted_nodes(monkeypatch):
    monkeypatch.setattr(derlint.der, "TlvNode", _CountedNode)


def _calls(data: bytes, fmt: str) -> list[str]:
    """What runs while lint_bytes lints data: the names of the watched functions, and "generator" for each generator."""
    watched = {
        load_input.__code__: "load_input",
        load_documents.__code__: "load_documents",
        lint.__code__: "lint",
        _CountedNode.__init__.__code__: "TlvNode",
    }
    ran = []

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in watched:
            ran.append(watched[code])
        elif code.co_flags & inspect.CO_GENERATOR:
            ran.append("generator")

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        lint_bytes(data, "doc", LintOptions(fmt=fmt))
    finally:
        sys.settrace(previous)
    return ran


def test_the_trace_sees_what_it_looks_for():
    # An accepted leaf builds its nodes, and an undeclared format goes through the container readers.
    assert _calls(LEAF, "der").count("TlvNode") > 30
    assert _calls(LEAF, "auto")[:2] == ["load_input", "load_documents"]


@pytest.mark.parametrize("kind", sorted(REFUSED))
def test_refused_der_runs_lint_and_nothing_it_does_not_need(kind):
    assert lint_bytes(REFUSED[kind], "doc", LintOptions(fmt="der")).outcome == "rejected"
    assert _calls(REFUSED[kind], "der") == ["lint"]
