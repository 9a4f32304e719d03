"""The golden lock: today's lint output over the seeded corpus, byte for byte.

A refactor must leave every verdict, code, severity, offset, path and
message unchanged.  See golden_corpus.py for the corpus and for how to
regenerate the file after a deliberate output change.
"""

import ast
import json
import sys
from pathlib import Path

import golden_corpus

import derlint.extensions
import derlint.grammar
import derlint.names


def test_corpus_is_large_enough():
    assert len(golden_corpus.documents()) >= 2_000


def test_lint_output_matches_golden_file():
    want = golden_corpus.GOLDEN_PATH.read_text()
    got = golden_corpus.render()
    if got == want:
        return
    for want_line, got_line in zip(want.splitlines(), got.splitlines()):
        if want_line != got_line:
            doc_id = json.loads(want_line)[0]
            assert got_line == want_line, f"first difference at {doc_id}"
    assert got == want, "golden file and regenerated output differ in length"


def _golden_diagnostics():
    lines = [json.loads(line) for line in golden_corpus.GOLDEN_PATH.read_text().splitlines()]
    return [d for _, _, diags in lines for d in diags]


def test_directory_name_diagnostics_are_locked():
    inside = [d for d in _golden_diagnostics() if ".rdn[" in d[3] and ".extnValue." in d[3]]
    assert {d[0] for d in inside} >= {"WRONG_OID_IN_DN", "EMPTY_STRING", "CHAR_SET_VIOLATION"}


# What each non-empty SEQUENCE OF in an extension body says when it is empty.
EMPTY_BODY_MESSAGES = {
    ("MALFORMED_EXTENSION_BODY", "certificatePolicies must name at least one policy"),
    ("MALFORMED_EXTENSION_BODY", "empty policyQualifiers"),
    ("MALFORMED_EXTENSION_BODY", "policyMappings must hold at least one mapping"),
    ("EMPTY_GENERAL_NAMES", "empty subjectAltName"),
    ("EMPTY_GENERAL_NAMES", "empty issuerAltName"),
    ("MALFORMED_EXTENSION_BODY", "subjectDirectoryAttributes must hold at least one attribute"),
    ("MALFORMED_EXTENSION_BODY", "nameConstraints with neither permitted nor excluded subtrees"),
    ("MALFORMED_EXTENSION_BODY", "empty generalSubtree"),
    ("MALFORMED_EXTENSION_BODY", "policyConstraints with no fields"),
    ("MALFORMED_EXTENSION_BODY", "extendedKeyUsage must name at least one purpose"),
    ("MALFORMED_EXTENSION_BODY", "cRLDistributionPoints must hold at least one point"),
    ("MALFORMED_EXTENSION_BODY", "empty distributionPoint"),
    ("EMPTY_SEQUENCE_IN_INFO_ACCESS", "empty authorityInfoAccess"),
    ("EMPTY_SEQUENCE_IN_INFO_ACCESS", "empty subjectInfoAccess"),
}


def test_extension_shape_diagnostics_are_locked():
    body = [d for d in _golden_diagnostics() if ".extnValue" in d[3]]
    messages = {d[4] for d in body if d[0] == "MALFORMED_EXTENSION_BODY"}
    for what in ("authorityKeyIdentifier", "nameConstraints", "generalSubtree", "policyConstraints", "distributionPoint"):
        assert f"{what} fields out of order or repeated" in messages, what
        for tag in ("universal", "context"):
            assert any(m.startswith(f"unexpected field {tag} ") and m.endswith(f" in {what}") for m in messages), what
    assert {(d[0], d[4]) for d in body} >= EMPTY_BODY_MESSAGES


def _call_sites(*names: str) -> set[tuple[str, int]]:
    """(file, line) of every call to ctx.<name> or <name> in the walk modules."""
    sites = set()
    for module in (derlint.grammar, derlint.names, derlint.extensions):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "ctx":
                name = func.attr
            else:
                name = getattr(func, "id", None)
            if name in names:
                sites.add((module.__file__, node.lineno))
    return sites


def test_corpus_reaches_every_walk_diagnostic():
    """Each diagnostic the walk can record is locked by at least one golden line.

    Every ctx.add line must run, and every other call that records a diagnostic must fail at least once:
    a tag check (ctx.expect, _expect) returns False, and ctx.decode, ctx.oid or ctx.payload returns None.
    """
    add_sites = _call_sites("add")
    failing_sites = _call_sites("expect", "_expect", "decode", "oid", "payload")
    failure = {"expect": False, "_expect": False, "decode": None, "oid": None, "payload": None}
    files = {path for path, _ in add_sites}
    ran, failed = set(), set()

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        elif event == "return" and frame.f_code.co_name in failure and arg is failure[frame.f_code.co_name]:
            failed.add((frame.f_back.f_code.co_filename, frame.f_back.f_lineno))
        return line_tracer

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line_tracer if frame.f_code.co_filename in files else None)
    try:
        golden_corpus.render()
    finally:
        sys.settrace(previous)
    assert len(add_sites) > 100 and len(failing_sites) > 80
    missed = sorted(f"{Path(path).name}:{line}" for path, line in (add_sites - ran) | (failing_sites - failed))
    assert not missed, f"diagnostic sites no golden document reaches: {missed}"
