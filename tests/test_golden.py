"""The golden lock: today's lint output over the seeded corpus, byte for byte.

A refactor must leave every verdict, code, severity, offset, path and
message unchanged.  See golden_corpus.py for the corpus and for how to
regenerate the file after a deliberate output change.
"""

import ast
import json
import sys
import tokenize
from pathlib import Path

import golden_corpus

import derlint.der
import derlint.extensions
import derlint.grammar
import derlint.matchers
import derlint.names
import derlint.registry
import derlint.values


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


def test_remembered_extension_entries_change_no_line(monkeypatch):
    # The default registry's memo of silent extension entries starts empty, is filled by the first render, and
    # serves the second and a render that lints the documents in reverse order.
    want = golden_corpus.GOLDEN_PATH.read_text()
    memo = derlint.registry.default_registry().silent_extensions
    walked = []
    walk = derlint.extensions._parse_extension_entry
    monkeypatch.setattr(derlint.extensions, "_parse_extension_entry", lambda *args: walked.append(1) or walk(*args))
    memo.clear()
    entries = []
    for run, reverse in (("cold", False), ("warm", False), ("reverse", True)):
        walked.clear()
        assert golden_corpus.render(reverse) == want, run
        assert memo, run
        entries.append(len(walked))
    cold, warm, _ = entries
    assert warm < cold


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


WALK_MODULES = (derlint.grammar, derlint.names, derlint.extensions, derlint.matchers)


def _call_sites(*names: str) -> set[tuple[str, int]]:
    """(file, line) of every call to ctx.<name> or <name> in the walk modules."""
    sites = set()
    for module in WALK_MODULES:
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "ctx":
                name = func.attr
            else:
                name = getattr(func, "id", None)
            if name in names:
                sites.add((module.__file__, node.lineno))
    return sites


def _token_call_sites(*names: str) -> set[tuple[str, int]]:
    """_call_sites read from the token stream instead of the syntax tree: a name token in names, then "(", after
    "ctx ." (itself not after ".") or after neither "." nor "def"."""
    sites = set()
    for module in WALK_MODULES:
        with open(module.__file__, "rb") as fh:
            tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type in (tokenize.NAME, tokenize.OP)]
        for i in range(3, len(tokens) - 1):
            if tokens[i].string not in names or tokens[i + 1].string != "(":
                continue
            before = [tok.string for tok in tokens[i - 3 : i]]
            if before[1:] == ["ctx", "."] and before[0] != ".":
                sites.add((module.__file__, tokens[i - 2].start[0]))
            elif before[2] not in (".", "def"):
                sites.add((module.__file__, tokens[i].start[0]))
    return sites


def test_corpus_reaches_every_walk_diagnostic():
    """Each diagnostic the walk can record is locked by at least one golden line.

    Every ctx.add line must run, and every other call that records a diagnostic must fail at least once:
    a tag check (ctx.expect, _expect) returns False, and ctx.decode, ctx.oid or ctx.payload returns None.
    """
    add_sites = _call_sites("add")
    failing_sites = _call_sites("expect", "_expect", "decode", "oid", "payload")
    failure = {"expect": False, "_expect": False, "decode": None, "oid": None, "payload": None}
    # The scan must not go blind: a token scan finds the same sites, and every walk module records diagnostics.
    assert add_sites == _token_call_sites("add")
    assert failing_sites == _token_call_sites(*failure)
    files = {path for path, _ in add_sites | failing_sites}
    assert files == {module.__file__ for module in WALK_MODULES}
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
    missed = sorted(f"{Path(path).name}:{line}" for path, line in (add_sites - ran) | (failing_sites - failed))
    assert not missed, f"diagnostic sites no golden document reaches: {missed}"


# The raises of values.py and der.py that no input can reach through lint, as (module, function, which raise in the
# function from 0) -> (a fragment of its source, the reason).
UNREACHABLE_RAISES = {
    ("values", "validate_time", 0): ("not a time type", "the walk checks the tag before it calls validate_time"),
    ("der", "_read_identifier", 0): ('"identifier octets"', "a header never starts at the end of its region"),
    ("der", "parse_tlv_tree", 1): ("exceeds cap", "the CONTENT_MAX input cap needs a 4 GiB document"),
}


def _raises(module) -> dict[tuple[str, str, int], tuple[int, str]]:
    """(module, function, n) -> (line, source) of the nth raise in each function of module.

    A raise of ValueError is left out: it reports a caller's misuse (an octet or a state out of range), which no
    input can cause, and not a diagnostic.
    """
    source = Path(module.__file__).read_text()
    sites = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            raises = [node for node in ast.walk(func) if isinstance(node, ast.Raise)]
            raises = [node for node in raises if getattr(getattr(node.exc, "func", None), "id", None) != "ValueError"]
            for n, node in enumerate(sorted(raises, key=lambda node: node.lineno)):
                key = (module.__name__.rpartition(".")[2], func.name, n)
                sites[key] = (node.lineno, ast.get_source_segment(source, node))
    return sites


def test_corpus_reaches_every_value_and_length_error():
    """Each raise of the value decoders and the TLV scan runs for at least one golden line, but for three."""
    modules = (derlint.values, derlint.der)
    sites = {key: (module.__file__, *site) for module in modules for key, site in _raises(module).items()}
    for key, (fragment, _) in UNREACHABLE_RAISES.items():
        assert fragment in sites[key][2], key
    files = {module.__file__ for module in modules}
    ran = set()

    def line_tracer(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line_tracer if frame.f_code.co_filename in files else None)
    try:
        golden_corpus.render()
    finally:
        sys.settrace(previous)
    assert len(sites) > 30
    missed = sorted(f"{Path(path).name}:{line}" for key, (path, line, _) in sites.items() if (path, line) not in ran)
    assert missed == sorted(f"{Path(sites[key][0]).name}:{sites[key][1]}" for key in UNREACHABLE_RAISES)


# Every container diagnostic ingest.py can give, as (code, message prefix).
CONTAINER_MESSAGES = (
    ("UNRECOGNIZED_FORMAT", "input is neither armored text nor a DER SEQUENCE"),
    ("UNRECOGNIZED_FORMAT", "unsupported armor label "),
    ("BAD_PEM_ARMOR", "armored input must be ASCII"),
    ("BAD_PEM_ARMOR", "no armored block found"),
    ("BAD_PEM_ARMOR", "text outside an armored block: "),
    ("BAD_PEM_ARMOR", "unexpected armor line "),
    ("BAD_PEM_ARMOR", "blank line inside an armored block (line "),
    ("BAD_PEM_ARMOR", "body line of "),
    ("BAD_PEM_ARMOR", "armored block never closed"),
    ("BAD_BASE64", "base64 body rejected: "),
    ("BAD_BASE64", "base64 body is not canonical"),
)


def test_container_diagnostics_are_locked():
    container = {(d[0], d[4]) for d in _golden_diagnostics() if d[3] == "container"}
    for code, prefix in CONTAINER_MESSAGES:
        assert any(c == code and m.startswith(prefix) for c, m in container), (code, prefix)

