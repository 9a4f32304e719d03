"""The golden lock: today's lint output over the seeded corpus, byte for byte.

A refactor must leave every verdict, code, severity, offset, path and
message unchanged.  See golden_corpus.py for the corpus and for how to
regenerate the file after a deliberate output change.
"""

import json

import golden_corpus


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
