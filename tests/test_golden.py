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


def test_directory_name_diagnostics_are_locked():
    lines = [json.loads(line) for line in golden_corpus.GOLDEN_PATH.read_text().splitlines()]
    inside = [d for _, _, diags in lines for d in diags if ".rdn[" in d[3] and ".extnValue." in d[3]]
    assert {d[0] for d in inside} >= {"WRONG_OID_IN_DN", "EMPTY_STRING", "CHAR_SET_VIOLATION"}
