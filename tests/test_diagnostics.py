"""Diagnostic registry: codes, severities, histogram."""

import json

from derlint.diagnostics import (
    Code,
    Diagnostic,
    Histogram,
    RecognitionError,
    Severity,
    diag,
)

# The severity and rejection assignment for every code, frozen as data so
# a registry edit cannot silently change outcomes.
EXPECTED = {
    "LEXING_ERROR": ("security-critical", True),
    "LENGTH_BYTE_FORBIDDEN": ("security-critical", True),
    "LENGTH_TOO_LARGE": ("security-critical", True),
    "NON_MINIMAL_LENGTH": ("security-critical", True),
    "CHILD_OVERFLOW": ("security-critical", True),
    "TRAILING_BYTES": ("security-critical", True),
    "TRUNCATED_INPUT": ("security-critical", True),
    "NESTING_TOO_DEEP": ("security-critical", True),
    "NON_MINIMAL_INTEGER": ("security-critical", True),
    "NON_CANONICAL_BOOLEAN": ("security-critical", True),
    "OID_ARC_OVERFLOW": ("security-critical", True),
    "OID_TRUNCATED": ("security-critical", True),
    "INVALID_DATE": ("security-critical", True),
    "MALFORMED_TIME": ("security-critical", True),
    "CHAR_SET_VIOLATION": ("security-critical", True),
    "WRONG_STRING_TYPE": ("security-critical", True),
    "STRUCTURAL_MISMATCH": ("security-critical", True),
    "WRONG_ALGORITHM": ("security-critical", True),
    "UNEXPECTED_NULL_IN_ALGORITHM_P": ("security-critical", True),
    "MISSING_PARAMETERS": ("security-critical", True),
    "MALFORMED_PARAMETERS": ("security-critical", True),
    "EMPTY_ISSUER_DN": ("security-critical", True),
    "EMPTY_SUBJECT_DN": ("security-critical", True),
    "EXTENSIONS_REQUIRE_V3": ("security-critical", True),
    "UNIQUE_ID_REQUIRES_V2_PLUS": ("security-critical", True),
    "MALFORMED_PUBLIC_KEY": ("security-critical", True),
    "MALFORMED_SIGNATURE_STRUCTURE": ("security-critical", True),
    "DUPLICATED_EXTENSION": ("security-critical", True),
    "MALFORMED_EXTENSION_BODY": ("security-critical", True),
    "NEGATIVE_PATH_LEN": ("security-critical", True),
    "KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS": ("security-critical", True),
    "KEY_CERT_SIGN_IN_LEAF": ("security-critical", True),
    "KEY_USAGE_VIOLATION_ON_PK_ALGORITHM": ("security-critical", True),
    "BAD_DNS_URI_EMAIL_FORMAT": ("security-critical", True),
    "SIGNATURE_ALGORITHM_MISMATCH": ("security-critical", True),
    "BAD_BIT_STRING_ENCODING": ("non-critical", True),
    "EMPTY_VALUE_FIELD": ("non-critical", True),
    "INVALID_DN": ("non-critical", True),
    "WRONG_OID_IN_DN": ("non-critical", True),
    "EMPTY_STRING": ("non-critical", True),
    "DEFAULT_VALUE_ENCODED": ("non-critical", True),
    "REDUNDANT_TRAILING_BYTES": ("non-critical", True),
    "EMPTY_EXTENSION_SEQUENCE": ("non-critical", True),
    "WRONG_EXTN_ID": ("non-critical", True),
    "PATH_LEN_IN_NON_CRITICAL_BC": ("non-critical", True),
    "PATH_LEN_IN_LEAF": ("non-critical", True),
    "WRONG_KEY_CERT_SIGN_ENCODING": ("non-critical", True),
    "EMPTY_KEY_USAGE": ("non-critical", True),
    "EMPTY_GENERAL_NAMES": ("non-critical", True),
    "MISSING_SUBJECT_KEY_ID": ("non-critical", True),
    "NOT_CRITICAL_BASIC_CONSTRAINTS": ("non-critical", True),
    "WRONG_OID": ("non-critical", True),
    "EMPTY_SEQUENCE_IN_INFO_ACCESS": ("non-critical", True),
    "MISSING_KEY_IDENTIFIER_NOT_SELF_ISSUED": ("non-critical", True),
    "BAD_PEM_ARMOR": ("non-critical", True),
    "BAD_BASE64": ("non-critical", True),
    "UNRECOGNIZED_FORMAT": ("non-critical", True),
    "NON_POSITIVE_SERIAL": ("non-critical", False),
    "MISSING_KEY_IDENTIFIER_SELF_ISSUED": ("non-critical", False),
}


def test_every_code_has_expected_severity_and_rejection():
    assert {c.value for c in Code} == set(EXPECTED)
    for code in Code:
        want_sev, want_rejects = EXPECTED[code.value]
        assert code.severity.value == want_sev, code
        assert code.rejects == want_rejects, code


def test_every_code_has_a_label():
    for code in Code:
        label = code.label
        assert label and label == label.strip()


def test_labels_are_unique():
    labels = [code.label for code in Code]
    assert len(labels) == len(set(labels))


def test_severity_enum_values():
    assert {s.value for s in Severity} == {"security-critical", "non-critical"}


def test_diag_constructor_and_json():
    d = diag(Code.TRAILING_BYTES, path="certificate", offset=42, message="one stray octet")
    assert d.code is Code.TRAILING_BYTES
    assert d.severity is Severity.SECURITY_CRITICAL
    payload = d.to_json_dict()
    assert payload["code"] == "TRAILING_BYTES"
    assert payload["severity"] == "security-critical"
    assert payload["byte_offset"] == 42
    assert payload["path"] == "certificate"
    json.dumps(payload)


def test_recognition_error_text():
    err = RecognitionError(Code.TRAILING_BYTES, offset=7, message="1 byte(s) after element")
    assert str(err) == "TRAILING_BYTES at offset 7: 1 byte(s) after element"
    err = RecognitionError(Code.WRONG_OID, offset=None, message="leading 0x80 continuation octet")
    assert str(err) == "WRONG_OID at offset None: leading 0x80 continuation octet"
    err = RecognitionError(Code.NESTING_TOO_DEEP, offset=3)
    assert str(err) == "NESTING_TOO_DEEP at offset 3: Nesting depth cap exceeded"


def test_histogram_counts():
    h = Histogram()
    h.add([diag(Code.TRAILING_BYTES, path="p")])
    h.add([])
    h.add([diag(Code.NON_POSITIVE_SERIAL, path="p")])
    assert (h.total, h.accepted, h.rejected) == (3, 2, 1)
    assert h.counts[Code.TRAILING_BYTES] == 1


def test_histogram_json_is_sorted_and_stringly_keyed():
    h = Histogram()
    h.add([diag(Code.WRONG_OID, path="p"), diag(Code.EMPTY_STRING, path="p")])
    payload = h.to_json_dict()
    assert list(payload["counts"]) == sorted(payload["counts"])
